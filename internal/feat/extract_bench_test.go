package feat

import (
	"testing"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
)

func benchLowered(b *testing.B) *ir.Lowered {
	b.Helper()
	bd := te.NewBuilder("conv")
	x := bd.Input("X", 16, 256, 14, 14)
	y := bd.Conv2D(x, te.ConvOpts{OutChannels: 512, Kernel: 3, Stride: 2, Pad: 1})
	bd.ReLU(y)
	dag := bd.MustFinish()
	sk, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(dag)
	if err != nil {
		b.Fatal(err)
	}
	s := anno.NewSampler(sketch.CPUTarget(), 1).SamplePopulation(sk, 1)[0]
	low, err := ir.Lower(s)
	if err != nil {
		b.Fatal(err)
	}
	return low
}

// BenchmarkExtract measures Appendix-B feature extraction of one lowered
// program — the cost of every feature-cache miss on the score path.
func BenchmarkExtract(b *testing.B) {
	low := benchLowered(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := Extract(low); len(f) == 0 {
			b.Fatal("no features")
		}
	}
}

// BenchmarkFeatureMiss measures what a feature-cache miss costs outside
// the cache's map: per program, ir.LowerBorrowed, Extract and Release,
// cycling through 8 programs sampled from each of ResNet-50's tasks on
// the CPU target (the programs the benchmark's tune-net workload scores).
func BenchmarkFeatureMiss(b *testing.B) {
	var progs []*ir.State
	gen := sketch.NewGenerator(sketch.CPUTarget())
	sampler := anno.NewSampler(sketch.CPUTarget(), 1)
	for _, task := range workloads.ResNet50(1).Tasks {
		sketches, err := gen.Generate(task.Build())
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, sampler.SamplePopulation(sketches, 8)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		low, err := ir.LowerBorrowed(progs[i%len(progs)])
		if err != nil {
			b.Fatal(err)
		}
		if f := Extract(low); len(f) == 0 {
			b.Fatal("no features")
		}
		low.Release()
	}
}
