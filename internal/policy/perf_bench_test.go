package policy

import (
	"testing"

	"repro/internal/evo"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
)

// benchPolicy builds a policy on the conv benchmark DAG and runs two
// search rounds so the cost model is trained and the feature cache holds
// the states evolution keeps re-deriving — the steady state of a tuning
// run, which is what the search-side hot path optimizations target.
func benchPolicy(b testing.TB) *Policy {
	b.Helper()
	bd := te.NewBuilder("conv")
	x := bd.Input("X", 16, 256, 14, 14)
	y := bd.Conv2D(x, te.ConvOpts{OutChannels: 512, Kernel: 3, Stride: 2, Pad: 1})
	bd.ReLU(y)
	dag := bd.MustFinish()
	ms := measure.New(sim.IntelXeon(), 0.02, 1)
	p, err := New(Task{Name: "conv", DAG: dag, Target: sketch.CPUTarget()}, DefaultOptions(), ms)
	if err != nil {
		b.Fatal(err)
	}
	p.SearchRound(16)
	p.SearchRound(16)
	return p
}

// BenchmarkEvoRound is one full evolutionary fine-tuning run (§5.1) under
// a trained cost model: the client-side CPU hot spot of a tuning round.
// Allocations per op are the regression signal for the zero-alloc score
// path.
func BenchmarkEvoRound(b *testing.B) {
	p := benchPolicy(b)
	init := p.sampler.SamplePopulation(p.sketches, sampleInitSize)
	init = append(init, p.bestStates...)
	sc := p.scorer()
	search := evo.NewSearch(evo.Config{
		PopulationSize: 96,
		Generations:    4,
		CrossoverProb:  0.15,
		EliteCount:     12,
		Seed:           7,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := search.Run(p.Task.DAG, init, sc, 64); len(out) == 0 {
			b.Fatal("empty evolution result")
		}
	}
}

// BenchmarkScoreBatch is the batched score path in its steady state:
// every program's features are already cached, so the cost is signature
// lookup + ensemble inference. This is the path evolution pays thousands
// of times per round.
func BenchmarkScoreBatch(b *testing.B) {
	p := benchPolicy(b)
	states := p.sampler.SamplePopulation(p.sketches, 256)
	sc := p.scorer()
	// Warm the feature cache: the benchmark measures scoring, not
	// lowering.
	p.scoreAll(sc, states)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores := p.scoreAll(sc, states)
		if len(scores) != len(states) {
			b.Fatal("short score batch")
		}
	}
	b.StopTimer()
	nsPerProg := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(states))
	b.ReportMetric(nsPerProg, "ns/program")
	b.ReportMetric(float64(b.N*len(states))/b.Elapsed().Seconds(), "programs/s")
}
