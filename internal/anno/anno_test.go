package anno

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
)

func matmulReLU(n, m, k int) *te.DAG {
	b := te.NewBuilder("matmul_relu")
	a := b.Input("A", n, k)
	c := b.Matmul(a, m, true)
	b.ReLU(c)
	return b.MustFinish()
}

func sketchesFor(t *testing.T, d *te.DAG, tgt sketch.Target) []*ir.State {
	t.Helper()
	sk, err := sketch.NewGenerator(tgt).Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestDivisors(t *testing.T) {
	if got := Divisors(12); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 6, 12}) {
		t.Errorf("Divisors(12) = %v", got)
	}
	if got := Divisors(1); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("Divisors(1) = %v", got)
	}
	if got := Divisors(7); !reflect.DeepEqual(got, []int{1, 7}) {
		t.Errorf("Divisors(7) = %v", got)
	}
}

func TestRandomFactorsDivide(t *testing.T) {
	f := func(seed int64, e uint16) bool {
		extent := int(e%512) + 1
		rng := rand.New(rand.NewSource(seed))
		fs := RandomFactors(rng, extent, 4)
		p := 1
		for _, x := range fs {
			p *= x
		}
		return p > 0 && extent%p == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSampleProducesCompletePrograms(t *testing.T) {
	d := matmulReLU(512, 512, 512)
	sk := sketchesFor(t, d, sketch.CPUTarget())
	sp := NewSampler(sketch.CPUTarget(), 1)
	pop := sp.SamplePopulation(sk, 32)
	if len(pop) != 32 {
		t.Fatalf("sampled %d of 32 programs", len(pop))
	}
	m := sim.IntelXeon()
	for i, s := range pop {
		if !s.Complete() {
			t.Fatalf("program %d incomplete", i)
		}
		low, err := ir.Lower(s)
		if err != nil {
			t.Fatalf("program %d does not lower: %v", i, err)
		}
		// Every sampled program preserves the matmul iteration volume.
		for _, stmt := range low.Stmts {
			if stmt.Stage.Name == "matmul" && stmt.IterCount() != 512*512*512 {
				t.Fatalf("program %d matmul itercount = %d", i, stmt.IterCount())
			}
		}
		if tm := m.Time(low); tm <= 0 {
			t.Fatalf("program %d has non-positive time %g", i, tm)
		}
	}
}

func TestSampleDiversity(t *testing.T) {
	d := matmulReLU(512, 512, 512)
	sk := sketchesFor(t, d, sketch.CPUTarget())
	sp := NewSampler(sketch.CPUTarget(), 2)
	pop := sp.SamplePopulation(sk, 50)
	sigs := map[string]bool{}
	for _, s := range pop {
		sigs[s.Signature()] = true
	}
	if len(sigs) < 40 {
		t.Errorf("only %d distinct programs among 50 samples; sampling should be diverse", len(sigs))
	}
	// Performance should vary across the space by a wide margin.
	m := sim.IntelXeon()
	best, worst := 1e18, 0.0
	for _, s := range pop {
		low, err := ir.Lower(s)
		if err != nil {
			t.Fatal(err)
		}
		tm := m.Time(low)
		if tm < best {
			best = tm
		}
		if tm > worst {
			worst = tm
		}
	}
	if worst/best < 3 {
		t.Errorf("sampled programs span only %.1fx in time; space should be diverse", worst/best)
	}
}

func TestSampleReplayable(t *testing.T) {
	d := matmulReLU(256, 256, 256)
	sk := sketchesFor(t, d, sketch.CPUTarget())
	sp := NewSampler(sketch.CPUTarget(), 3)
	for i := 0; i < 10; i++ {
		s, err := sp.SampleIn(nil, sk[0])
		if err != nil {
			continue
		}
		r, err := ir.Replay(d, s.Steps)
		if err != nil {
			t.Fatalf("sample %d replay failed: %v", i, err)
		}
		if r.Signature() != s.Signature() {
			t.Fatalf("sample %d replay signature mismatch", i)
		}
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	d := matmulReLU(256, 256, 256)
	sk := sketchesFor(t, d, sketch.CPUTarget())
	a := NewSampler(sketch.CPUTarget(), 7).SamplePopulation(sk, 10)
	b := NewSampler(sketch.CPUTarget(), 7).SamplePopulation(sk, 10)
	if len(a) != len(b) {
		t.Fatal("population sizes differ")
	}
	for i := range a {
		if a[i].Signature() != b[i].Signature() {
			t.Fatalf("sample %d differs across same-seed samplers", i)
		}
	}
}

func TestGPUAnnotationAlwaysParallel(t *testing.T) {
	d := matmulReLU(512, 512, 512)
	sk := sketchesFor(t, d, sketch.GPUTarget())
	sp := NewSampler(sketch.GPUTarget(), 4)
	pop := sp.SamplePopulation(sk, 20)
	parallel := 0
	for _, s := range pop {
		for _, st := range s.Stages {
			if !st.Inlined && !st.Attached && len(st.Iters) > 0 && st.Iters[0].Ann == ir.AnnParallel {
				parallel++
				break
			}
		}
	}
	if parallel < 15 {
		t.Errorf("only %d/20 GPU programs have a parallel root; blocks are mandatory on GPUs", parallel)
	}
}

func TestNormSamplesIncludeRFactor(t *testing.T) {
	b := te.NewBuilder("nrm")
	b.Norm(b.Input("X", 1, 512, 512))
	d := b.MustFinish()
	sk := sketchesFor(t, d, sketch.CPUTarget())
	sp := NewSampler(sketch.CPUTarget(), 5)
	pop := sp.SamplePopulation(sk, 30)
	rf := 0
	for _, s := range pop {
		if s.Stage("norm_sumsq.rf") != nil {
			rf++
		}
	}
	if rf == 0 {
		t.Error("no sampled NRM program uses rfactor")
	}
}

// Property: every sampled program is semantically equivalent to the naive
// program (same per-element write counts of the output, or a valid
// rfactor re-association). This exercises tiling, fusion, compute-at,
// cache stages and annotations end to end against the ground-truth
// iteration-space checker.
func TestSampledProgramsVerifyAgainstNaive(t *testing.T) {
	builds := []func() *te.DAG{
		func() *te.DAG { return matmulReLU(16, 16, 16) },
		func() *te.DAG {
			b := te.NewBuilder("conv")
			x := b.Input("X", 1, 8, 8, 8)
			y := b.Conv2D(x, te.ConvOpts{OutChannels: 8, Kernel: 3, Pad: 1})
			b.ReLU(y)
			return b.MustFinish()
		},
		func() *te.DAG {
			b := te.NewBuilder("gemm")
			a := b.Input("A", 16, 16)
			b.Matmul(a, 16, true) // exercises the cache-write sketch
			return b.MustFinish()
		},
		func() *te.DAG {
			b := te.NewBuilder("nrm")
			b.Norm(b.Input("X", 2, 16, 16)) // exercises rfactor sketches
			return b.MustFinish()
		},
	}
	for bi, build := range builds {
		d := build()
		sk := sketchesFor(t, d, sketch.CPUTarget())
		sp := NewSampler(sketch.CPUTarget(), int64(bi)*7+1)
		for _, s := range sp.SamplePopulation(sk, 12) {
			if err := ir.VerifyAgainstNaive(s, 1<<22); err != nil {
				t.Errorf("dag %s: %v\nprogram:\n%s", d.Name, err, s.Print())
			}
		}
	}
}
