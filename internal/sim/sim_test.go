package sim

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/te"
)

func matmulReLU(n, m, k int) *te.DAG {
	b := te.NewBuilder("matmul_relu")
	a := b.Input("A", n, k)
	c := b.Matmul(a, m, true)
	b.ReLU(c)
	return b.MustFinish()
}

func lowerNaive(t *testing.T, d *te.DAG) *ir.Lowered {
	t.Helper()
	low, err := ir.Lower(ir.NewState(d))
	if err != nil {
		t.Fatal(err)
	}
	return low
}

// goodSchedule builds a well-optimized matmul+relu: SSRSRS tiling, fused
// consumer, fused+parallel outer loops, vectorized inner loops, unrolled
// inner reduction.
func goodSchedule(t *testing.T) *ir.Lowered {
	t.Helper()
	s := ir.NewState(matmulReLU(512, 512, 512))
	must := s.MustApply
	must(&ir.MultiLevelTileStep{
		Stage: "matmul", Structure: "SSRSRS",
		SpaceFactors:  [][]int{{4, 8, 4}, {2, 4, 16}}, // i0=4, j0=4
		ReduceFactors: [][]int{{16}},
	})
	must(&ir.FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 2})
	// Fuse relu's 4 outer loops and parallelize.
	must(&ir.FuseStep{Stage: "relu", First: 0, Count: 4})
	must(&ir.AnnotateStep{Stage: "relu", IterIdx: 0, Ann: ir.AnnParallel})
	// Vectorize relu's inner j loop (last iter).
	relu := s.Stage("relu")
	must(&ir.AnnotateStep{Stage: "relu", IterIdx: len(relu.Iters) - 1, Ann: ir.AnnVectorize})
	// Vectorize matmul's j.3; unroll k.1 and i.3.
	mm := s.Stage("matmul")
	must(&ir.AnnotateStep{Stage: "matmul", IterIdx: len(mm.Iters) - 1, Ann: ir.AnnVectorize})
	must(&ir.AnnotateStep{Stage: "matmul", IterIdx: len(mm.Iters) - 2, Ann: ir.AnnUnroll})
	must(&ir.PragmaStep{Stage: "matmul", AutoUnrollMax: 64})
	low, err := ir.Lower(s)
	if err != nil {
		t.Fatal(err)
	}
	return low
}

// Throughput returns the modelled throughput in GFLOP/s of the program.
func (m *Machine) Throughput(low *ir.Lowered) float64 {
	t := m.Time(low)
	if t <= 0 {
		return 0
	}
	return low.TotalFlops() / t / 1e9
}

func TestGoodScheduleBeatsNaive(t *testing.T) {
	m := IntelXeon()
	naive := m.Time(lowerNaive(t, matmulReLU(512, 512, 512)))
	good := m.Time(goodSchedule(t))
	if good >= naive {
		t.Fatalf("good schedule (%.3gs) not faster than naive (%.3gs)", good, naive)
	}
	if naive/good < 10 {
		t.Errorf("speedup only %.1fx; tiling+annotation should be >10x", naive/good)
	}
	t.Logf("naive %.4gs, good %.4gs (%.0fx), %.1f GFLOP/s (peak %.0f)",
		naive, good, naive/good, m.Throughput(goodSchedule(t)), m.PeakGFLOPS())
}

func TestThroughputBelowPeak(t *testing.T) {
	for _, m := range []*Machine{IntelXeon(), IntelXeonAVX512(), ARMCortexA53(), NVIDIAV100()} {
		tp := m.Throughput(goodSchedule(t))
		if tp <= 0 || tp > m.PeakGFLOPS() {
			t.Errorf("%s: throughput %.1f outside (0, %.1f]", m.Name, tp, m.PeakGFLOPS())
		}
	}
}

func TestParallelSpeedupBounded(t *testing.T) {
	m := IntelXeon()
	build := func(parallel bool) *ir.Lowered {
		s := ir.NewState(matmulReLU(256, 256, 256))
		if parallel {
			s.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: 0, Ann: ir.AnnParallel})
			s.MustApply(&ir.AnnotateStep{Stage: "relu", IterIdx: 0, Ann: ir.AnnParallel})
		}
		low, err := ir.Lower(s)
		if err != nil {
			t.Fatal(err)
		}
		return low
	}
	serial := m.Time(build(false))
	par := m.Time(build(true))
	if par >= serial {
		t.Fatalf("parallel (%.3g) not faster than serial (%.3g)", par, serial)
	}
	if serial/par > float64(m.Cores) {
		t.Errorf("speedup %.1fx exceeds core count %d", serial/par, m.Cores)
	}
}

func TestVectorizeUnitStrideHelps(t *testing.T) {
	m := IntelXeon()
	build := func(vec bool) *ir.Lowered {
		s := ir.NewState(matmulReLU(256, 256, 256))
		if vec {
			// j is unit stride for B and C.
			s.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: 1, Ann: ir.AnnVectorize})
			// Move j innermost so vectorization is clean.
			s.MustApply(&ir.ReorderStep{Stage: "matmul", Perm: []int{0, 2, 1}})
		}
		low, err := ir.Lower(s)
		if err != nil {
			t.Fatal(err)
		}
		return low
	}
	if m.Time(build(true)) >= m.Time(build(false)) {
		t.Error("unit-stride vectorization should help")
	}
}

func TestStridedVectorizeWorseThanUnit(t *testing.T) {
	m := IntelXeon()
	build := func(unit bool) *ir.Lowered {
		s := ir.NewState(matmulReLU(256, 256, 256))
		if unit {
			s.MustApply(&ir.ReorderStep{Stage: "matmul", Perm: []int{0, 2, 1}})
			s.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: 2, Ann: ir.AnnVectorize})
		} else {
			// Vectorize i: strides N in A and C -> gather.
			s.MustApply(&ir.ReorderStep{Stage: "matmul", Perm: []int{1, 2, 0}})
			s.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: 2, Ann: ir.AnnVectorize})
		}
		low, err := ir.Lower(s)
		if err != nil {
			t.Fatal(err)
		}
		return low
	}
	if m.Time(build(true)) >= m.Time(build(false)) {
		t.Error("unit-stride vectorization should beat strided vectorization")
	}
}

func TestGPUNeedsParallelism(t *testing.T) {
	m := NVIDIAV100()
	s := ir.NewState(matmulReLU(256, 256, 256))
	low, _ := ir.Lower(s)
	serial := m.Time(low)
	s2 := ir.NewState(matmulReLU(256, 256, 256))
	s2.MustApply(&ir.FuseStep{Stage: "matmul", First: 0, Count: 2})
	s2.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: 0, Ann: ir.AnnParallel})
	s2.MustApply(&ir.AnnotateStep{Stage: "relu", IterIdx: 0, Ann: ir.AnnParallel})
	low2, _ := ir.Lower(s2)
	par := m.Time(low2)
	if par*5 > serial {
		t.Errorf("GPU parallel (%.3g) should be >>5x faster than single-SM (%.3g)", par, serial)
	}
}

func TestARMSlowerThanIntel(t *testing.T) {
	low := goodSchedule(t)
	if ARMCortexA53().Time(low) <= IntelXeon().Time(low) {
		t.Error("the 4-core A53 should be slower than the 20-core Xeon")
	}
}

func TestAVX512FasterOnComputeBound(t *testing.T) {
	low := goodSchedule(t)
	if IntelXeonAVX512().Time(low) >= IntelXeon().Time(low) {
		t.Error("AVX-512 should be faster on a compute-bound matmul")
	}
}

func TestUnrollReducesLoopOverhead(t *testing.T) {
	m := IntelXeon()
	build := func(pragma int) *ir.Lowered {
		s := ir.NewState(matmulReLU(256, 256, 256))
		// Split k so the innermost loop (extent 16) is coverable by the
		// auto-unroll pragma.
		s.MustApply(&ir.SplitStep{Stage: "matmul", IterIdx: 2, Factors: []int{16}})
		s.MustApply(&ir.PragmaStep{Stage: "matmul", AutoUnrollMax: pragma})
		low, err := ir.Lower(s)
		if err != nil {
			t.Fatal(err)
		}
		return low
	}
	if m.Time(build(64)) >= m.Time(build(0)) {
		t.Error("auto-unroll should reduce loop overhead")
	}
}

func TestZeroElisionWithUnroll(t *testing.T) {
	// Transposed conv: inlining the zero-insertion upsample and unrolling
	// lets the model elide zero multiplications.
	b := te.NewBuilder("t2d")
	x := b.Input("X", 1, 16, 16, 16)
	b.TransposedConv2D(x, te.ConvOpts{OutChannels: 16, Kernel: 4, Stride: 2, Pad: 1})
	d := b.MustFinish()
	m := IntelXeon()
	build := func(unroll bool) float64 {
		s := ir.NewState(d)
		for _, st := range s.Stages {
			if st.Node.StrictInlinable && len(s.ConsumerStages(st)) > 0 {
				s.MustApply(&ir.InlineStep{Stage: st.Name})
			}
		}
		if unroll {
			for _, st := range s.Stages {
				if st.Node.DataReuse {
					s.MustApply(&ir.PragmaStep{Stage: st.Name, AutoUnrollMax: 16})
				}
			}
		}
		low, err := ir.Lower(s)
		if err != nil {
			t.Fatal(err)
		}
		// Verify ZeroFrac was propagated.
		if unroll {
			found := false
			for _, stmt := range low.Stmts {
				if stmt.ZeroFrac > 0.5 {
					found = true
				}
			}
			if !found {
				t.Fatal("ZeroFrac not propagated through inlining")
			}
		}
		return m.Time(low)
	}
	if build(true) >= build(false) {
		t.Error("unrolling should enable zero-multiplication elision on T2D")
	}
}

func TestFusionAvoidsDRAMRoundTrip(t *testing.T) {
	// Same computation, fused vs unfused, on the ARM core whose 512 KB
	// LLC cannot hold the 1 MB intermediate: the fused version keeps the
	// producer's tile in cache, the unfused one round-trips to DRAM.
	m := ARMCortexA53()
	build := func(fuse bool) float64 {
		s := ir.NewState(matmulReLU(512, 512, 512))
		s.MustApply(&ir.MultiLevelTileStep{
			Stage: "matmul", Structure: "SSRSRS",
			SpaceFactors:  [][]int{{4, 8, 4}, {4, 4, 8}},
			ReduceFactors: [][]int{{16}},
		})
		if fuse {
			s.MustApply(&ir.FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 2})
			s.MustApply(&ir.FuseStep{Stage: "relu", First: 0, Count: 4})
			s.MustApply(&ir.AnnotateStep{Stage: "relu", IterIdx: 0, Ann: ir.AnnParallel})
			relu := s.Stage("relu")
			s.MustApply(&ir.AnnotateStep{Stage: "relu", IterIdx: len(relu.Iters) - 1, Ann: ir.AnnVectorize})
		} else {
			s.MustApply(&ir.FuseStep{Stage: "matmul", First: 0, Count: 4})
			s.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: 0, Ann: ir.AnnParallel})
			s.MustApply(&ir.AnnotateStep{Stage: "relu", IterIdx: 0, Ann: ir.AnnParallel})
		}
		mm := s.Stage("matmul")
		s.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: len(mm.Iters) - 1, Ann: ir.AnnVectorize})
		s.MustApply(&ir.PragmaStep{Stage: "matmul", AutoUnrollMax: 64})
		low, err := ir.Lower(s)
		if err != nil {
			t.Fatal(err)
		}
		return m.Time(low)
	}
	fused, unfused := build(true), build(false)
	if fused >= unfused {
		t.Errorf("fused (%.4g) should beat unfused (%.4g) when the intermediate exceeds LLC",
			fused, unfused)
	}
}

func TestIntermediateResidency(t *testing.T) {
	// On the Xeon the same 1 MB intermediate fits L3, so fused and
	// unfused differ only marginally (both avoid DRAM).
	m := IntelXeon()
	s := ir.NewState(matmulReLU(512, 512, 512))
	low, err := ir.Lower(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx := progCtx{stmts: low.Stmts, level: make([]int, len(low.Stmts))}
	m.analyzeResidency(&ctx)
	lvl := ctx.srcLevel("matmul_out", -1)
	if lvl < 0 {
		t.Fatal("intermediate matmul_out missing from residency analysis")
	}
	if lvl >= len(m.Caches) {
		t.Errorf("matmul_out resident level = %d; a 1 MB intermediate should fit on-chip", lvl)
	}
}

func TestDeterminism(t *testing.T) {
	m := IntelXeon()
	low := goodSchedule(t)
	if m.Time(low) != m.Time(low) {
		t.Error("simulator must be deterministic")
	}
}

func TestGPUCoalescingPenalty(t *testing.T) {
	// Vectorizing a strided access on the GPU (uncoalesced) should be
	// penalized more than on the CPU (gather).
	build := func() *ir.State {
		s := ir.NewState(matmulReLU(256, 256, 256))
		// Vectorize i: A and C are strided along i.
		s.MustApply(&ir.ReorderStep{Stage: "matmul", Perm: []int{1, 2, 0}})
		s.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: 2, Ann: ir.AnnVectorize})
		s.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: 0, Ann: ir.AnnParallel})
		s.MustApply(&ir.AnnotateStep{Stage: "relu", IterIdx: 0, Ann: ir.AnnParallel})
		return s
	}
	unit := func() *ir.State {
		s := ir.NewState(matmulReLU(256, 256, 256))
		s.MustApply(&ir.ReorderStep{Stage: "matmul", Perm: []int{0, 2, 1}})
		s.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: 2, Ann: ir.AnnVectorize})
		s.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: 0, Ann: ir.AnnParallel})
		s.MustApply(&ir.AnnotateStep{Stage: "relu", IterIdx: 0, Ann: ir.AnnParallel})
		return s
	}
	g := NVIDIAV100()
	lowS, _ := ir.Lower(build())
	lowU, _ := ir.Lower(unit())
	ratioGPU := g.Time(lowS) / g.Time(lowU)
	c := IntelXeon()
	ratioCPU := c.Time(lowS) / c.Time(lowU)
	if ratioGPU <= 1 {
		t.Errorf("uncoalesced GPU access should be slower (ratio %.2f)", ratioGPU)
	}
	if ratioGPU < ratioCPU {
		t.Errorf("GPU uncoalesced penalty (%.2f) should exceed CPU gather penalty (%.2f)",
			ratioGPU, ratioCPU)
	}
}

func TestLayoutRewritePackedConstNeverHurts(t *testing.T) {
	s := ir.NewState(matmulReLU(512, 512, 512))
	s.MustApply(&ir.MultiLevelTileStep{
		Stage: "matmul", Structure: "SSRSRS",
		SpaceFactors:  [][]int{{4, 8, 4}, {2, 4, 16}},
		ReduceFactors: [][]int{{16}},
	})
	low, _ := ir.Lower(s)
	m := IntelXeon()
	before := m.Time(low)
	s.MustApply(&ir.LayoutRewriteStep{Stage: "matmul"})
	low2, _ := ir.Lower(s)
	after := m.Time(low2)
	if after > before {
		t.Errorf("layout rewrite made the program slower: %g -> %g", before, after)
	}
}
