package ir

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/te"
)

func matmulReLU(n, m, k int) *te.DAG {
	b := te.NewBuilder("matmul_relu")
	a := b.Input("A", n, k)
	c := b.Matmul(a, m, true)
	b.ReLU(c)
	return b.MustFinish()
}

func convReLU() *te.DAG {
	b := te.NewBuilder("conv_relu")
	x := b.Input("X", 1, 32, 16, 16)
	y := b.Conv2D(x, te.ConvOpts{OutChannels: 32, Kernel: 3, Pad: 1})
	b.ReLU(y)
	return b.MustFinish()
}

func TestNaiveState(t *testing.T) {
	d := matmulReLU(512, 512, 512)
	s := NewState(d)
	if len(s.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(s.Stages))
	}
	mm := s.Stages[0]
	if len(mm.Iters) != 3 {
		t.Fatalf("matmul iters = %d, want 3", len(mm.Iters))
	}
	if mm.IterCount() != 512*512*512 {
		t.Errorf("iter count = %d", mm.IterCount())
	}
	if !s.Complete() {
		t.Error("naive state should be complete")
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSplitPreservesIterCount(t *testing.T) {
	d := matmulReLU(64, 64, 64)
	s := NewState(d)
	s.MustApply(&SplitStep{Stage: "matmul", IterIdx: 0, Factors: []int{8, 2}})
	mm := s.Stage("matmul")
	if len(mm.Iters) != 5 {
		t.Fatalf("iters = %d, want 5", len(mm.Iters))
	}
	if got := mm.Iters[0].Extent * mm.Iters[1].Extent * mm.Iters[2].Extent; got != 64 {
		t.Errorf("split extents product = %d, want 64", got)
	}
	if mm.IterCount() != 64*64*64 {
		t.Errorf("iter count changed: %d", mm.IterCount())
	}
	// Strides: the outer part steps by 16, middle by 2, inner by 1.
	sc := getScratch()
	defer sc.release()
	stride, levels := sc.strides(mm)
	for level, want := range []int{16, 2, 1} {
		if got := stride[0*levels+level]; got != want {
			t.Errorf("stride(level%d) = %d, want %d", level, got, want)
		}
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSplitRejectsBadFactors(t *testing.T) {
	s := NewState(matmulReLU(64, 64, 64))
	if err := s.Apply(&SplitStep{Stage: "matmul", IterIdx: 0, Factors: []int{7}}); err == nil {
		t.Error("non-dividing factor accepted")
	}
	if err := s.Apply(&SplitStep{Stage: "nosuch", IterIdx: 0, Factors: []int{2}}); err == nil {
		t.Error("missing stage accepted")
	}
}

func TestFuseAndReorder(t *testing.T) {
	s := NewState(matmulReLU(32, 16, 8))
	s.MustApply(&FuseStep{Stage: "matmul", First: 0, Count: 2})
	mm := s.Stage("matmul")
	if len(mm.Iters) != 2 {
		t.Fatalf("iters = %d, want 2", len(mm.Iters))
	}
	if mm.Iters[0].Extent != 512 {
		t.Errorf("fused extent = %d, want 512", mm.Iters[0].Extent)
	}
	if len(mm.Atoms(0)) != 2 {
		t.Errorf("fused atoms = %d, want 2", len(mm.Atoms(0)))
	}
	s.MustApply(&ReorderStep{Stage: "matmul", Perm: []int{1, 0}})
	if mm.Iters[0].Kind != te.Reduce {
		t.Error("reorder should put the reduce loop first")
	}
	// Mixed-kind fusion rejected.
	if err := s.Apply(&FuseStep{Stage: "matmul", First: 0, Count: 2}); err == nil {
		t.Error("space+reduce fusion accepted")
	}
}

func TestAnnotate(t *testing.T) {
	s := NewState(matmulReLU(32, 16, 8))
	s.MustApply(&AnnotateStep{Stage: "matmul", IterIdx: 0, Ann: AnnParallel})
	if s.Stage("matmul").Iters[0].Ann != AnnParallel {
		t.Error("annotation not applied")
	}
	// Reduce loop cannot be vectorized or parallelized directly.
	if err := s.Apply(&AnnotateStep{Stage: "matmul", IterIdx: 2, Ann: AnnVectorize}); err == nil {
		t.Error("vectorized reduce loop accepted")
	}
	if err := s.Apply(&AnnotateStep{Stage: "matmul", IterIdx: 2, Ann: AnnParallel}); err == nil {
		t.Error("parallel reduce loop accepted")
	}
	if err := s.Apply(&AnnotateStep{Stage: "matmul", IterIdx: 2, Ann: AnnUnroll}); err != nil {
		t.Errorf("unrolled reduce loop rejected: %v", err)
	}
}

func TestMultiLevelTileSketch(t *testing.T) {
	s := NewState(matmulReLU(512, 512, 512))
	s.MustApply(&MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS"})
	mm := s.Stage("matmul")
	// 4 space levels x 2 axes + 2 reduce levels x 1 axis = 10 loops.
	if len(mm.Iters) != 10 {
		t.Fatalf("iters = %d, want 10", len(mm.Iters))
	}
	if s.Complete() {
		t.Error("sketch with nil factors should be incomplete")
	}
	names := make([]string, len(mm.Iters))
	for i := range mm.Iters {
		names[i] = mm.IterName(i)
	}
	want := "i.0 j.0 i.1 j.1 k.0 i.2 j.2 k.1 i.3 j.3"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("loop order = %q, want %q", got, want)
	}
}

func TestMultiLevelTileConcrete(t *testing.T) {
	s := NewState(matmulReLU(512, 512, 512))
	s.MustApply(&MultiLevelTileStep{
		Stage: "matmul", Structure: "SSRSRS",
		SpaceFactors:  [][]int{{8, 16, 4}, {8, 8, 8}},
		ReduceFactors: [][]int{{16}},
	})
	mm := s.Stage("matmul")
	if !mm.Complete() {
		t.Fatal("concrete tiling should be complete")
	}
	if mm.IterCount() != 512*512*512 {
		t.Errorf("iter count = %d, want %d", mm.IterCount(), 512*512*512)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	// Non-dividing factors rejected.
	s2 := NewState(matmulReLU(512, 512, 512))
	err := s2.Apply(&MultiLevelTileStep{
		Stage: "matmul", Structure: "SSRSRS",
		SpaceFactors:  [][]int{{7, 16, 4}, {8, 8, 8}},
		ReduceFactors: [][]int{{16}},
	})
	if err == nil {
		t.Error("non-dividing tile factors accepted")
	}
}

// tileAndFuse builds the paper's generated-sketch-1 structure on
// matmul+relu with the given concrete factors.
func tileAndFuse(t *testing.T, sf [][]int, rf [][]int) *State {
	t.Helper()
	s := NewState(matmulReLU(512, 512, 512))
	s.MustApply(&MultiLevelTileStep{
		Stage: "matmul", Structure: "SSRSRS",
		SpaceFactors: sf, ReduceFactors: rf,
	})
	s.MustApply(&FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 2})
	return s
}

func TestFuseConsumerStructure(t *testing.T) {
	s := tileAndFuse(t,
		[][]int{{8, 16, 4}, {8, 8, 8}}, // i: 512=(1)*8*16*4 -> i0=1; j: j0=0.5? see below
		[][]int{{16}})
	mm := s.Stage("matmul")
	relu := s.Stage("relu")
	if !mm.Attached || mm.AttachTarget != "relu" || mm.AttachIdx != 3 {
		t.Fatalf("matmul attach = %v %q %d", mm.Attached, mm.AttachTarget, mm.AttachIdx)
	}
	// relu owns i.0 j.0 i.1 j.1 plus two inner fused loops.
	if len(relu.Iters) != 6 {
		t.Fatalf("relu iters = %d, want 6", len(relu.Iters))
	}
	// matmul keeps k.0 i.2 j.2 k.1 i.3 j.3.
	if len(mm.Iters) != 6 {
		t.Fatalf("matmul iters = %d, want 6", len(mm.Iters))
	}
	if relu.Iters[4].Extent != 16*4 {
		t.Errorf("relu inner i extent = %d, want 64", relu.Iters[4].Extent)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	if !s.Complete() {
		t.Error("state should be complete")
	}
}

func TestLowerTileAndFuse(t *testing.T) {
	s := tileAndFuse(t,
		[][]int{{8, 16, 4}, {8, 8, 8}},
		[][]int{{16}})
	low, err := Lower(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(low.Stmts) != 2 {
		t.Fatalf("stmts = %d, want 2", len(low.Stmts))
	}
	var mm, relu *Stmt
	for i := range low.Stmts {
		if st := &low.Stmts[i]; st.Stage.Name == "matmul" {
			mm = st
		} else {
			relu = st
		}
	}
	if mm == nil || relu == nil {
		t.Fatal("missing stmt")
	}
	// The matmul statement executes exactly N*M*K times.
	if got := mm.IterCount(); got != 512*512*512 {
		t.Errorf("matmul stmt iter count = %d, want %d", got, 512*512*512)
	}
	if got := relu.IterCount(); got != 512*512 {
		t.Errorf("relu stmt iter count = %d, want %d", got, 512*512)
	}
	// matmul's path: 4 consumer loops + 6 own loops.
	if len(mm.Loops) != 10 {
		t.Fatalf("matmul path loops = %d, want 10", len(mm.Loops))
	}
	// Check stride coefficients: A[i,k] read; relu's i.0 loop steps i by
	// the product of inner i tile extents (8*16*4 = 512/i0; i0=1 here so
	// stride 512... with i0 = 512/(8*16*4) = 1, level0 extent 1).
	a := mm.Reads[0]
	// Find loop j for relu's i.0 (first loop in path).
	if mm.Loops[0].Name() != "i0.0" {
		t.Fatalf("first loop = %q, want i0.0", mm.Loops[0].Name())
	}
	if got := a.Row(0)[0]; got != 8*16*4 {
		t.Errorf("A dim0 coeff of i.0 = %d, want %d", got, 8*16*4)
	}
	// A's k dim driven by matmul's own k.0 (index 4 in path) with stride 16.
	if mm.Loops[4].Name() != "k.0" {
		t.Fatalf("loop 4 = %q, want k.0", mm.Loops[4].Name())
	}
	if got := a.Row(1)[4]; got != 16 {
		t.Errorf("A dim1 coeff of k.0 = %d, want 16", got)
	}
	// B[k,j] is not moved by i loops.
	bAcc := mm.Reads[1]
	if got := bAcc.Row(0)[0]; got != 0 {
		t.Errorf("B dim0 coeff of i.0 = %d, want 0", got)
	}
	// Total flops of the lowered program: 2*N*M*K for matmul + relu's max.
	wantFlops := float64(2*512*512*512) + float64(512*512)
	if got := low.TotalFlops(); got != wantFlops {
		t.Errorf("total flops = %g, want %g", got, wantFlops)
	}
}

func TestInlineLowering(t *testing.T) {
	// Inline relu's producer chain: pad inlined into conv.
	d := convReLU()
	s := NewState(d)
	s.MustApply(&InlineStep{Stage: "pad"})
	low, err := Lower(s)
	if err != nil {
		t.Fatal(err)
	}
	// pad no longer emits a statement.
	for _, st := range low.Stmts {
		if st.Stage.Name == "pad" {
			t.Error("inlined pad stage still emitted")
		}
	}
	// conv now reads X directly with the composed halo index, and its
	// flops include the pad predicate cost.
	var conv *Stmt
	for i := range low.Stmts {
		if st := &low.Stmts[i]; strings.HasPrefix(st.Stage.Name, "conv2d") {
			conv = st
		}
	}
	if conv == nil {
		t.Fatal("conv stmt missing")
	}
	if conv.Reads[0].Tensor.Name != "X" {
		t.Errorf("conv reads %q, want X", conv.Reads[0].Tensor.Name)
	}
	if conv.Flops.CmpF == 0 {
		t.Error("inlined pad predicate cost missing from conv flops")
	}
}

func TestCacheWrite(t *testing.T) {
	// A matmul without consumer (single-node dag) gets a cache stage.
	b := te.NewBuilder("gemm")
	a := b.Input("A", 64, 64)
	b.Matmul(a, 64, true)
	d := b.MustFinish()
	s := NewState(d)
	s.MustApply(&CacheWriteStep{Stage: "matmul"})
	if len(s.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(s.Stages))
	}
	cache := s.Stage("matmul.cache")
	if cache == nil || cache.Kind != StageCache {
		t.Fatal("cache stage missing")
	}
	if len(cache.Node.ReduceAxes) != 1 {
		t.Error("cache stage should carry the reduction")
	}
	final := s.Stage("matmul")
	if len(final.Node.ReduceAxes) != 0 {
		t.Error("final stage should be a pure copy")
	}
	if !s.DAGLike(cache, final) {
		t.Error("final stage should consume the cache stage")
	}
	// Now rule 4 applies: tile the cache stage and fuse into the copy.
	s.MustApply(&MultiLevelTileStep{
		Stage: "matmul.cache", Structure: "SSRSRS",
		SpaceFactors:  [][]int{{4, 4, 2}, {4, 4, 2}},
		ReduceFactors: [][]int{{8}},
	})
	s.MustApply(&FuseConsumerStep{Producer: "matmul.cache", Consumer: "matmul", OuterLevels: 2})
	low, err := Lower(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(low.Stmts) != 2 {
		t.Fatalf("stmts = %d, want 2", len(low.Stmts))
	}
}

func TestRFactor(t *testing.T) {
	bld := te.NewBuilder("nrm")
	x := bld.Input("X", 8, 512, 512)
	bld.Norm(x)
	d := bld.MustFinish()
	s := NewState(d)
	s.MustApply(&RFactorStep{Stage: "norm_sumsq", ReduceIdx: 0, Factor: 8})
	rf := s.Stage("norm_sumsq.rf")
	if rf == nil || rf.Kind != StageRFactor {
		t.Fatal("rf stage missing")
	}
	// rf: space b, i_i; reduce i_o, j. Loop order: b, j, i_o, i_i.
	if len(rf.Iters) != 4 {
		t.Fatalf("rf iters = %d, want 4", len(rf.Iters))
	}
	last := rf.Iters[3]
	if last.Kind != te.Space || last.Extent != 8 {
		t.Errorf("innermost rf loop = %v/%d, want space/8", last.Kind, last.Extent)
	}
	// Vectorizing the factored-out space loop is now legal.
	if err := s.Apply(&AnnotateStep{Stage: "norm_sumsq.rf", IterIdx: 3, Ann: AnnVectorize}); err != nil {
		t.Errorf("vectorize rf space loop: %v", err)
	}
	final := s.Stage("norm_sumsq")
	if len(final.Node.ReduceAxes) != 1 || final.Node.ReduceAxes[0].Extent != 8 {
		t.Error("final stage should reduce the factored axis")
	}
	// Index rewriting: rf reads X at [b, 512? no: i = i_o*8 + i_i, j].
	acc := rf.Node.Reads[0]
	if got := acc.Index[1].CoeffOf(2); got != 8 {
		t.Errorf("i_o coeff = %d, want 8", got)
	}
	if got := acc.Index[1].CoeffOf(1); got != 1 {
		t.Errorf("i_i coeff = %d, want 1", got)
	}
	low, err := Lower(s)
	if err != nil {
		t.Fatal(err)
	}
	// rf stmt executes the full original reduction volume.
	var rfStmt *Stmt
	for i := range low.Stmts {
		if st := &low.Stmts[i]; st.Stage.Name == "norm_sumsq.rf" {
			rfStmt = st
		}
	}
	if got := rfStmt.IterCount(); got != 8*512*512 {
		t.Errorf("rf iter count = %d, want %d", got, 8*512*512)
	}
}

func TestComputeAtBounds(t *testing.T) {
	d := convReLU()
	s := NewState(d)
	s.MustApply(&MultiLevelTileStep{
		Stage: "conv2d", Structure: "SSRSRS",
		SpaceFactors: [][]int{
			{1, 1, 1}, // n = 1
			{2, 2, 2}, // co = 32: outer 4
			{2, 2, 2}, // oh = 16: outer 2
			{1, 4, 4}, // ow = 16: outer 1
		},
		ReduceFactors: [][]int{{8}, {3}, {1}},
	})
	s.MustApply(&FuseConsumerStep{Producer: "conv2d", Consumer: "relu", OuterLevels: 2})
	// Attach pad after conv's rw.0 (post-fusion index 2).
	conv := s.Stage("conv2d")
	if conv.IterName(2) != "rw.0" {
		t.Fatalf("conv iter 2 = %q, want rw.0", conv.IterName(2))
	}
	s.MustApply(&ComputeAtStep{Stage: "pad", Target: "conv2d", IterIdx: 2})
	pad := s.Stage("pad")
	// Inner extents below rw.0: n=1, co=4, oh=4, ow=16, rc=8, rh=3, rw=1.
	// pad dims: n -> 1; c -> rc = 8; h -> oh + rh halo = 4+3-1 = 6;
	// w -> ow + rw halo = 16+1-1 = 16.
	wantExt := []int{1, 8, 6, 16}
	for i, it := range pad.Iters {
		if it.Extent != wantExt[i] {
			t.Errorf("pad iter %d extent = %d, want %d", i, it.Extent, wantExt[i])
		}
	}
	if _, err := Lower(s); err != nil {
		t.Fatal(err)
	}
	// ComputeRoot restores the full extents.
	s.MustApply(&ComputeRootStep{Stage: "pad"})
	if pad.Attached {
		t.Error("pad still attached after compute-root")
	}
	if pad.Iters[2].Extent != 18 {
		t.Errorf("pad h extent = %d, want 18 (16+2*1)", pad.Iters[2].Extent)
	}
}

func TestReplayDeterminism(t *testing.T) {
	s := tileAndFuse(t,
		[][]int{{8, 16, 4}, {8, 8, 8}},
		[][]int{{16}})
	s.MustApply(&AnnotateStep{Stage: "relu", IterIdx: 0, Ann: AnnParallel})
	s2, err := Replay(s.DAG, s.Steps)
	if err != nil {
		t.Fatal(err)
	}
	if s.Signature() != s2.Signature() {
		t.Errorf("replay signature mismatch:\n%s\n%s", s.Signature(), s2.Signature())
	}
}

func TestPrintSketchPlaceholders(t *testing.T) {
	s := NewState(matmulReLU(512, 512, 512))
	s.MustApply(&MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS"})
	s.MustApply(&FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 2})
	out := s.Print()
	if !strings.Contains(out, "TILE_") {
		t.Errorf("sketch print should contain TILE placeholders:\n%s", out)
	}
}

// Property: any valid divisor-based tiling of a matmul preserves the total
// iteration count through lowering.
func TestTilePreservesIterationsProperty(t *testing.T) {
	divisorsOf := func(n int) []int {
		var out []int
		for d := 1; d <= n; d++ {
			if n%d == 0 {
				out = append(out, d)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(7))
	pick3 := func(n int) []int {
		// Pick three factors whose product divides n.
		f := make([]int, 3)
		rem := n
		for i := 0; i < 3; i++ {
			ds := divisorsOf(rem)
			f[i] = ds[rng.Intn(len(ds))]
			rem /= f[i]
		}
		return f
	}
	f := func(seed int64) bool {
		rng.Seed(seed)
		const n = 64
		s := NewState(matmulReLU(n, n, n))
		err := s.Apply(&MultiLevelTileStep{
			Stage: "matmul", Structure: "SSRSRS",
			SpaceFactors:  [][]int{pick3(n), pick3(n)},
			ReduceFactors: [][]int{{divisorsOf(n)[rng.Intn(7)]}},
		})
		if err != nil {
			return false
		}
		if err := s.Apply(&FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 2}); err != nil {
			return false
		}
		low, err := Lower(s)
		if err != nil {
			return false
		}
		for _, st := range low.Stmts {
			if st.Stage.Name == "matmul" && st.IterCount() != n*n*n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// DAGLike reports whether consumer reads producer's output; test helper
// promoted to a State method for reuse in assertions.
func (s *State) DAGLike(producer, consumer *Stage) bool {
	for _, a := range consumer.Node.Reads {
		if a.Tensor == producer.Node.Out {
			return true
		}
	}
	return false
}

func TestWriteCountsNaiveMatmul(t *testing.T) {
	d := matmulReLU(8, 8, 8)
	low, err := Lower(NewState(d))
	if err != nil {
		t.Fatal(err)
	}
	counts, err := low.WriteCounts(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts["matmul_out"] {
		if c != 8 {
			t.Fatalf("matmul_out[%d] written %d times, want 8 (K accumulations)", i, c)
		}
	}
	for i, c := range counts["relu_out"] {
		if c != 1 {
			t.Fatalf("relu_out[%d] written %d times, want 1", i, c)
		}
	}
}

func TestWriteCountsLimit(t *testing.T) {
	d := matmulReLU(64, 64, 64)
	low, _ := Lower(NewState(d))
	if _, err := low.WriteCounts(1000); err == nil {
		t.Error("limit should be enforced")
	}
}

func TestVerifyAgainstNaiveTiledFused(t *testing.T) {
	s := NewState(matmulReLU(16, 16, 16))
	s.MustApply(&MultiLevelTileStep{
		Stage: "matmul", Structure: "SSRSRS",
		SpaceFactors:  [][]int{{2, 2, 2}, {2, 2, 2}},
		ReduceFactors: [][]int{{4}},
	})
	s.MustApply(&FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 2})
	s.MustApply(&FuseStep{Stage: "relu", First: 0, Count: 4})
	s.MustApply(&AnnotateStep{Stage: "relu", IterIdx: 0, Ann: AnnParallel})
	if err := VerifyAgainstNaive(s, 1<<20); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestVerifyAgainstNaiveRFactor(t *testing.T) {
	bld := te.NewBuilder("nrm")
	bld.Norm(bld.Input("X", 4, 16, 16))
	d := bld.MustFinish()
	s := NewState(d)
	s.MustApply(&RFactorStep{Stage: "norm_sumsq", ReduceIdx: 0, Factor: 4})
	if err := VerifyAgainstNaive(s, 1<<20); err != nil {
		t.Fatalf("rfactor schedule rejected: %v", err)
	}
}

func TestStepsJSONRoundTrip(t *testing.T) {
	s := tileAndFuse(t,
		[][]int{{8, 16, 4}, {8, 8, 8}},
		[][]int{{16}})
	s.MustApply(&AnnotateStep{Stage: "relu", IterIdx: 0, Ann: AnnParallel})
	s.MustApply(&PragmaStep{Stage: "matmul", AutoUnrollMax: 64})
	data, err := EncodeSteps(s.Steps)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := DecodeSteps(data)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Replay(s.DAG, steps)
	if err != nil {
		t.Fatal(err)
	}
	if r.Signature() != s.Signature() {
		t.Error("JSON round trip changed the program")
	}
}

func TestDecodeStepsRejectsUnknownKind(t *testing.T) {
	if _, err := DecodeSteps([]byte(`[{"kind":"Bogus","data":{}}]`)); err == nil {
		t.Error("unknown step kind accepted")
	}
	if _, err := DecodeSteps([]byte(`garbage`)); err == nil {
		t.Error("garbage accepted")
	}
}
