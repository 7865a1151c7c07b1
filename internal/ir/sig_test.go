package ir

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestSignatureMemoization pins the memoization safety argument: the
// memoized signature always equals a fresh rebuild, Apply invalidates
// it, clones inherit it, and a clone that diverges structurally stops
// sharing it.
func TestSignatureMemoization(t *testing.T) {
	s := NewState(matmulReLU(64, 64, 64))
	s.MustApply(&MultiLevelTileStep{
		Stage:         "matmul",
		Structure:     "SSRSRS",
		SpaceFactors:  [][]int{{8, 2, 4}, {8, 8, 1}},
		ReduceFactors: [][]int{{16}},
	})
	first := s.Signature()
	if got := s.buildSignature(); got != first {
		t.Fatalf("memoized signature diverges from rebuild:\n%s\n%s", first, got)
	}
	if s.Signature() != first || s.FamilySignature() != s.buildSignature() {
		t.Fatal("repeat signature reads changed")
	}

	// Apply drops the memo: the signature must reflect the new step.
	before := s.Signature()
	s.MustApply(&AnnotateStep{Stage: "relu", IterIdx: 0, Ann: AnnParallel})
	after := s.Signature()
	if after == before {
		t.Fatal("signature unchanged after Apply")
	}
	if after != s.buildSignature() {
		t.Fatal("post-Apply signature diverges from rebuild")
	}

	// Clones inherit the memo but not future divergence.
	c := s.Clone()
	if c.Signature() != s.Signature() {
		t.Fatal("clone signature differs from original")
	}
	if err := c.Apply(&PragmaStep{Stage: "matmul", AutoUnrollMax: 64}); err != nil {
		t.Fatal(err)
	}
	if c.Signature() == s.Signature() {
		t.Fatal("diverged clone still shares the original's signature")
	}
	if s.Signature() != after {
		t.Fatal("mutating the clone changed the original's signature")
	}
}

// TestAppendFamilyIsReplaceAll holds the family the search compares to
// the one FamilySignature renders: every packing marker removed, left to
// right, without looking again across the seams a removal makes.
func TestAppendFamilyIsReplaceAll(t *testing.T) {
	buf := []byte("stale")
	for _, sig := range []string{"", "!pk", "!p", "a!pkb!pk", "!!pkpk", "!pk!pk", "x!p!pkk;", "conv!pk[1,2,]u0;"} {
		buf = AppendFamily(buf[:0], sig)
		if want := strings.ReplaceAll(sig, "!pk", ""); string(buf) != want {
			t.Errorf("family of %q is %q, want %q", sig, buf, want)
		}
	}
}

// TestSignatureConcurrentReads races many Signature/FamilySignature
// readers over one shared state (the sharded scorer does exactly this);
// run under -race by the CI gates. All readers must agree.
func TestSignatureConcurrentReads(t *testing.T) {
	s := NewState(convReLU())
	s.MustApply(&InlineStep{Stage: "pad"})
	want := s.buildSignature()
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := s.Signature(); got != want {
					errs <- got
					return
				}
				_ = s.FamilySignature()
			}
		}()
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		t.Fatalf("concurrent signature read diverged: %s != %s", bad, want)
	}
}

// TestSignatureMemoizedZeroAlloc pins the steady-state signature read at
// zero allocations: after the first build, dedupe-map and cache keys
// must not rebuild the string. The family is not memoized: the search
// appends it to a buffer of its own, which allocates nothing either.
func TestSignatureMemoizedZeroAlloc(t *testing.T) {
	s := NewState(matmulReLU(64, 64, 64))
	s.MustApply(&MultiLevelTileStep{
		Stage:         "matmul",
		Structure:     "SSRSRS",
		SpaceFactors:  [][]int{{8, 2, 4}, {8, 8, 1}},
		ReduceFactors: [][]int{{16}},
	})
	_ = s.Signature()
	var sink string
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		sink = s.Signature()
		buf = AppendFamily(buf[:0], sink)
	}); n != 0 {
		t.Errorf("memoized signature read allocates %.1f objects/op, want 0", n)
	}
	_ = sink
}

// TestReplayedStateSharedReadOnly is the immutability guarantee of the
// flat layout, executable: once replayed, a state is validated, lowered,
// printed and signed from many goroutines at once (the sharded scorer, the
// feature cache and the measurer do exactly this) and nobody writes a
// stage, a loop slab or a spill slab. Run under -race by the CI gates;
// every reader must see the same program, and the validation memo must
// not survive the next Apply.
func TestReplayedStateSharedReadOnly(t *testing.T) {
	steps := []Step{
		&MultiLevelTileStep{Stage: "conv2d", Structure: "SSRSRS",
			SpaceFactors:  [][]int{{1, 1, 1}, {2, 2, 2}, {2, 2, 2}, {1, 4, 4}},
			ReduceFactors: [][]int{{8}, {3}, {1}}},
		&FuseConsumerStep{Producer: "conv2d", Consumer: "relu", OuterLevels: 2},
		&ComputeAtStep{Stage: "pad", Target: "conv2d", IterIdx: 2},
		&FuseStep{Stage: "relu", First: 0, Count: 3},
		&AnnotateStep{Stage: "relu", IterIdx: 0, Ann: AnnParallel},
	}
	s, err := Replay(convReLU(), steps)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Lower(s)
	if err != nil {
		t.Fatal(err)
	}
	wantSig, wantPrint := s.Signature(), s.Print()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				low, err := Lower(s)
				switch {
				case err != nil:
					errs <- err.Error()
				case s.Validate() != nil || s.Signature() != wantSig || s.Print() != wantPrint:
					errs <- "validate/signature/print diverged"
				case len(low.Stmts) != len(ref.Stmts) || !slices.Equal(low.Stmts[0].Write.Coeff, ref.Stmts[0].Write.Coeff):
					errs <- "lowering diverged"
				default:
					continue
				}
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	if bad, ok := <-errs; ok {
		t.Fatal(bad)
	}
	// The validation memo belongs to one structure: a clone inherits it
	// and drops it on its next Apply, like the signature.
	c := s.Clone()
	if !s.valid.Load() || !c.valid.Load() {
		t.Fatal("a validated state and its clone should carry the memo")
	}
	c.MustApply(&ComputeRootStep{Stage: "pad"})
	if c.valid.Load() || !s.valid.Load() {
		t.Fatal("Apply must drop the rewritten state's memo and nobody else's")
	}
}

// TestSignatureOmitsAttachedStagePragma characterises a known defect; it
// does not bless it. buildSignature writes a stage's auto_unroll_max_step
// ("]u<n>") only when the stage is not attached, so two step lists that
// differ in nothing but the pragma of a fused producer — the tiled
// convolution or matmul of nearly every sketch — replay to states with
// one Signature, although they lower to statements with different
// pragmas, which the feature extractor and the machine model both read
// (feat's TestCacheServesSignatureTwin pins what the feature cache makes
// of that). Everything keyed by signature treats the twins as one
// program: the feature cache, the round's score memo, evolution's
// dedupe, the measured set. Which twin's features the cache holds is
// decided by which was inserted first, so insertion order is an input to
// the search (DESIGN.md, "The determinism contract"). Repairing the
// signature moves every search trajectory and belongs on ROADMAP item 1's
// fidelity instrument; when it is repaired, this test flips.
func TestSignatureOmitsAttachedStagePragma(t *testing.T) {
	dag := matmulReLU(64, 64, 64)
	twin := func(unroll int) *State {
		s, err := Replay(dag, []Step{
			&MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS",
				SpaceFactors: [][]int{{2, 4, 4}, {2, 4, 4}}, ReduceFactors: [][]int{{8}}},
			&FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 2},
			&PragmaStep{Stage: "matmul", AutoUnrollMax: unroll},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := twin(0), twin(512)
	if !a.Stage("matmul").Attached {
		t.Fatal("the matmul stage is not attached: the test no longer builds the case")
	}
	if a.Signature() != b.Signature() {
		t.Fatalf("the signature now tells the twins apart — the defect is repaired, rewrite this test and its references:\n%s\n%s",
			a.Signature(), b.Signature())
	}
	lowA, err := Lower(a)
	if err != nil {
		t.Fatal(err)
	}
	lowB, err := Lower(b)
	if err != nil {
		t.Fatal(err)
	}
	if lowA.Stmts[0].Stage.Name != "matmul" || lowA.Stmts[0].AutoUnrollMax != 0 || lowB.Stmts[0].AutoUnrollMax != 512 {
		t.Errorf("twins lower to pragmas %d and %d on %s, want 0 and 512 on matmul",
			lowA.Stmts[0].AutoUnrollMax, lowB.Stmts[0].AutoUnrollMax, lowA.Stmts[0].Stage.Name)
	}
}
