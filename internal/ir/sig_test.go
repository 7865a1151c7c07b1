package ir

import (
	"slices"
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
// must not rebuild the string.
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
	if n := testing.AllocsPerRun(100, func() {
		sink = s.Signature()
		sink = s.FamilySignature()
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
