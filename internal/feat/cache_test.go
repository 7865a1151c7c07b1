package feat

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/sketch"
	"repro/internal/te"
)

func cacheStates(t *testing.T, n int) []*ir.State {
	t.Helper()
	b := te.NewBuilder("mm")
	a := b.Input("A", 32, 32)
	b.Matmul(a, 32, true)
	d := b.MustFinish()
	gen := sketch.NewGenerator(sketch.CPUTarget())
	sks, err := gen.Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	states := anno.NewSampler(sketch.CPUTarget(), 3).SamplePopulation(sks, n)
	if len(states) == 0 {
		t.Fatal("no states sampled")
	}
	return states
}

func TestCacheMatchesDirectExtraction(t *testing.T) {
	states := cacheStates(t, 8)
	c := NewCache(0)
	for _, s := range states {
		e, ok := c.Program(s)
		low, err := ir.Lower(s)
		if err != nil {
			if ok {
				t.Fatal("cache served features for an unlowerable program")
			}
			continue
		}
		if !ok {
			t.Fatal("cache missed a lowerable program")
		}
		if !reflect.DeepEqual(e.Feats, Extract(low)) {
			t.Fatal("cached features differ from direct extraction")
		}
		if len(e.Stages) != len(low.Stmts) {
			t.Fatalf("stage names: %d for %d statements", len(e.Stages), len(low.Stmts))
		}
		for i, st := range low.Stmts {
			if e.Stages[i] != st.Stage.Name {
				t.Fatalf("stage[%d] = %q, want %q", i, e.Stages[i], st.Stage.Name)
			}
		}
	}
	hits, misses, size := c.Stats()
	if hits != 0 || misses != int64(len(states)) || size == 0 {
		t.Errorf("stats after first pass: hits=%d misses=%d size=%d", hits, misses, size)
	}
	// Second pass: all hits, same slices (pointer equality — a hit must
	// not recompute).
	for _, s := range states {
		e1, _ := c.Program(s)
		e2, _ := c.Program(s)
		if len(e1.Feats) > 0 && &e1.Feats[0] != &e2.Feats[0] {
			t.Fatal("repeat lookups should return the identical cached slice")
		}
	}
	hits, _, _ = c.Stats()
	if hits == 0 {
		t.Error("second pass produced no hits")
	}
}

func TestCacheGenerationReset(t *testing.T) {
	states := cacheStates(t, 6)
	c := NewCache(2)
	for _, s := range states {
		c.Program(s)
	}
	if _, _, size := c.Stats(); size > 2 {
		t.Errorf("size %d exceeds limit 2", size)
	}
	// Evicted entries recompute correctly.
	for _, s := range states {
		e, ok := c.Program(s)
		low, err := ir.Lower(s)
		if (err == nil) != ok {
			t.Fatal("eviction changed lowerability")
		}
		if ok && !reflect.DeepEqual(e.Feats, Extract(low)) {
			t.Fatal("recomputed entry differs after generation reset")
		}
	}
}

func TestCacheConcurrentLookups(t *testing.T) {
	states := cacheStates(t, 6)
	c := NewCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range states {
				if _, ok := c.Program(s); !ok {
					t.Error("concurrent lookup failed")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCacheServesSignatureTwin characterises, with ir's
// TestSignatureOmitsAttachedStagePragma, a known defect: two programs
// that differ only in the unroll pragma of a fused (attached) stage share
// a signature but not their features, so the cache hands the second one
// the features of whichever was looked up first. First-insertion order is
// therefore an input to the search (DESIGN.md, "The determinism
// contract"); when the signature is repaired, this test flips.
func TestCacheServesSignatureTwin(t *testing.T) {
	dag := matmulReLU(64, 64, 64)
	twin := func(unroll int) *ir.State {
		s, err := ir.Replay(dag, []ir.Step{
			&ir.MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS",
				SpaceFactors: [][]int{{2, 4, 4}, {2, 4, 4}}, ReduceFactors: [][]int{{8}}},
			&ir.FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 2},
			&ir.PragmaStep{Stage: "matmul", AutoUnrollMax: unroll},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	direct := func(s *ir.State) [][]float64 {
		low, err := ir.Lower(s)
		if err != nil {
			t.Fatal(err)
		}
		return Extract(low)
	}
	a, b := twin(0), twin(512)
	if a.Signature() != b.Signature() {
		t.Fatal("the signature now tells the twins apart — the defect is repaired, rewrite this test and its references")
	}
	if reflect.DeepEqual(direct(a), direct(b)) {
		t.Fatal("the twins extract to equal features: the test no longer builds the case")
	}
	for _, order := range [][2]*ir.State{{a, b}, {b, a}} {
		c := NewCache(0)
		first, _ := c.Program(order[0])
		second, _ := c.Program(order[1])
		if !reflect.DeepEqual(first.Feats, direct(order[0])) {
			t.Error("the first twin looked up did not get its own features")
		}
		if !reflect.DeepEqual(second.Feats, first.Feats) {
			t.Error("the second twin did not get the first one's features: the cache no longer keys by signature alone")
		}
	}
}
