package feat

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
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

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestReleasedCachePanics: a released cache serves nothing, a hit on a
// program it had included, and is released once.
func TestReleasedCachePanics(t *testing.T) {
	states := cacheStates(t, 2)
	c := NewCache(0)
	c.Program(states[0])
	c.Release()
	mustPanic(t, "Program after Release", func() { c.Program(states[0]) })
	mustPanic(t, "a second Release", c.Release)
}

// TestResetRowsOutliveBorrowedChunks is the generation reset's clause of
// invariant F: rows read before a reset are still the reader's, so the
// reset leaves their chunks to the collector. Another cache borrows every
// chunk the first gave back, serves rows bit-equal to Extract's from them,
// and has them scribbled over; the rows read first keep their bits.
func TestResetRowsOutliveBorrowedChunks(t *testing.T) {
	states := cacheStates(t, 12)
	direct := func(s *ir.State) [][]float64 {
		low, err := ir.Lower(s)
		if err != nil {
			return nil
		}
		return Extract(low)
	}
	same := func(got, want [][]float64) bool {
		_, _, ok := sameBits(got, want)
		return ok && len(got) > 0
	}
	DrainFreeChunks()
	c := NewCache(2)
	var kept, want [][][]float64
	for _, s := range states[:2] {
		if e, ok := c.Program(s); ok {
			kept, want = append(kept, e.Feats), append(want, direct(s))
		}
	}
	if len(kept) == 0 {
		t.Fatal("no program of the first generation lowered")
	}
	for _, s := range states[2:] {
		c.Program(s)
	}
	c.Release()
	if PoisonFreeChunks() == 0 {
		t.Fatal("the cache gave back no chunk: the test borrows nothing")
	}
	other := NewCache(0)
	for _, s := range states {
		if e, ok := other.Program(s); ok && !same(e.Feats, direct(s)) {
			t.Fatal("a cache on given-back chunks served rows other than Extract's")
		}
	}
	for _, ch := range other.chunks {
		for i := range ch {
			ch[i] = math.NaN()
		}
	}
	for i := range kept {
		if !same(kept[i], want[i]) {
			t.Errorf("rows of program %d changed after the reset: their chunk was handed out again", i)
		}
	}
	other.Release()
}

// TestMissAllocatesOnlyItsHeaders is the bound of the cache's memory, in
// the style of xgb's TestFitAllocsDoNotGrowPerTree: once a warm-up cache
// has released its chunks, a miss on a program of ResNet-50 (the
// benchmark's tune-net network) allocates its row headers, its Stages and
// its map entry, and no rows: they are carved from the free list's chunks.
// The collector is held off so that no pool is emptied mid-count.
func TestMissAllocatesOnlyItsHeaders(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops pooled lowering and extraction scratch")
	}
	var progs []*ir.State
	gen := sketch.NewGenerator(sketch.CPUTarget())
	sampler := anno.NewSampler(sketch.CPUTarget(), 1)
	for _, task := range workloads.ResNet50(1).Tasks {
		sketches, err := gen.Generate(task.Build())
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, sampler.SamplePopulation(sketches, 4)...)
	}
	for _, s := range progs {
		s.Signature()
	}
	warm := NewCache(0)
	for _, s := range progs {
		warm.Program(s)
	}
	warm.Release()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	measure := func(fn func()) (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	c := NewCache(0)
	got, gotObjects := measure(func() {
		for _, s := range progs {
			c.Program(s)
		}
	})
	_, misses, size := c.Stats()
	if misses != int64(len(progs)) {
		t.Fatalf("%d misses over %d programs", misses, len(progs))
	}
	// What the entries' headers take, made the same way.
	sink := make([]Entry, 0, len(progs))
	headers, _ := measure(func() {
		for _, s := range progs {
			e, _ := c.Program(s)
			sink = append(sink, Entry{Feats: make([][]float64, len(e.Feats)), Stages: make([]string, len(e.Stages))})
		}
	})
	c.Release()
	const perEntry = 256 // the map's growth, amortized over its entries
	if limit := headers + uint64(size)*perEntry; got > limit {
		t.Errorf("%d misses allocated %d bytes; their headers take %d, want at most %d", misses, got, headers, limit)
	}
	if limit := 2*uint64(misses) + uint64(size)/4; gotObjects > limit {
		t.Errorf("%d misses allocated %d objects, want at most %d (two a miss and the map's growth)", misses, gotObjects, limit)
	}
	t.Logf("%d misses: %d bytes (headers %d), %d objects", misses, got, headers, gotObjects)
}

// TestKeptRowsOutliveTheirSlab is Keep's clause of invariant F: kept
// rows are on the heap, equal to Extract's, served by later hits and
// untouched when the slab they left is carved again, when the cache's
// chunks are scribbled over and when the chunks go back to the free
// list. A miss that reuses a slab still gets Extract's rows.
func TestKeptRowsOutliveTheirSlab(t *testing.T) {
	states := cacheStates(t, 16)
	direct := func(s *ir.State) [][]float64 {
		low, err := ir.Lower(s)
		if err != nil {
			return nil
		}
		return Extract(low)
	}
	same := func(got, want [][]float64) bool {
		_, _, ok := sameBits(got, want)
		return ok && len(got) > 0
	}
	holes := func(c *Cache) (n int) {
		for _, h := range c.holes {
			n += len(h)
		}
		return n
	}
	DrainFreeChunks()
	c := NewCache(0)
	for _, s := range states[:8] {
		c.Program(s)
	}
	type kept struct {
		s    *ir.State
		rows [][]float64
	}
	var ks []kept
	for _, s := range states[:4] {
		if e, ok := c.Keep(s); ok {
			ks = append(ks, kept{s, e.Feats})
			if again, _ := c.Keep(s); &again.Feats[0][0] != &e.Feats[0][0] {
				t.Fatal("a second Keep moved the rows again")
			}
		}
	}
	if len(ks) == 0 {
		t.Fatal("no kept program lowered")
	}
	left := holes(c)
	if left != len(ks) {
		t.Fatalf("%d kept programs left %d slabs", len(ks), left)
	}
	for _, s := range states[8:] {
		if e, ok := c.Program(s); ok && !same(e.Feats, direct(s)) {
			t.Fatal("a miss on a reused slab served rows other than Extract's")
		}
	}
	if holes(c) == left {
		t.Fatal("no miss reused a slab Keep left: the test checks nothing")
	}
	for _, ch := range c.chunks {
		for i := range ch {
			ch[i] = math.NaN()
		}
	}
	for _, k := range ks {
		if e, _ := c.Program(k.s); !same(e.Feats, direct(k.s)) || !same(k.rows, direct(k.s)) {
			t.Fatal("kept rows changed with the cache's chunks")
		}
	}
	c.Release()
	if PoisonFreeChunks() == 0 {
		t.Fatal("the cache gave back no chunk")
	}
	for _, k := range ks {
		if !same(k.rows, direct(k.s)) {
			t.Fatal("kept rows changed on the free list")
		}
	}
}
