package feat

import (
	"sync"
	"sync/atomic"

	"repro/internal/ir"
)

// Entry is one cached program: the per-statement feature matrix plus
// the statement stage names (what NodeScores aggregates by), so a cache
// hit serves both scoring paths without re-lowering.
type Entry struct {
	// Feats is Extract(Lower(state)); nil marks a program that failed
	// to lower (cached too, so a broken program is diagnosed once). The
	// rows are the cache's, valid until its Release, unless Keep
	// returned them.
	Feats [][]float64
	// Stages holds Lowered.Stmts[i].Stage.Name for each feature row.
	Stages []string
	// slab is the chunk memory under Feats; nil once the rows are on the
	// heap (Keep, or too long for a chunk).
	slab []float64
}

// Cache memoizes feature extraction keyed by ir.State.Signature. The
// search re-encounters the same programs constantly — best-k states
// reseed every round's population, and evolution re-derives equal states
// from different parents — so without the cache the hot path re-lowers
// and re-extracts each of them every round. Hits return the exact slices
// computed on the miss. Two programs that lower to the same statements
// share a signature, but the converse fails: signature twins, which
// differ only in the unroll pragma of an attached stage, share one while
// lowering differently, and the cache serves the second twin the first
// one's features (TestCacheServesSignatureTwin; DESIGN.md, "The
// determinism contract"). So the order in which programs first reach the
// cache is an input to the search.
//
// The cache is concurrency-safe (sharded evolution scores in parallel).
// When a limit is set and would be exceeded, the whole map is dropped —
// a deterministic generation reset that depends only on the insertion
// sequence, never on timing.
//
// The rows of a miss are carved, one zeroed slab per entry, from 64 KiB
// chunks the cache borrows from a bounded free list and hands back in
// Release (DESIGN.md "Feature rows", invariant F). Rows a reader keeps
// past Release are the ones Keep moved to the heap; the slab they leave
// is carved again by the next miss of as many statements, so a measured
// program's rows are allocated once, on the heap. The chunks save bytes
// only when a later cache in the same process borrows them: several
// tuning runs in one process (successive TuneNetwork calls, the
// experiment runner, the benchmark). A generation reset leaves the old
// chunks to the collector, not to the free list: a proposal in flight
// may still read their rows. The entries themselves live in blocks the
// cache allocates as it fills, one per entryBlock misses; the map holds
// pointers into them, and a reader gets a copy.
type Cache struct {
	mu sync.RWMutex
	// m points into blocks of entryBlock entries, filled in order
	// (entries is the current one), so growing the map moves a pointer
	// per entry, not a 72-byte Entry. Readers copy an entry under mu.
	m       map[string]*Entry // nil once released
	entries []Entry
	limit   int
	chunks  [][]float64 // rows are carved from the last one, at off
	off     int
	// holes[k] holds the slabs of k statements that Keep moved out of.
	holes  [][][]float64
	hits   atomic.Int64
	misses atomic.Int64
}

const (
	entryBlock  = 64
	chunkFloats = 64 << 10 / 8 // a chunk is 64 KiB of rows
	// chunksKept bounds the free list: 16 MiB, above the 12–15.6 MiB of
	// rows a tune-net op carves, so the next op borrows all it needs.
	chunksKept = 256
)

// freeChunks is where released chunks wait: a bounded list and no
// sync.Pool, so what a run allocates does not depend on when the
// collector ran.
var freeChunks struct {
	sync.Mutex
	list [][]float64
}

// NewCache returns a feature cache bounded to limit entries (0 =
// unbounded).
func NewCache(limit int) *Cache {
	return &Cache{m: map[string]*Entry{}, limit: limit}
}

// Program returns the cached entry for s, computing (and caching) it on
// a miss. ok is false when the program does not lower; the failure is
// cached as a nil-feature entry. It panics on a released cache.
func (c *Cache) Program(s *ir.State) (Entry, bool) {
	sig := s.Signature()
	var e Entry
	c.mu.RLock()
	p, hit := c.m[sig]
	if hit {
		e = *p
	}
	released := c.m == nil
	c.mu.RUnlock()
	if released {
		panic("feat: feature cache used after Release")
	}
	if hit {
		c.hits.Add(1)
		return e, e.Feats != nil
	}
	c.misses.Add(1)
	// The lowering is read once, here: borrow it (ir.LowerBorrowed).
	if low, err := ir.LowerBorrowed(s); err == nil {
		slab := c.carve(len(low.Stmts))
		e = Entry{Feats: extractInto(low, slab), Stages: make([]string, len(low.Stmts))}
		if len(slab) > 0 && len(slab) <= chunkFloats {
			e.slab = slab
		}
		for i := range low.Stmts {
			e.Stages[i] = low.Stmts[i].Stage.Name
		}
		low.Release()
	}
	c.mu.Lock()
	if c.limit > 0 && len(c.m) >= c.limit {
		c.m = map[string]*Entry{}
		c.entries, c.chunks, c.off, c.holes = nil, nil, 0, nil
	}
	if len(c.entries) == cap(c.entries) {
		c.entries = make([]Entry, 0, entryBlock)
	}
	c.entries = append(c.entries, e)
	c.m[sig] = &c.entries[len(c.entries)-1]
	c.mu.Unlock()
	return e, e.Feats != nil
}

// Keep is Program for rows the caller keeps past Release: the entry's
// rows move to the heap, once, and the cache serves the moved rows, with
// the same bits, from then on. The caller guarantees that nothing still
// reads rows an earlier Program call served for s: their slab is carved
// again.
func (c *Cache) Keep(s *ir.State) (Entry, bool) {
	first, ok := c.Program(s)
	if !ok || first.slab == nil {
		return first, ok
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, in := c.m[s.Signature()]
	switch {
	case !in || &p.Stages[0] != &first.Stages[0]:
		// A reset since Program: first's chunk went to the collector,
		// never to the free list.
		return first, true
	case p.slab == nil:
		return *p, true // another Keep moved it
	}
	e := *p
	slab := append([]float64(nil), e.slab...)
	*p = Entry{Feats: make([][]float64, len(e.Feats)), Stages: e.Stages}
	for i := range p.Feats {
		p.Feats[i] = slab[i*Dim : (i+1)*Dim : (i+1)*Dim]
	}
	k := len(e.Feats)
	for len(c.holes) <= k {
		c.holes = append(c.holes, nil)
	}
	c.holes[k] = append(c.holes[k], e.slab)
	return *p, true
}

// carve returns the zeroed rows of stmts statements, a slab no live
// entry shares: a hole Keep left, or the cache's chunks; more than a
// chunk holds is the heap's.
func (c *Cache) carve(stmts int) []float64 {
	n := stmts * Dim
	if n > chunkFloats {
		return make([]float64, n)
	}
	c.mu.Lock()
	var r []float64
	if stmts < len(c.holes) && len(c.holes[stmts]) > 0 {
		h := c.holes[stmts]
		r, h[len(h)-1] = h[len(h)-1], nil
		c.holes[stmts] = h[:len(h)-1]
	} else {
		if len(c.chunks) == 0 || c.off+n > chunkFloats {
			c.chunks, c.off = append(c.chunks, borrowChunk()), 0
		}
		r = c.chunks[len(c.chunks)-1][c.off : c.off+n : c.off+n]
		c.off += n
	}
	c.mu.Unlock()
	clear(r)
	return r
}

// Release hands the cache's chunks back to the free list. Every row it
// served is dead from here on, and a later Program panics. The caller
// guarantees that no Program call is in flight and that nothing reads a
// row it was served after this.
func (c *Cache) Release() {
	c.mu.Lock()
	if c.m == nil {
		c.mu.Unlock()
		panic("feat: feature cache released twice")
	}
	chunks := c.chunks
	c.m, c.entries, c.chunks, c.off, c.holes = nil, nil, nil, 0, nil
	c.mu.Unlock()
	freeChunks.Lock()
	defer freeChunks.Unlock()
	keep := min(len(chunks), chunksKept-len(freeChunks.list))
	freeChunks.list = append(freeChunks.list, chunks[:keep]...)
}

// borrowChunk returns a chunk off the free list, or a new one.
func borrowChunk() []float64 {
	freeChunks.Lock()
	defer freeChunks.Unlock()
	n := len(freeChunks.list)
	if n == 0 {
		return make([]float64, chunkFloats)
	}
	ch := freeChunks.list[n-1]
	freeChunks.list[n-1] = nil
	freeChunks.list = freeChunks.list[:n-1]
	return ch
}

// Stats reports (hits, misses, live entries) for observability and
// tests.
func (c *Cache) Stats() (hits, misses int64, size int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits.Load(), c.misses.Load(), len(c.m)
}
