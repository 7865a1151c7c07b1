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
	// to lower (cached too, so a broken program is diagnosed once).
	Feats [][]float64
	// Stages holds Lowered.Stmts[i].Stage.Name for each feature row.
	Stages []string
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
type Cache struct {
	mu     sync.RWMutex
	m      map[string]Entry
	limit  int
	hits   atomic.Int64
	misses atomic.Int64
}

// NewCache returns a feature cache bounded to limit entries (0 =
// unbounded).
func NewCache(limit int) *Cache {
	return &Cache{m: map[string]Entry{}, limit: limit}
}

// Program returns the cached entry for s, computing (and caching) it on
// a miss. ok is false when the program does not lower; the failure is
// cached as a nil-feature entry.
func (c *Cache) Program(s *ir.State) (Entry, bool) {
	sig := s.Signature()
	c.mu.RLock()
	e, hit := c.m[sig]
	c.mu.RUnlock()
	if hit {
		c.hits.Add(1)
		return e, e.Feats != nil
	}
	c.misses.Add(1)
	// The lowering is read once, here: borrow it (ir.LowerBorrowed).
	if low, err := ir.LowerBorrowed(s); err == nil {
		e = Entry{Feats: Extract(low), Stages: make([]string, len(low.Stmts))}
		for i := range low.Stmts {
			e.Stages[i] = low.Stmts[i].Stage.Name
		}
		low.Release()
	}
	c.mu.Lock()
	if c.limit > 0 && len(c.m) >= c.limit {
		c.m = map[string]Entry{}
	}
	c.m[sig] = e
	c.mu.Unlock()
	return e, e.Feats != nil
}

// Stats reports (hits, misses, live entries) for observability and
// tests.
func (c *Cache) Stats() (hits, misses int64, size int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits.Load(), c.misses.Load(), len(c.m)
}
