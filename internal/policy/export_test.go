package policy

import (
	"math"
	"sync/atomic"

	"repro/internal/ir"
)

// The lifetime tests' side of the scorers (DESIGN.md "The search's
// tables", invariant T). None of it is compiled into a production
// binary.

// FreeScorers is the scorers' free list, for its books.
var FreeScorers = freeScorers

// PoisonReleasedScorers makes every scorer that goes back to the free
// list, until the returned function is called, keep its signatures as
// keys with NaN scores and a node map of a stage no DAG has, and keep
// every node map it handed out, stale tags and all, with NaN values. A
// proposal that read a borrowed scorer's memo before writing it would
// meet them. stop returns how many scorers it poisoned.
func PoisonReleasedScorers() (stop func() int) {
	var n atomic.Int64
	freeScorers.SetPoison(func(m *modelScorer) {
		nan := math.NaN()
		for sig := range m.scores {
			m.scores[sig] = nan
		}
		junk := map[string]float64{"<junk>": nan}
		for sig := range m.nodes {
			m.nodes[sig] = junk
		}
		m.spare = append(m.spare, m.handed...)
		clear(m.handed)
		m.handed = m.handed[:0]
		for _, nodes := range m.spare {
			for tag := range nodes {
				nodes[tag] = nan
			}
			nodes["<junk>"] = nan
		}
		m.hits.Store(-1)
		m.misses.Store(-1)
		n.Add(1)
	})
	return func() int {
		freeScorers.SetPoison(nil)
		return int(n.Load())
	}
}

// Sigs exposes the policy's signature table (its feature cache's).
func (p *Policy) Sigs() *ir.SigTable { return p.feats.Sigs() }
