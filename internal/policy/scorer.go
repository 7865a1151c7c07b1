package policy

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/feat"
	"repro/internal/ir"
	"repro/internal/pool"
	"repro/internal/xgb"
)

// scorer borrows a scorer of the cost model for one proposal, backed by
// the policy's cross-round feature cache; the proposal releases it.
func (p *Policy) scorer() *modelScorer {
	m := borrowScorer()
	m.model, m.feats = p.model, p.feats
	return m
}

// modelScorer serves concurrent Score/NodeScores calls from the sharded
// evolution. Each artifact has exactly one memoization layer: the
// program's ID lives in the policy's signature table (and on the state),
// features live in the policy's cross-round cache, and the ensemble's
// scores — of a program and of its nodes — live here, keyed by ID for
// the scorer's lifetime. A scorer serves one proposal and the cost model
// is frozen from the fit at its head until the next one, so both are pure
// functions of the program — elites and re-derived twins, which
// evolution re-scores every generation, and the parents crossover asks
// about on every attempt pay the ensemble walk once per round.
//
// Scorers are borrowed from freeScorers and cleared on the way back,
// their maps and the node maps they handed out kept for the next
// proposal (DESIGN.md "The search's tables", invariant T).
type modelScorer struct {
	model *xgb.CostModel
	feats *feat.Cache
	// scores maps a program's ID → score, nodes ID → the NodeScores
	// map (nil for a program that does not lower). The sharded workers
	// are read-heavy on exactly the keys other workers insert; values are
	// pure, so a racing double-compute stores an equal value.
	mu     sync.RWMutex
	scores map[ir.SigID]float64
	nodes  map[ir.SigID]map[string]float64
	// handed holds every node map handed out, spare the ones kept from
	// an earlier proposal, cleared when they are handed out again.
	handed, spare []map[string]float64
	// hits and misses count score-memo lookups (narration only).
	hits, misses atomic.Int64
	lent         bool
}

const (
	// scorersKept bounds the free list: a network run prepares at most
	// two proposals at once.
	scorersKept = 4
	// scorerMaxSeen drops a scorer whose proposal scored more programs:
	// a cleared map keeps its buckets, and a default proposal scores
	// about five hundred.
	scorerMaxSeen = 1 << 13
)

// freeScorers is where released scorers wait (DESIGN.md "Borrowed
// memory"). Its tests' hook takes the place of clearing a released one.
var freeScorers = pool.NewFreeList[*modelScorer](scorersKept)

func borrowScorer() *modelScorer {
	m, ok := freeScorers.Borrow()
	if !ok {
		m = &modelScorer{scores: map[ir.SigID]float64{}, nodes: map[ir.SigID]map[string]float64{}}
	}
	// Cleared on release too; clearing here as well makes "a borrowed
	// scorer is empty" hold whatever the list holds.
	m.clear()
	m.lent = true
	return m
}

// release clears the scorer, keeping its maps, and gives it back. The
// caller guarantees that no Score or NodeScores call is in flight and
// that nothing reads a node map it handed out from here on.
func (m *modelScorer) release() {
	if !m.lent {
		panic("policy: scorer released twice")
	}
	m.lent = false
	seen := len(m.scores)
	if !freeScorers.Poison(m) {
		m.clear()
	}
	freeScorers.Return(m, seen <= scorerMaxSeen)
}

func (m *modelScorer) clear() {
	m.model, m.feats = nil, nil
	clear(m.scores)
	clear(m.nodes)
	m.spare = append(m.spare, m.handed...)
	clear(m.handed)
	m.handed = m.handed[:0]
	m.hits.Store(0)
	m.misses.Store(0)
}

// Sigs implements evo.SigScorer: the search keys its tables on the
// feature cache's IDs.
func (m *modelScorer) Sigs() *ir.SigTable { return m.feats.Sigs() }

func (m *modelScorer) Score(states []*ir.State) []float64 {
	out := make([]float64, len(states))
	m.ScoreInto(out, states)
	return out
}

// ScoreInto implements evo.IntoScorer: the steady-state score of a
// seen program is a memoized-ID map lookup, with zero
// allocations (pinned by TestScoreIntoZeroAlloc); first encounters pay
// one flattened-ensemble walk. The lookups of up to 64 programs share
// one read lock, so workers scoring at once do not trade the lock's
// cache line per program.
func (m *modelScorer) ScoreInto(dst []float64, states []*ir.State) {
	sigs := m.feats.Sigs()
	for lo := 0; lo < len(states); lo += 64 {
		hi := min(lo+64, len(states))
		var missed uint64 // bit i-lo: states[i] is not memoized
		m.mu.RLock()
		for i := lo; i < hi; i++ {
			if v, hit := m.scores[sigs.Intern(states[i])]; hit {
				dst[i] = v
			} else {
				missed |= 1 << (i - lo)
			}
		}
		m.mu.RUnlock()
		n := bits.OnesCount64(missed)
		m.hits.Add(int64(hi - lo - n))
		m.misses.Add(int64(n))
		for ; missed != 0; missed &= missed - 1 {
			i := lo + bits.TrailingZeros64(missed)
			score := -1e30
			if e, ok := m.feats.Program(states[i]); ok {
				score = m.model.Score(e.Feats)
			}
			m.mu.Lock()
			m.scores[sigs.Intern(states[i])] = score
			m.mu.Unlock()
			dst[i] = score
		}
	}
}

func (m *modelScorer) NodeScores(s *ir.State) map[string]float64 {
	id := m.feats.Sigs().Intern(s)
	m.mu.RLock()
	out, hit := m.nodes[id]
	m.mu.RUnlock()
	if hit {
		return out
	}
	out = nil
	if e, ok := m.feats.Program(s); ok && m.model.Trained() {
		out = m.nodeMap()
		for i, stage := range e.Stages {
			out[ir.BaseStage(stage)] += m.model.ScoreStmt(e.Feats[i])
		}
	}
	m.mu.Lock()
	m.nodes[id] = out
	m.mu.Unlock()
	return out
}

// nodeMap returns an empty node map for NodeScores to fill: a spare one
// the scorer kept, cleared, or a new one.
func (m *modelScorer) nodeMap() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out map[string]float64
	if n := len(m.spare); n > 0 {
		out = m.spare[n-1]
		m.spare[n-1] = nil
		m.spare = m.spare[:n-1]
		clear(out)
	} else {
		out = map[string]float64{}
	}
	m.handed = append(m.handed, out)
	return out
}
