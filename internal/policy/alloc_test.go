package policy

import (
	"testing"

	"repro/internal/evo"
)

// TestScoreIntoZeroAlloc pins the steady-state score path at zero
// allocations per batch: once a program's signature is memoized and its
// features cached, ScoreInto is a map lookup plus a flattened-ensemble
// walk per program. A regression here (signature rebuild, per-call memo
// map, out-slice allocation) shows up as a nonzero count.
func TestScoreIntoZeroAlloc(t *testing.T) {
	p := benchPolicy(t)
	if !p.model.Trained() {
		t.Fatal("cost model untrained after two search rounds")
	}
	states := p.sampler.SamplePopulation(p.sketches, 64)
	if len(states) == 0 {
		t.Fatal("no sampled states")
	}
	var sc evo.IntoScorer = p.scorer()
	dst := make([]float64, len(states))
	// Warm pass: lower + extract + memoize signatures once.
	sc.ScoreInto(dst, states)
	if n := testing.AllocsPerRun(100, func() {
		sc.ScoreInto(dst, states)
	}); n != 0 {
		t.Errorf("cache-hit ScoreInto allocates %.1f objects per batch, want 0", n)
	}
}

// TestScorerReleasedTwicePanics is the scorer's half of the borrow
// clauses: a released scorer holds no score, node map or model, and a
// second release panics, as an arena's does.
func TestScorerReleasedTwicePanics(t *testing.T) {
	p := benchPolicy(t)
	states := p.sampler.SamplePopulation(p.sketches, 16)
	sc := p.scorer()
	sc.Score(states)
	for _, s := range states {
		sc.NodeScores(s)
	}
	if len(sc.handed) == 0 {
		t.Fatal("NodeScores handed out no map")
	}
	sc.release()
	if len(sc.scores)+len(sc.nodes)+len(sc.handed) != 0 || sc.model != nil || sc.feats != nil {
		t.Fatal("a released scorer still holds scores, node maps or a model")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second release did not panic")
		}
	}()
	sc.release()
}
