package evo

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/ir"
	"repro/internal/pool"
)

// countingScorer scores deterministically from the program signature and
// counts how many states it was actually asked to score — the probe for
// within-wave dedupe.
type countingScorer struct {
	calls atomic.Int64
}

func (c *countingScorer) scoreOne(s *ir.State) float64 {
	c.calls.Add(1)
	h := uint64(14695981039346656037)
	for _, b := range []byte(s.Signature()) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return float64(h%100000) / 100000
}

func (c *countingScorer) Score(states []*ir.State) []float64 {
	out := make([]float64, len(states))
	for i, s := range states {
		out[i] = c.scoreOne(s)
	}
	return out
}

func (c *countingScorer) NodeScores(s *ir.State) map[string]float64 { return nil }

// intoCountingScorer adds the IntoScorer fast path on top.
type intoCountingScorer struct{ countingScorer }

func (c *intoCountingScorer) ScoreInto(dst []float64, states []*ir.State) {
	for i, s := range states {
		dst[i] = c.scoreOne(s)
	}
}

// TestScoreAllDedupesTwins pins the within-wave dedupe: a population
// full of signature-equal twins is scored once per distinct program, and
// the expanded result matches a dedupe-free reference exactly.
func TestScoreAllDedupesTwins(t *testing.T) {
	d := matmulReLU(128, 128, 128)
	base := initPop(t, d, 6, 11)
	// Build a population where each distinct state appears several times,
	// interleaved, as clones (evolution's elites and re-derived twins).
	var pop []*ir.State
	for rep := 0; rep < 5; rep++ {
		for _, s := range base {
			pop = append(pop, s.Clone())
		}
	}
	sc := &countingScorer{}
	want := sc.Score(pop) // reference: score every slot independently
	sc.calls.Store(0)

	sigs := ir.NewSigTable()
	defer sigs.Release()
	tables := borrowTables(sigs)
	defer tables.release()
	got := tables.scoreAll(NewSearch(Config{}).pool, sc, pop)
	if len(got) != len(pop) {
		t.Fatalf("scoreAll returned %d scores for %d states", len(got), len(pop))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("score[%d] = %v, reference %v", i, got[i], want[i])
		}
	}
	if n := sc.calls.Load(); n != int64(len(base)) {
		t.Errorf("scored %d states, want one per distinct program (%d)", n, len(base))
	}
}

// TestScoreAllIntoMatchesScore pins the IntoScorer fast path against the
// allocating Score path bit for bit, chunk boundaries included.
func TestScoreAllIntoMatchesScore(t *testing.T) {
	d := matmulReLU(128, 128, 128)
	// An odd length exercises the final short chunk.
	pop := initPop(t, d, 2*scoreChunk+3, 23)
	pl := pool.New(3)
	plain := &countingScorer{}
	fast := &intoCountingScorer{}
	want := ScoreAll(pl, plain, pop)
	out := make([]float64, len(pop))
	ScoreAllInto(pl, fast, pop, out)
	for i := range out {
		if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
			t.Fatalf("ScoreInto path diverges at %d: %v != %v", i, out[i], want[i])
		}
	}
	if fast.calls.Load() != int64(len(pop)) {
		t.Errorf("IntoScorer scored %d states, want %d", fast.calls.Load(), len(pop))
	}
}
