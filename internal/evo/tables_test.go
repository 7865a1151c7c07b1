package evo

import (
	"testing"

	"repro/internal/ir"
)

// sigScorer scores a program by its signature's length, modulo a few
// values so that ties are common, and allocates nothing once the
// signature is memoized.
type sigScorer struct{}

func (sigScorer) Score(states []*ir.State) []float64 {
	out := make([]float64, len(states))
	sigScorer{}.ScoreInto(out, states)
	return out
}

func (sigScorer) ScoreInto(dst []float64, states []*ir.State) {
	for i, s := range states {
		dst[i] = float64(len(s.Signature()) % 7)
	}
}

func (sigScorer) NodeScores(*ir.State) map[string]float64 { return nil }

// emptyTables reports whether a set holds nothing: no key in a map and
// no pointer anywhere in a buffer's capacity.
func emptyTables(t *tables) bool {
	if t.sigs != nil || len(t.best)+len(t.first)+len(t.fam) != 0 {
		return false
	}
	for _, s := range [][]scored{t.all, t.lead, t.twins} {
		for _, b := range s[:cap(s)] {
			if b.s != nil || b.sig != nil {
				return false
			}
		}
	}
	for _, s := range [][]*ir.State{t.uniq, t.pop, t.next, t.children} {
		for _, p := range s[:cap(s)] {
			if p != nil {
				return false
			}
		}
	}
	return len(t.scores)+len(t.uscores)+len(t.cum)+len(t.ref)+len(t.idx)+len(t.famBuf)+len(t.famEnd) == 0
}

// TestTablesReleasedTwicePanics is the set's half of the borrow clauses:
// a released set pins no program and holds no key, and a second release
// panics, as an arena's does.
func TestTablesReleasedTwicePanics(t *testing.T) {
	d := matmulReLU(64, 64, 64)
	pop := initPop(t, d, 12, 1)
	sigs := ir.NewSigTable()
	defer sigs.Release()
	set := borrowTables(sigs)
	set.record(pop, set.scoreAll(NewSearch(Config{}).pool, sigScorer{}, pop))
	if len(set.cut(4)) == 0 {
		t.Fatal("the cut returned nothing")
	}
	set.release()
	if !emptyTables(set) {
		t.Fatal("a released set still holds programs or keys")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second release did not panic")
		}
	}()
	set.release()
}

// TestRunBorrowedReusesItsTables bounds what a run's bookkeeping costs
// once a set has grown: a second RunBorrowed on the same shape allocates
// its idle-attempter channel (and the channel's buffer), its release
// closure, its result slice and one closure per scored generation, and
// nothing for the tables. Every slot of the population is an elite here,
// so the run makes no child: what children cost (their replay, steps and
// signatures) is bounded by TestProgramPathAllocationCeilings.
func TestRunBorrowedReusesItsTables(t *testing.T) {
	d := matmulReLU(128, 128, 128)
	pop := initPop(t, d, 48, 3)
	for _, s := range pop {
		s.Signature()
	}
	const gens = 3
	search := NewSearch(Config{PopulationSize: len(pop), Generations: gens, EliteCount: len(pop), Seed: 1, Workers: 1})
	run := func() {
		res, release := search.RunBorrowed(d, pop, sigScorer{}, 16)
		if len(res) != 16 {
			t.Fatalf("the run returned %d programs, want 16", len(res))
		}
		release()
	}
	run()
	const want = 4 + gens + 1
	if got := testing.AllocsPerRun(20, run); got > want {
		t.Errorf("a run on a grown set allocates %.0f objects, want at most %d", got, want)
	}
}
