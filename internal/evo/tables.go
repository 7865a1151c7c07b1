package evo

import (
	"bytes"
	"slices"

	"repro/internal/ir"
	"repro/internal/pool"
)

// scored is one distinct program a run has seen, with its best score.
// sig is its signature, viewed in the run's table; cut fills it in.
type scored struct {
	s     *ir.State
	id    ir.SigID
	sig   []byte
	score float64
}

// tables is one run's bookkeeping: everything RunBorrowed indexes,
// dedupes and sorts, borrowed from freeTables for the run and cleared on
// the way back (DESIGN.md "The search's tables", invariant T). A proposal
// evolves a few hundred programs through a handful of generations, and
// rebuilding these maps and slices on the heap for each would be a
// quarter of what a tuning run allocates.
type tables struct {
	// sigs is the run's signature table, the scorer's or the run's own.
	// best keys every distinct program seen by its ID there; first is
	// scoreAll's dedupe of one population.
	sigs  *ir.SigTable
	best  map[ir.SigID]scored
	first map[ir.SigID]int
	// The family cut's table: fam maps the hash of a family to the
	// leader that first had it, whose family is famBuf[famEnd[k-1]:famEnd[k]].
	fam    map[uint64]int
	famBuf []byte
	famEnd []int

	all, lead, twins []scored
	scores, uscores  []float64
	ref, idx         []int
	uniq             []*ir.State
	pop, next        []*ir.State
	children         []*ir.State
	cum              []float64

	lent bool
}

const (
	// tablesKept bounds the free list: a proposal runs one search at a
	// time, and a network run prepares at most two proposals at once.
	tablesKept = 4
	// tablesMaxSeen drops a set whose run saw more distinct programs: a
	// cleared map keeps its buckets, and the default search sees about
	// five hundred.
	tablesMaxSeen = 1 << 13
)

// freeTables is where returned sets wait (DESIGN.md "Borrowed memory").
// Its tests' hook takes the place of clearing a returned set.
var freeTables = pool.NewFreeList[*tables](tablesKept)

// borrowTables returns an empty set keyed on sigs, the caller's until its
// release.
func borrowTables(sigs *ir.SigTable) *tables {
	t, ok := freeTables.Borrow()
	if !ok {
		t = &tables{best: map[ir.SigID]scored{}, first: map[ir.SigID]int{}, fam: map[uint64]int{}}
	}
	// A set is cleared when it goes back too; clearing it here as well
	// makes "a borrowed set is empty" hold whatever the list holds.
	t.clear()
	t.sigs, t.lent = sigs, true
	return t
}

// release clears the set, so a waiting set pins no program, and gives it
// back. It panics on a set not lent.
func (t *tables) release() {
	if !t.lent {
		panic("evo: tables released twice")
	}
	t.lent = false
	seen := len(t.best)
	if !freeTables.Poison(t) {
		t.clear()
	}
	freeTables.Return(t, seen <= tablesMaxSeen)
}

// clear empties every table and drops every pointer the buffers hold,
// keeping their memory.
func (t *tables) clear() {
	t.sigs = nil
	clear(t.best)
	clear(t.first)
	clear(t.fam)
	for _, s := range [][]scored{t.all, t.lead, t.twins} {
		clear(s[:cap(s)])
	}
	for _, s := range [][]*ir.State{t.uniq, t.pop, t.next, t.children} {
		clear(s[:cap(s)])
	}
	t.all, t.lead, t.twins = t.all[:0], t.lead[:0], t.twins[:0]
	t.uniq, t.pop, t.next, t.children = t.uniq[:0], t.pop[:0], t.next[:0], t.children[:0]
	t.scores, t.uscores, t.cum = t.scores[:0], t.uscores[:0], t.cum[:0]
	t.ref, t.idx = t.ref[:0], t.idx[:0]
	t.famBuf, t.famEnd = t.famBuf[:0], t.famEnd[:0]
}

// record keys the best map off the program's ID: elites and re-derived
// twins survive across generations, and the state's memo of its ID makes
// each repeat a load.
func (t *tables) record(states []*ir.State, scores []float64) {
	for i, s := range states {
		id := t.sigs.Intern(s)
		if b, ok := t.best[id]; !ok || scores[i] > b.score {
			t.best[id] = scored{s: s, id: id, score: scores[i]}
		}
	}
}

// scoreAll scores one population with within-wave dedupe: twin
// offspring (equal signatures — mutation and crossover keep re-deriving
// the same program from different parents, and elites survive rounds
// verbatim) are scored once and share the result. Scores are pure
// functions of the program under a frozen model, so sharing cannot
// change any value — only skip redundant ensemble walks. Grouping keys
// off the program's ID and first occurrence wins, so the unique
// set and the expanded result are pure functions of the population
// order. The result is the set's until the next call.
func (t *tables) scoreAll(pl *pool.Pool, scorer Scorer, pop []*ir.State) []float64 {
	scores := slices.Grow(t.scores[:0], len(pop))[:len(pop)]
	ref := slices.Grow(t.ref[:0], len(pop))[:len(pop)]
	uniq := t.uniq[:0]
	clear(t.first)
	for i, s := range pop {
		id := t.sigs.Intern(s)
		j, dup := t.first[id]
		if !dup {
			j = len(uniq)
			t.first[id] = j
			uniq = append(uniq, s)
		}
		ref[i] = j
	}
	uscores := scores[:len(uniq)]
	if len(uniq) < len(pop) {
		uscores = slices.Grow(t.uscores[:0], len(uniq))[:len(uniq)]
		t.uscores = uscores
	}
	ScoreAllInto(pl, scorer, uniq, uscores)
	if len(uniq) < len(pop) {
		for i, j := range ref {
			scores[i] = uscores[j]
		}
	}
	t.scores, t.ref, t.uniq = scores, ref, uniq
	return scores
}

// elites appends the top n programs of the population to dst, best
// first.
func (t *tables) elites(dst, pop []*ir.State, scores []float64, n int) []*ir.State {
	idx := t.idx[:0]
	for i := range pop {
		idx = append(idx, i)
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case scores[a] > scores[b]:
			return -1
		case scores[b] > scores[a]:
			return 1
		}
		return 0
	})
	t.idx = idx
	for _, i := range idx[:min(n, len(idx))] {
		dst = append(dst, pop[i])
	}
	return dst
}

// cut returns the top out distinct programs seen, family leaders first.
// Equal scores tie-break on the signature's bytes: neither map iteration
// order nor the order IDs were handed out in may leak into the result
// (the determinism contract of DESIGN.md).
//
// Family-diverse cut: the exact signature distinguishes near-twin
// variants of one loop structure (packed vs. unpacked constant layout)
// that score adjacently, so taking the top `out` verbatim would crowd
// the result with twins and starve distinct structures. Keep the best
// scorer of each structural family first, then fill with the twins —
// both in the deterministic sorted order, so the result is still a pure
// function of the inputs.
func (t *tables) cut(out int) []*ir.State {
	all := t.all[:0]
	for _, b := range t.best {
		b.sig = t.sigs.Bytes(b.id)
		all = append(all, b)
	}
	slices.SortFunc(all, func(a, b scored) int {
		if a.score != b.score {
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return bytes.Compare(a.sig, b.sig)
	})
	lead, twins := t.lead[:0], t.twins[:0]
	for _, b := range all {
		if t.newFamily(b.sig) {
			lead = append(lead, b)
		} else {
			twins = append(twins, b)
		}
	}
	t.all, t.twins = all, twins
	lead = append(lead, twins...)
	t.lead = lead
	res := make([]*ir.State, min(out, len(lead)))
	for i := range res {
		res[i] = lead[i].s
	}
	return res
}

// newFamily reports whether the family of signature sig (ir.AppendFamily)
// has no leader yet, and makes sig its leader if so. Families are found
// by hash and compared byte for byte, so the table allocates nothing once
// its buffers have grown.
func (t *tables) newFamily(sig []byte) bool {
	start := len(t.famBuf)
	t.famBuf = ir.AppendFamily(t.famBuf, sig)
	f := t.famBuf[start:]
	h := uint64(14695981039346656037) // FNV-1a
	for _, c := range f {
		h = (h ^ uint64(c)) * 1099511628211
	}
	seen := false
	if k, ok := t.fam[h]; ok {
		seen = bytes.Equal(t.family(k), f)
		// A hash two families share: compare with every leader.
		for k := 0; !seen && k < len(t.famEnd); k++ {
			seen = bytes.Equal(t.family(k), f)
		}
	} else {
		t.fam[h] = len(t.famEnd)
	}
	if seen {
		t.famBuf = t.famBuf[:start]
		return false
	}
	t.famEnd = append(t.famEnd, len(t.famBuf))
	return true
}

// family returns the family of the k-th leader.
func (t *tables) family(k int) []byte {
	lo := 0
	if k > 0 {
		lo = t.famEnd[k-1]
	}
	return t.famBuf[lo:t.famEnd[k]]
}
