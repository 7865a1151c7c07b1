package evo

import (
	"math"
	"sync/atomic"

	"repro/internal/ir"
)

// The lifetime tests' side of the search's tables (DESIGN.md "The
// search's tables", invariant T). None of it is compiled into a
// production binary.

// DrainFreeTables empties the free list, so the next run borrows a new
// set, as in a fresh process.
func DrainFreeTables() {
	freeTables.Lock()
	defer freeTables.Unlock()
	freeTables.list = nil
}

// PoisonReturnedTables makes every set that goes back to the free list,
// until the returned function is called, keep its signatures as keys and
// fill the rest with what no run produces: NaN scores, a state of another
// DAG, stale indices and hashes. A run that read a borrowed set before
// writing it would meet them. stop returns how many sets it poisoned.
func PoisonReturnedTables() (stop func() int) {
	junk := ir.NewState(matmulReLU(8, 8, 8))
	var n atomic.Int64
	tablesHook = func(t *tables) {
		poisonTables(t, junk)
		n.Add(1)
	}
	return func() int {
		tablesHook = nil
		return int(n.Load())
	}
}

func poisonTables(t *tables, junk *ir.State) {
	nan := math.NaN()
	for sig := range t.best {
		t.best[sig] = scored{junk, sig, nan}
	}
	for sig := range t.first {
		t.first[sig] = 0
	}
	for h := range t.fam {
		t.fam[h] = 0
	}
	t.famBuf = append(t.famBuf[:0], "junk"...)
	t.famEnd = append(t.famEnd[:0], len(t.famBuf))
	for _, s := range []*[]scored{&t.all, &t.lead, &t.twins} {
		*s = append((*s)[:0], scored{junk, "junk", nan})
	}
	for _, s := range []*[]*ir.State{&t.uniq, &t.pop, &t.next, &t.children} {
		*s = append((*s)[:0], junk)
	}
	for _, s := range []*[]float64{&t.scores, &t.uscores, &t.cum} {
		*s = append((*s)[:0], nan)
	}
	for _, s := range []*[]int{&t.ref, &t.idx} {
		*s = append((*s)[:0], 0)
	}
}
