package ir

import (
	"sync"
	"unsafe"

	"repro/internal/te"
)

// An Arena owns the memory of short-lived programs: the states a search
// round replays, scores and — all but the few it measures — forgets. It
// is one bump allocator per element type over chunks it keeps, so a
// borrower's thousandth replay allocates nothing. A nil *Arena is the heap.
//
// The borrower guarantees one goroutine in an arena at a time, nothing it
// carved reachable after Release (Clone detaches a state), and Release
// exactly once. The arena guarantees that the ranges it hands out between
// two give-backs are disjoint, zeroed, and clipped to their length, so an
// append that outgrows one lands on the heap. Both rely on a state being
// immutable after its last Apply (DESIGN.md "Program memory").
type Arena struct {
	states slab[State]
	ptrs   slab[*Stage]
	stages slab[Stage]
	iters  slab[Iter]
	atoms  slab[IterAtom]
	steps  slab[Step]
	lent   bool
}

const (
	chunkBytes  = 32 << 10 // every chunk of every slab
	arenaChunks = 128      // an arena that grew past this (4 MiB) is not kept
	arenasKept  = 8        // the free list's bound: 32 MiB at the very most
)

// slab is a bump allocator of one element type. Chunks never move, so
// what was carved stays put; chunks[cur][off] is the next free element.
type slab[T any] struct {
	chunks [][]T
	slabPos
}

type slabPos struct{ cur, off int }

// arenaHook is nil outside this package's tests, which poison what is
// given back and keep the arenas' books with it (export_test.go): it sees
// every range carved ('c'), every range given back, already zeroed ('f'),
// and every arena rewound for the free list ('r').
var arenaHook func(op byte, r any)

func (sl *slab[T]) carve(n int) []T {
	var zero T
	size := chunkBytes / int(unsafe.Sizeof(zero))
	if n > size {
		return make([]T, n)
	}
	if sl.off+n > size {
		sl.cur, sl.off = sl.cur+1, 0
	}
	if sl.cur == len(sl.chunks) {
		sl.chunks = append(sl.chunks, make([]T, size))
	}
	out := sl.chunks[sl.cur][sl.off : sl.off+n : sl.off+n]
	sl.off += n
	if arenaHook != nil {
		arenaHook('c', out)
	}
	return out
}

// rewind gives back what was carved since p; it returns the chunk count.
func (sl *slab[T]) rewind(p slabPos) int {
	for c := p.cur; c <= sl.cur && c < len(sl.chunks); c++ {
		r := sl.chunks[c]
		if c == sl.cur {
			r = r[:sl.off]
		}
		if c == p.cur {
			r = r[p.off:]
		}
		clear(r)
		if arenaHook != nil {
			arenaHook('f', r)
		}
	}
	sl.slabPos = p
	return len(sl.chunks)
}

// ArenaMark is a position of an arena to Rewind to.
type ArenaMark [6]slabPos

// Mark returns the arena's position: what is carved later lies beyond it.
func (a *Arena) Mark() ArenaMark {
	if a == nil {
		return ArenaMark{}
	}
	return ArenaMark{a.states.slabPos, a.ptrs.slabPos, a.stages.slabPos, a.iters.slabPos, a.atoms.slabPos, a.steps.slabPos}
}

// Rewind gives back everything carved since m, which dies with it — the
// way out of a replay that failed — and returns the arena's chunk count.
func (a *Arena) Rewind(m ArenaMark) int {
	if a == nil {
		return 0
	}
	return a.states.rewind(m[0]) + a.ptrs.rewind(m[1]) + a.stages.rewind(m[2]) +
		a.iters.rewind(m[3]) + a.atoms.rewind(m[4]) + a.steps.rewind(m[5])
}

// Steps returns a zeroed step list of length n in the arena.
func (a *Arena) Steps(n int) []Step {
	if a == nil {
		return make([]Step, n)
	}
	return a.steps.carve(n)
}

// newIters returns n zeroed loops in the arena.
func newIters(a *Arena, n int) []Iter {
	if a == nil {
		return make([]Iter, n)
	}
	return a.iters.carve(n)
}

// freeArenas is where released arenas wait: a bounded list and no
// sync.Pool, so what a run allocates does not depend on when the collector
// ran. lent counts the arenas out.
var freeArenas struct {
	sync.Mutex
	list []*Arena
	lent int
}

// BorrowArena returns an empty arena, the caller's until its Release.
func BorrowArena() *Arena {
	freeArenas.Lock()
	defer freeArenas.Unlock()
	freeArenas.lent++
	n := len(freeArenas.list)
	if n == 0 {
		return &Arena{lent: true}
	}
	a := freeArenas.list[n-1]
	freeArenas.list = freeArenas.list[:n-1]
	a.lent = true
	return a
}

// Release hands the arena back, zeroed; every state replayed into it is
// dead from here on.
func (a *Arena) Release() {
	if !a.lent {
		panic("ir: arena released twice")
	}
	a.lent = false
	keep := a.Rewind(ArenaMark{}) <= arenaChunks
	if arenaHook != nil {
		arenaHook('r', a)
	}
	freeArenas.Lock()
	defer freeArenas.Unlock()
	freeArenas.lent--
	if keep && len(freeArenas.list) < arenasKept {
		freeArenas.list = append(freeArenas.list, a)
	}
}

// Replay rebuilds a state from a DAG and a step list in the arena's
// memory. This is the verification path used after mutation and crossover
// (§5.1): a step list that replays without error is a valid program. The
// state gets a step slice of its own but shares the step values: a step
// is immutable once a state holds it. A failed replay gives back what it
// carved; its error points at nothing in the arena.
func (a *Arena) Replay(dag *te.DAG, steps []Step) (*State, error) {
	m := a.Mark()
	s := newState(a, dag)
	s.Steps = a.Steps(len(steps))[:0]
	for i, step := range steps {
		if err := s.Apply(step); err != nil {
			a.Rewind(m)
			return nil, errf("ir: replay step %d (%s): %v", i, step.Name(), err)
		}
	}
	return s, nil
}
