package ir

import (
	"unsafe"

	"repro/internal/pool"
	"repro/internal/te"
)

// An Arena owns the memory of short-lived programs: the states a search
// round replays, scores and — all but the few it measures — forgets, and
// the steps it samples, mutates or decodes for them. It is one bump
// allocator per element type over chunks it keeps, so a borrower's
// thousandth replay allocates nothing. A nil *Arena is the heap.
//
// The borrower guarantees one goroutine in an arena at a time, nothing it
// carved reachable after Release (Clone detaches a state and its steps),
// and Release exactly once. The arena guarantees that the ranges it hands
// out between two give-backs are disjoint, zeroed, and clipped to their
// length, so an append that outgrows one lands on the heap. Both rely on
// a state being immutable after its last Apply (DESIGN.md "Program
// memory").
type Arena struct {
	states slab[State]
	ptrs   slab[*Stage]
	stages slab[Stage]
	iters  slab[Iter]
	atoms  slab[IterAtom]
	steps  slab[Step]
	// The step values the sampler, evolution and the step decoder make,
	// one slab per kind, and their tile-factor lists.
	ints         slab[int]
	lists        slab[[]int]
	inlines      slab[InlineStep]
	splits       slab[SplitStep]
	fuses        slab[FuseStep]
	reorders     slab[ReorderStep]
	annotates    slab[AnnotateStep]
	pragmas      slab[PragmaStep]
	layouts      slab[LayoutRewriteStep]
	tiles        slab[MultiLevelTileStep]
	fuseCons     slab[FuseConsumerStep]
	cacheWrites  slab[CacheWriteStep]
	rfactors     slab[RFactorStep]
	computeAts   slab[ComputeAtStep]
	computeRoots slab[ComputeRootStep]
	// at holds every slab's position, in slabs' order, so that a mark is
	// one copy and a rewind that has nothing to give back one compare.
	at   ArenaMark
	lent bool
}

// slabs lists the arena's slabs in ArenaMark's order.
func (a *Arena) slabs() [arenaSlabs]anySlab {
	return [arenaSlabs]anySlab{&a.states, &a.ptrs, &a.stages, &a.iters, &a.atoms, &a.steps,
		&a.ints, &a.lists, &a.inlines, &a.splits, &a.fuses, &a.reorders, &a.annotates, &a.pragmas,
		&a.layouts, &a.tiles, &a.fuseCons, &a.cacheWrites, &a.rfactors, &a.computeAts, &a.computeRoots}
}

const arenaSlabs = 21

// anySlab is a slab of any element type, as Rewind and Release see it.
type anySlab interface {
	bind(at *slabPos)
	rewind(p slabPos)
	chunkCount() int
}

const (
	chunkBytes  = 32 << 10 // every chunk of every slab
	arenaChunks = 128      // an arena that grew past this (4 MiB) is not kept
	arenasKept  = 8        // the free list's bound: 32 MiB at the very most
)

// slab is a bump allocator of one element type. Chunks never move, so
// what was carved stays put; chunks[cur][off] is the next free element.
// Its position is the arena's (Arena.at).
type slab[T any] struct {
	chunks [][]T
	*slabPos
}

type slabPos struct{ cur, off int }

func (sl *slab[T]) bind(at *slabPos) { sl.slabPos = at }

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

func (sl *slab[T]) chunkCount() int { return len(sl.chunks) }

// rewind gives back what was carved since p.
func (sl *slab[T]) rewind(p slabPos) {
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
	*sl.slabPos = p
}

// ArenaMark is a position of an arena to Rewind to.
type ArenaMark [arenaSlabs]slabPos

// Mark returns the arena's position: what is carved later lies beyond it.
func (a *Arena) Mark() ArenaMark {
	if a == nil {
		return ArenaMark{}
	}
	return a.at
}

// Rewind gives back everything carved since m, which dies with it — the
// way out of a replay that failed. Only the slabs that moved are rewound:
// walking all of them on every call made an evolution run about 14 %
// slower.
func (a *Arena) Rewind(m ArenaMark) {
	if a == nil || a.at == m {
		return
	}
	for i, sl := range a.slabs() {
		if m[i] != a.at[i] {
			sl.rewind(m[i])
		}
	}
}

// Steps returns a zeroed step list of length n in the arena.
func (a *Arena) Steps(n int) []Step {
	if a == nil {
		return make([]Step, n)
	}
	return a.steps.carve(n)
}

// newStage returns a zeroed stage in the arena.
func newStage(a *Arena) *Stage {
	if a == nil {
		return new(Stage)
	}
	return &a.stages.carve(1)[0]
}

// newIters returns n zeroed loops in the arena.
func newIters(a *Arena, n int) []Iter {
	if a == nil {
		return make([]Iter, n)
	}
	return a.iters.carve(n)
}

// Ints returns n zeroed ints in the arena: a tile-factor list.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.ints.carve(n)
}

// Lists returns n nil factor lists in the arena.
func (a *Arena) Lists(n int) [][]int {
	if a == nil {
		return make([][]int, n)
	}
	return a.lists.carve(n)
}

// copyInts returns a copy of l in the arena: nil for nil, empty for empty.
func (a *Arena) copyInts(l []int) []int {
	if l == nil {
		return nil
	}
	return append(a.Ints(len(l))[:0], l...)
}

// NewStep returns a step holding v in the arena's memory (the heap's for
// a nil arena). Its lists are v's: the caller carves those (Ints, Lists).
func NewStep[T any, P interface {
	*T
	Step
}](a *Arena, v T) P {
	var p *T
	if sl := stepSlab[T](a); sl != nil {
		p = &sl.carve(1)[0]
	} else {
		p = new(T)
	}
	*p = v
	return P(p)
}

// stepSlab returns the arena's slab of steps of type T; nil for a nil
// arena or a step type of another package.
func stepSlab[T any](a *Arena) *slab[T] {
	if a == nil {
		return nil
	}
	var sl any
	switch any((*T)(nil)).(type) {
	case *InlineStep:
		sl = &a.inlines
	case *SplitStep:
		sl = &a.splits
	case *FuseStep:
		sl = &a.fuses
	case *ReorderStep:
		sl = &a.reorders
	case *AnnotateStep:
		sl = &a.annotates
	case *PragmaStep:
		sl = &a.pragmas
	case *LayoutRewriteStep:
		sl = &a.layouts
	case *MultiLevelTileStep:
		sl = &a.tiles
	case *FuseConsumerStep:
		sl = &a.fuseCons
	case *CacheWriteStep:
		sl = &a.cacheWrites
	case *RFactorStep:
		sl = &a.rfactors
	case *ComputeAtStep:
		sl = &a.computeAts
	case *ComputeRootStep:
		sl = &a.computeRoots
	}
	out, _ := sl.(*slab[T])
	return out
}

// CopyStep returns a copy of s whose value and lists are the arena's (the
// heap's for a nil arena), every list as it was, a nil one nil and an
// empty one empty: a copy encodes to the bytes of its original. A step of
// a type of another package is returned as it is: no arena carves one,
// and a step is immutable once a state holds it.
func (a *Arena) CopyStep(s Step) Step {
	switch t := s.(type) {
	case *InlineStep:
		return NewStep(a, *t)
	case *SplitStep:
		c := NewStep(a, *t)
		c.Factors = a.copyInts(t.Factors)
		return c
	case *FuseStep:
		return NewStep(a, *t)
	case *ReorderStep:
		c := NewStep(a, *t)
		c.Perm = a.copyInts(t.Perm)
		return c
	case *AnnotateStep:
		return NewStep(a, *t)
	case *PragmaStep:
		return NewStep(a, *t)
	case *LayoutRewriteStep:
		return NewStep(a, *t)
	case *MultiLevelTileStep:
		c := NewStep(a, *t)
		c.SpaceFactors = a.copyLists(t.SpaceFactors)
		c.ReduceFactors = a.copyLists(t.ReduceFactors)
		return c
	case *FuseConsumerStep:
		return NewStep(a, *t)
	case *CacheWriteStep:
		return NewStep(a, *t)
	case *RFactorStep:
		return NewStep(a, *t)
	case *ComputeAtStep:
		return NewStep(a, *t)
	case *ComputeRootStep:
		return NewStep(a, *t)
	}
	return s
}

// copyLists returns a copy of ls and its lists in the arena.
func (a *Arena) copyLists(ls [][]int) [][]int {
	if ls == nil {
		return nil
	}
	out := a.Lists(len(ls))
	for i, l := range ls {
		out[i] = a.copyInts(l)
	}
	return out
}

// freeArenas is where released arenas wait (DESIGN.md "Borrowed memory").
var freeArenas = pool.NewFreeList[*Arena](arenasKept)

// BorrowArena returns an empty arena, the caller's until its Release.
func BorrowArena() *Arena {
	a, ok := freeArenas.Borrow()
	if !ok {
		a = &Arena{}
		for i, sl := range a.slabs() {
			sl.bind(&a.at[i])
		}
	}
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
	a.Rewind(ArenaMark{})
	if arenaHook != nil {
		arenaHook('r', a)
	}
	chunks := 0
	for _, sl := range a.slabs() {
		chunks += sl.chunkCount()
	}
	freeArenas.Return(a, chunks <= arenaChunks)
}

// Replay rebuilds a state from a DAG and a step list in the arena's
// memory. This is the verification path used after mutation and crossover
// (§5.1): a step list that replays without error is a valid program. The
// state gets a step slice of its own, as long as steps and with its
// capacity — the sampler reserves the room of the steps it appends after
// the replay there — but shares the step values: a step is immutable once
// a state holds it. A failed replay gives back what it carved; its error
// points at nothing in the arena.
func (a *Arena) Replay(dag *te.DAG, steps []Step) (*State, error) {
	m := a.Mark()
	s := newState(a, dag)
	s.Steps = a.Steps(cap(steps))[:0]
	for i, step := range steps {
		if err := s.Apply(step); err != nil {
			a.Rewind(m)
			return nil, &replayError{i, step.Name(), err}
		}
	}
	return s, nil
}
