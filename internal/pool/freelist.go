package pool

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// FreeList is where borrowed memory waits between holders: a bounded
// list, each value lent to one holder at a time (DESIGN.md "Borrowed
// memory"). The borrower touches nothing of a value after its Return;
// the owner clears a value on its way back and passes, as keep, whether
// it is small enough to wait. Not a sync.Pool: every collection empties
// a pool, so what a run allocates would depend on when it ran.
type FreeList[T comparable] struct {
	mu     sync.Mutex
	list   []T
	lent   int
	bound  int
	poison atomic.Pointer[func(T)] // the tests' hook; nil in every binary
}

// NewFreeList returns an empty list that keeps at most bound values.
func NewFreeList[T comparable](bound int) *FreeList[T] {
	return &FreeList[T]{list: make([]T, 0, bound), bound: bound}
}

// Borrow takes the value returned last, or reports false on an empty
// list and the caller makes one. The loan lasts until its Return.
func (f *FreeList[T]) Borrow() (v T, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lent++
	if n := len(f.list); n > 0 {
		v, ok = f.list[n-1], true
		f.list[n-1], f.list = *new(T), f.list[:n-1]
	}
	return v, ok
}

// Return ends a loan: v waits if keep is set and the list is below its
// bound, and is the collector's otherwise. It panics if nothing is lent.
func (f *FreeList[T]) Return(v T, keep bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lent == 0 {
		panic("pool: Return with nothing lent")
	}
	f.lent--
	if keep && len(f.list) < f.bound {
		f.list = append(f.list, v)
	}
}

// Poison runs the tests' hook on v, a value going back, and reports
// whether one is set; the owner calls it in place of its clear, or after.
func (f *FreeList[T]) Poison(v T) bool {
	h := f.poison.Load()
	if h == nil || *h == nil {
		return false
	}
	(*h)(v)
	return true
}

// The tests' side. SetPoison installs Poison's hook (nil removes it).
func (f *FreeList[T]) SetPoison(h func(T)) { f.poison.Store(&h) }

// Drain empties the list, as in a fresh process; loans are untouched.
func (f *FreeList[T]) Drain() {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.list)
	f.list = f.list[:0]
}

// Visit calls fn on every waiting value, under the list's lock: fn
// must not call the list.
func (f *FreeList[T]) Visit(fn func(T)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, v := range f.list {
		fn(v)
	}
}

// Lent returns how many values are borrowed and not returned.
func (f *FreeList[T]) Lent() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lent
}

// Check reports a broken invariant: more values waiting than the bound,
// one waiting twice, or fewer loans than none.
func (f *FreeList[T]) Check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	seen := make(map[T]bool, len(f.list))
	for _, v := range f.list {
		if seen[v] {
			return fmt.Errorf("a %T waits on the free list twice", v)
		}
		seen[v] = true
	}
	if len(f.list) > f.bound || f.lent < 0 {
		return fmt.Errorf("free list of %T holds %d, bound %d, %d lent", *new(T), len(f.list), f.bound, f.lent)
	}
	return nil
}
