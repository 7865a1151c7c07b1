package ir

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// The lifetime tests' side of an arena (DESIGN.md "Program memory"): the
// hook that makes a use after Release loud, and the check of the arenas'
// books, in the style of the fleet's checkLeaseTable. None of it is
// compiled into a production binary.

const (
	freedName   = "<freed>"
	freedExtent = -7
)

// freedInts is what a freed factor list holds.
var freedInts = []int{freedExtent}

// scribble overwrites a range an arena took back, in place of the zeros
// it left there: a reader of a dead state meets stages without a node,
// with a name and loop extents that nothing else has, and a reader of a
// dead step meets that name, that extent for every number and that list
// for every factor list.
func scribble(r any) {
	switch r := r.(type) {
	case []Stage:
		for i := range r {
			r[i].Name, r[i].AttachTarget = freedName, freedName
		}
	case []Iter:
		for i := range r {
			r[i].Extent, r[i].atom[0].Extent = freedExtent, freedExtent
		}
	case []int:
		for i := range r {
			r[i] = freedExtent
		}
	case [][]int:
		for i := range r {
			r[i] = freedInts
		}
	default:
		v := reflect.ValueOf(r)
		if v.Len() == 0 {
			return
		}
		if _, ok := v.Index(0).Addr().Interface().(Step); !ok {
			return
		}
		for i := 0; i < v.Len(); i++ {
			e := v.Index(i)
			for f := 0; f < e.NumField(); f++ {
				if p, ok := freedField(e.Field(f).Type()); ok {
					e.Field(f).Set(p)
				}
			}
		}
	}
}

// freedField is what a freed step field of type t holds.
func freedField(t reflect.Type) (reflect.Value, bool) {
	switch {
	case t.Kind() == reflect.String:
		return reflect.ValueOf(freedName).Convert(t), true
	case t.Kind() == reflect.Int:
		return reflect.ValueOf(freedExtent).Convert(t), true
	case t == reflect.TypeOf([]int(nil)):
		return reflect.ValueOf(freedInts), true
	case t == reflect.TypeOf([][]int(nil)):
		return reflect.ValueOf([][]int{freedInts}), true
	}
	return reflect.Value{}, false
}

// isFree reports whether every element of r is as a give-back left it:
// zero, or scribbled over.
func isFree(r any) bool {
	v := reflect.ValueOf(r)
	for i := 0; i < v.Len(); i++ {
		switch e := v.Index(i).Addr().Interface().(type) {
		case *Stage:
			if (e.Name != freedName && e.Name != "") || e.Node != nil || e.Iters != nil || e.fused != nil {
				return false
			}
		case *Iter:
			if (e.Extent != freedExtent && e.Extent != 0) || e.count != 0 || e.atom[0].Axis != 0 {
				return false
			}
		case *int:
			if *e != freedExtent && *e != 0 {
				return false
			}
		case *[]int:
			if *e != nil && (len(*e) != 1 || &(*e)[0] != &freedInts[0]) {
				return false
			}
		case Step:
			s := v.Index(i)
			for f := 0; f < s.NumField(); f++ {
				if p, ok := freedField(s.Field(f).Type()); !s.Field(f).IsZero() &&
					(!ok || fmt.Sprint(s.Field(f)) != fmt.Sprint(p)) {
					return false
				}
			}
		default:
			if !v.Index(i).IsZero() {
				return false
			}
		}
	}
	return true
}

// ArenaBooks counts what the hook saw.
type ArenaBooks struct {
	Carved, Freed, Released atomic.Int64
}

// PoisonArenas switches the lifetime tests' mode on until the test ends:
// whatever an arena takes back — a rewind's range, a Release's everything
// — is scribbled over instead of left zero, and the books are checked at
// every step: a range handed out must be free (no range is handed out
// twice, nothing writes to freed memory), and an arena going back to the
// free list must be free from end to end (nothing outstanding). A
// violation panics where it happens. The free list is emptied on the way
// in and out, so no arena crosses between the modes.
func PoisonArenas(t testing.TB) *ArenaBooks {
	books := new(ArenaBooks)
	drain := func(hook func(byte, any)) {
		if n := freeArenas.Lent(); n != 0 {
			t.Fatalf("%d arenas lent while switching the arena hook", n)
		}
		freeArenas.Drain()
		arenaHook = hook
	}
	drain(func(op byte, r any) {
		switch op {
		case 'c':
			books.Carved.Add(1)
			if !isFree(r) {
				panic(fmt.Sprintf("ir: arena handed out a %T that was not free", r))
			}
			// A carved range is zero, poisoned or not.
			v := reflect.ValueOf(r)
			for i := 0; i < v.Len(); i++ {
				v.Index(i).SetZero()
			}
		case 'f':
			books.Freed.Add(1)
			scribble(r)
		case 'r':
			books.Released.Add(1)
			if err := r.(*Arena).check(true); err != nil {
				panic("ir: arena released: " + err.Error())
			}
		}
	})
	t.Cleanup(func() { drain(nil) })
	return books
}

// check asserts an arena's invariant: every bump point lies inside its
// slab, and everything beyond it is free — with empty set, the whole
// arena is.
func (a *Arena) check(empty bool) error {
	var err error
	for _, sl := range a.slabs() {
		sl.(interface{ check(bool, *error) }).check(empty, &err)
	}
	return err
}

func (sl *slab[T]) check(empty bool, err *error) {
	switch {
	case *err != nil:
	case empty && *sl.slabPos != slabPos{}:
		*err = fmt.Errorf("%T at chunk %d offset %d, want empty", sl, sl.cur, sl.off)
	case sl.cur < 0 || sl.off < 0 || sl.cur > len(sl.chunks) || (sl.cur == len(sl.chunks) && sl.off != 0):
		*err = fmt.Errorf("%T at chunk %d offset %d of %d chunks", sl, sl.cur, sl.off, len(sl.chunks))
	}
	for c := sl.cur; c < len(sl.chunks) && *err == nil; c++ {
		free := sl.chunks[c]
		if c == sl.cur {
			if sl.off > len(free) {
				*err = fmt.Errorf("%T offset %d beyond its chunk of %d", sl, sl.off, len(free))
				return
			}
			free = free[sl.off:]
		}
		if !isFree(free) {
			*err = fmt.Errorf("%T chunk %d is not free beyond the bump point", sl, c)
		}
	}
}

// CheckArenas asserts the invariant of an arena a test holds.
func CheckArenas(as ...*Arena) error {
	for _, a := range as {
		if !a.lent {
			return fmt.Errorf("arena %p is held but not lent", a)
		}
		if err := a.check(false); err != nil {
			return err
		}
	}
	return CheckFreeArenas()
}

// CheckFreeArenas asserts the free list's invariant (pool.FreeList's
// Check) and the arenas' own: none on it lent, each empty and free, none
// past the chunk bound.
func CheckFreeArenas() error {
	err := freeArenas.Check()
	freeArenas.Visit(func(a *Arena) {
		n := 0
		for _, sl := range a.slabs() {
			n += sl.chunkCount()
		}
		switch {
		case err != nil:
		case a.lent:
			err = fmt.Errorf("arena %p is on the free list and lent", a)
		case n > arenaChunks:
			err = fmt.Errorf("free arena keeps %d chunks, bound %d", n, arenaChunks)
		default:
			err = a.check(true)
		}
	})
	return err
}

// FreeArenas and FreeSigTables are the free lists, for their books.
var (
	FreeArenas    = freeArenas
	FreeSigTables = freeSigTables
)

// ArenaChunkBytes and ArenasKept expose the bounds.
const (
	ArenaChunkBytes = chunkBytes
	ArenaChunks     = arenaChunks
	ArenasKept      = arenasKept
)

// freedSig is what a released signature table's chunks hold.
const freedSig = '#'

// PoisonSigTables switches on, until the test ends, a hook that fills a
// signature table's chunks with freedSig as it is released, so a reader
// of a view Bytes handed out, or of a string made over one, meets other
// bytes than the program's. It returns the count of tables poisoned. The
// free list is emptied on the way in and out.
func PoisonSigTables(t testing.TB) *atomic.Int64 {
	var n atomic.Int64
	freeSigTables.Drain()
	freeSigTables.SetPoison(func(st *SigTable) {
		for _, c := range st.chunks {
			for i := range c {
				c[i] = freedSig
			}
		}
		n.Add(1)
	})
	t.Cleanup(func() {
		freeSigTables.Drain()
		freeSigTables.SetPoison(nil)
	})
	return &n
}
