package pool

import (
	"sync"
	"testing"
)

type box struct{ n int }

func TestFreeListKeepsAtMostItsBound(t *testing.T) {
	f := NewFreeList[*box](3)
	var held []*box
	for i := 0; i < 5; i++ {
		if _, ok := f.Borrow(); ok {
			t.Fatal("an empty list lent a value")
		}
		held = append(held, &box{i})
	}
	for _, b := range held {
		f.Return(b, true)
		if err := f.Check(); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	f.Visit(func(*box) { n++ })
	if n != 3 {
		t.Fatalf("list holds %d values, want its bound 3", n)
	}
	// The value returned last is lent first; the two past the bound are gone.
	for _, want := range []int{2, 1, 0} {
		if b, ok := f.Borrow(); !ok || b.n != want {
			t.Fatalf("borrowed %v, %v; want box %d", b, ok, want)
		}
	}
	if _, ok := f.Borrow(); ok {
		t.Fatal("a value past the bound was kept")
	}
}

func TestFreeListDropsWhatIsNotKept(t *testing.T) {
	f := NewFreeList[*box](4)
	f.Borrow()
	f.Return(&box{}, false)
	if _, ok := f.Borrow(); ok {
		t.Fatal("a value returned with keep unset was lent again")
	}
	if n := f.Lent(); n != 1 {
		t.Fatalf("%d lent, want 1", n)
	}
}

func TestFreeListLentReturnsToZero(t *testing.T) {
	f := NewFreeList[*box](2)
	var held []*box
	for i := 0; i < 4; i++ {
		b, ok := f.Borrow()
		if !ok {
			b = &box{}
		}
		held = append(held, b)
		if n := f.Lent(); n != i+1 {
			t.Fatalf("%d lent after %d borrows", n, i+1)
		}
	}
	for i, b := range held {
		f.Return(b, i%2 == 0)
	}
	if n := f.Lent(); n != 0 {
		t.Fatalf("%d lent after every value came back", n)
	}
	f.Drain()
	if _, ok := f.Borrow(); ok {
		t.Fatal("a drained list lent a value")
	}
}

func TestFreeListReturnWithNothingLentPanics(t *testing.T) {
	f := NewFreeList[*box](2)
	defer func() {
		if recover() == nil {
			t.Fatal("Return with nothing lent did not panic")
		}
	}()
	f.Return(&box{}, true)
}

func TestFreeListCheckFindsAValueTwice(t *testing.T) {
	f := NewFreeList[*box](4)
	b := &box{}
	f.Borrow()
	f.Borrow()
	f.Return(b, true)
	f.Return(b, true)
	if f.Check() == nil {
		t.Fatal("Check passed a list that holds one value twice")
	}
}

func TestFreeListPoisonRunsTheHook(t *testing.T) {
	f := NewFreeList[*box](1)
	if f.Poison(&box{}) {
		t.Fatal("Poison reported a hook that is not set")
	}
	f.SetPoison(func(b *box) { b.n = -1 })
	b := &box{}
	if !f.Poison(b) || b.n != -1 {
		t.Fatal("Poison did not run the hook")
	}
	f.SetPoison(nil)
	if f.Poison(&box{}) {
		t.Fatal("Poison ran a removed hook")
	}
}

// TestFreeListConcurrentBorrowReturn lends values to several goroutines
// at once: no value is held by two of them, and the books close at zero.
func TestFreeListConcurrentBorrowReturn(t *testing.T) {
	f := NewFreeList[*box](4)
	var held sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b, ok := f.Borrow()
				if !ok {
					b = &box{}
				}
				if _, twice := held.LoadOrStore(b, true); twice {
					t.Error("a value was lent to two holders at once")
					return
				}
				b.n++
				held.Delete(b)
				f.Return(b, i%7 != 0)
			}
		}()
	}
	wg.Wait()
	if n := f.Lent(); n != 0 {
		t.Fatalf("%d lent after every goroutine returned its values", n)
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}
