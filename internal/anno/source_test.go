package anno

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sketch"
)

// draws is what a sampler or policy reads of its generator: the first n
// values of each kind of draw they make, interleaved.
func draws(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, 0, n)
	for len(out) < n {
		switch len(out) % 4 {
		case 0:
			out = append(out, uint64(r.Int63()))
		case 1:
			out = append(out, r.Uint64())
		case 2:
			out = append(out, uint64(r.Intn(1000)))
		default:
			out = append(out, uint64(r.Float64()*(1<<53)))
		}
	}
	return out
}

// TestReusedSourceDrawsAsFresh: a source that went back to the free list,
// scribbled over there, and is borrowed again under a seed draws the
// first 1 000 values rand.NewSource of that seed draws, and the list
// keeps its books.
func TestReusedSourceDrawsAsFresh(t *testing.T) {
	freeSources.Drain()
	poisoned := 0
	freeSources.SetPoison(func(src *Source) {
		src.Seed(-1)
		src.Int63()
		poisoned++
	})
	defer freeSources.SetPoison(nil)
	lent := freeSources.Lent()
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		want := draws(rand.New(rand.NewSource(seed)), 1000)
		first := BorrowSource(seed)
		if got := draws(rand.New(first.Source64), 1000); !slices.Equal(got, want) {
			t.Fatalf("seed %d: a fresh borrowed source draws another stream", seed)
		}
		first.Release()
		again := BorrowSource(seed)
		if again != first {
			t.Fatalf("seed %d: the source returned last was not lent again", seed)
		}
		if got := draws(rand.New(again.Source64), 1000); !slices.Equal(got, want) {
			t.Fatalf("seed %d: a reused source draws another stream than a fresh one", seed)
		}
		sp := NewSampler(sketch.CPUTarget(), seed)
		if got := draws(sp.rng, 1000); !slices.Equal(got, want) {
			t.Fatalf("seed %d: a sampler over a reused source draws another stream", seed)
		}
		sp.Release()
		again.Release()
	}
	if poisoned != 15 {
		t.Errorf("%d sources scribbled over on their way back, want 15", poisoned)
	}
	if n := freeSources.Lent(); n != lent {
		t.Errorf("%d sources lent after the test, %d before", n, lent)
	}
	if err := freeSources.Check(); err != nil {
		t.Error(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a second Release did not panic")
		}
	}()
	src := BorrowSource(3)
	src.Release()
	src.Release()
}
