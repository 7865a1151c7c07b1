package anno

import (
	"math/rand"

	"repro/internal/pool"
)

// A Source is a borrowed random source (DESIGN.md "Borrowed memory"):
// rand.NewSource's ~5 KiB generator, reseeded instead of rebuilt. A
// sampler and a policy each draw from one, and Policy.Release gives both
// back.
type Source struct {
	rand.Source64
	lent bool
}

// sourcesKept bounds the free list: a fresh network tune of ResNet-50
// holds two sources for each of its 24 tasks at once.
const sourcesKept = 64

var freeSources = pool.NewFreeList[*Source](sourcesKept)

// BorrowSource returns a source seeded with seed, which draws what
// rand.NewSource(seed) draws: Seed rewrites the whole generator. It is
// the caller's until its Release.
func BorrowSource(seed int64) *Source {
	src, ok := freeSources.Borrow()
	if ok {
		src.Seed(seed)
	} else {
		src = &Source{Source64: rand.NewSource(seed).(rand.Source64)}
	}
	src.lent = true
	return src
}

// Release gives the source back; nothing may draw from it after. It
// panics on a source not lent.
func (src *Source) Release() {
	if !src.lent {
		panic("anno: random source released twice")
	}
	src.lent = false
	freeSources.Poison(src)
	freeSources.Return(src, true)
}
