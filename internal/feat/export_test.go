package feat

import "math"

// The lifetime tests' side of the feature cache's chunks (DESIGN.md
// "Feature rows", invariant F). None of it is compiled into a
// production binary.

// FreeChunks is the chunks' free list, for its books.
var FreeChunks = freeChunks

// PoisonFreeChunks fills every chunk on the free list with NaN and
// returns how many there are: a cache that served a chunk without
// zeroing it, or a reader of rows given back, meets values no extraction
// produces.
func PoisonFreeChunks() (n int) {
	freeChunks.Visit(func(ch *[chunkFloats]float64) {
		for i := range ch {
			ch[i] = math.NaN()
		}
		n++
	})
	return n
}
