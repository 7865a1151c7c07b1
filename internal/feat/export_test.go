package feat

import "math"

// The lifetime tests' side of the feature cache's chunks (DESIGN.md
// "Feature rows", invariant F). None of it is compiled into a
// production binary.

// DrainFreeChunks empties the free list, so what borrows next starts on
// new, zeroed chunks, as in a fresh process.
func DrainFreeChunks() {
	freeChunks.Lock()
	defer freeChunks.Unlock()
	freeChunks.list = nil
}

// PoisonFreeChunks fills every chunk on the free list with NaN and
// returns how many there are: a cache that served a chunk without
// zeroing it, or a reader of rows given back, meets values no extraction
// produces.
func PoisonFreeChunks() int {
	freeChunks.Lock()
	defer freeChunks.Unlock()
	for _, ch := range freeChunks.list {
		for i := range ch {
			ch[i] = math.NaN()
		}
	}
	return len(freeChunks.list)
}
