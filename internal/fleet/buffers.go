package fleet

import (
	"encoding/json"

	"repro/internal/pool"
)

// A buffer is one request's borrowed memory (DESIGN.md "Borrowed
// memory"): the bytes read or written, and the slices decoded from them.
// It waits on one of three lists: a submitted job's body, with its
// program lines and first queue; a lease or results request, with the
// results it returns; and a reply, a grant header or job status the
// broker writes or the submitter reads. Nothing is cleared: every piece
// is written before it is read.
type buffer struct {
	b        []byte
	programs []json.RawMessage
	queue    []int
	results  []WorkerResult
	lent     bool
}

// buffers is a list of buffers and the largest b it keeps.
type buffers struct {
	*pool.FreeList[*buffer]
	keep int
}

const (
	// A 64-program job body is ~37 KiB; at most 8 wait, of at most 1 MiB.
	bodiesKept, bodyKeep = 8, 1 << 20
	// A lease request returning 16 results is ~1.2 KiB, a 64-program
	// status ~3 KiB; 32 of each wait, of at most 64 KiB.
	requestsKept, requestKeep = 32, 64 << 10
	repliesKept, replyKeep    = 32, 64 << 10
)

var (
	freeBodies   = buffers{pool.NewFreeList[*buffer](bodiesKept), bodyKeep}
	freeRequests = buffers{pool.NewFreeList[*buffer](requestsKept), requestKeep}
	freeReplies  = buffers{pool.NewFreeList[*buffer](repliesKept), replyKeep}
)

// borrow returns an empty buffer, the caller's until it gives it back.
func (l buffers) borrow() *buffer {
	bf, ok := l.Borrow()
	if !ok {
		bf = &buffer{}
	}
	bf.b, bf.programs, bf.queue, bf.results = bf.b[:0], bf.programs[:0], bf.queue[:0], bf.results[:0]
	bf.lent = true
	return bf
}

// give ends bf's loan; nothing of it may be touched after. It panics on
// a buffer not lent.
func (l buffers) give(bf *buffer) {
	if !bf.lent {
		panic("fleet: buffer given back twice")
	}
	bf.lent = false
	l.Poison(bf)
	l.Return(bf, cap(bf.b) <= l.keep)
}
