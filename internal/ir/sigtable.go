package ir

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/pool"
)

// SigID is a program's identity in one SigTable: two states have the same
// ID in a table exactly when their signatures are equal. IDs are dense,
// from 0, in the order programs first reach the table. The sharded scorer
// reaches it in parallel, so that order depends on timing: an ID is
// identity, never order. Whatever sorts programs compares Bytes.
type SigID uint32

// SigTable interns program signatures (State.Signature's bytes) for one
// search: the first Intern of a program copies its signature into chunks
// the table owns, and every later Intern of an equal program, however it
// was derived, returns the same SigID without building a string. The
// search's memos and dedupe maps key on the ID.
//
// Tables are borrowed (NewSigTable) and given back (Release) with their
// chunks and map, so a later search interns into memory an earlier one
// grew (DESIGN.md "Program identity"). A table is safe for concurrent
// Intern and Bytes calls.
type SigTable struct {
	// serial names this borrow in the memos states keep (State.sigID):
	// new on every borrow, 0 once released. Every Intern reads it, so it
	// is kept off the cache line of mu, which every miss writes.
	serial uint32
	// m maps a signature, viewed in place in the chunks, to its ID; spans
	// holds each ID's bytes. chunks[cur][off:] is where the next goes.
	m        map[string]SigID
	spans    [][]byte
	chunks   [][]byte
	cur, off int
	lent     bool
	mu       sync.RWMutex
}

const (
	sigChunk = 16 << 10
	// The free list's bounds: a network run holds a table per task
	// (resnet-50 has 24), and a cleared map keeps its buckets.
	sigTablesKept  = 32
	sigTableMaxIDs = 1 << 13
)

var (
	// freeSigTables is where released tables wait (DESIGN.md "Borrowed
	// memory"). Its tests' hook runs on a table once it is cleared.
	freeSigTables = pool.NewFreeList[*SigTable](sigTablesKept)
	sigSerial     atomic.Uint32
)

// NewSigTable borrows an empty table; the caller releases it.
func NewSigTable() *SigTable {
	t, ok := freeSigTables.Borrow()
	if !ok {
		t = &SigTable{m: map[string]SigID{}}
	}
	t.serial, t.lent = sigSerial.Add(2)|1, true // odd: never a released table's 0
	return t
}

// Release clears the table, keeping its chunks and map, and gives it
// back. The caller guarantees that no Intern or Bytes call is in flight
// and that no view Bytes returned is read from here on.
func (t *SigTable) Release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.lent {
		panic("ir: signature table released twice")
	}
	t.lent = false
	seen := len(t.spans)
	t.serial = 0
	clear(t.m)
	clear(t.spans)
	t.spans, t.cur, t.off = t.spans[:0], 0, 0
	freeSigTables.Poison(t)
	freeSigTables.Return(t, seen <= sigTableMaxIDs)
}

// Intern returns the program's ID in the table. The state memoizes it,
// so a program the search asks about again costs one atomic load; a
// program new to the state renders its signature on the stack and costs a
// map lookup, and one new to the table copies it into the chunks.
func (t *SigTable) Intern(s *State) SigID {
	if m := s.sigID.Load(); m != 0 && uint32(m>>32) == t.serial {
		return SigID(m)
	}
	return t.intern(s)
}

func (t *SigTable) intern(s *State) SigID {
	var buf [512]byte
	b := s.appendSignature(buf[:0])
	t.mu.RLock()
	id, ok := t.m[string(b)]
	t.mu.RUnlock()
	if !ok {
		id = t.insert(b)
	}
	s.sigID.Store(uint64(t.serial)<<32 | uint64(id))
	return id
}

func (t *SigTable) insert(b []byte) SigID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.lent {
		panic("ir: signature table used after Release")
	}
	if id, ok := t.m[string(b)]; ok {
		return id // interned by another worker since the lookup
	}
	v := t.carve(len(b))
	copy(v, b)
	id := SigID(len(t.spans))
	t.spans = append(t.spans, v)
	t.m[unsafe.String(unsafe.SliceData(v), len(v))] = id
	return id
}

// carve returns n bytes of the chunks, or of the heap past a chunk's size.
func (t *SigTable) carve(n int) []byte {
	if n > sigChunk {
		return make([]byte, n)
	}
	if t.cur < len(t.chunks) && t.off+n > sigChunk {
		t.cur, t.off = t.cur+1, 0
	}
	if t.cur == len(t.chunks) {
		t.chunks = append(t.chunks, make([]byte, sigChunk))
	}
	v := t.chunks[t.cur][t.off : t.off+n : t.off+n]
	t.off += n
	return v
}

// Bytes returns the signature of id, a view of the table's memory valid
// until its Release: compare it, append it, never write it.
func (t *SigTable) Bytes(id SigID) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.spans[id]
}
