package ir

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/te"
)

// arenaPrograms is a handful of step lists over one DAG: tiled and fused, with
// fuses (spill growth), a split and a reorder (the carving steps), and a
// stage-inserting cache write, whose stage and loops are carved too.
func arenaPrograms() [][]Step {
	tile := &MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS",
		SpaceFactors: [][]int{{4, 2, 2}, {2, 4, 2}}, ReduceFactors: [][]int{{8}}}
	return [][]Step{
		{tile, &FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 2},
			&FuseStep{Stage: "relu", First: 0, Count: 4}, &FuseStep{Stage: "relu", First: 1, Count: 2},
			&AnnotateStep{Stage: "relu", IterIdx: 0, Ann: AnnParallel}, &PragmaStep{Stage: "matmul", AutoUnrollMax: 64}},
		{&SplitStep{Stage: "matmul", IterIdx: 0, Factors: []int{8, 2}}, &SplitStep{Stage: "matmul", IterIdx: 3, Factors: []int{2}},
			&FuseStep{Stage: "matmul", First: 0, Count: 2}, &ReorderStep{Stage: "matmul", Perm: []int{0, 2, 1, 4, 3}}},
		{&CacheWriteStep{Stage: "matmul"}, &MultiLevelTileStep{Stage: "matmul.cache", Structure: "SSRSRS",
			SpaceFactors: [][]int{{4, 2, 2}, {2, 4, 2}}, ReduceFactors: [][]int{{8}}},
			&FuseConsumerStep{Producer: "matmul.cache", Consumer: "matmul", OuterLevels: 1}},
		{tile, &LayoutRewriteStep{Stage: "matmul"}, &AnnotateStep{Stage: "matmul", IterIdx: 9, Ann: AnnVectorize}},
	}
}

// render is everything a reader can see of a state: signatures, the
// printed nest, and every loop and stride coefficient of its lowering.
func render(t *testing.T, s *State) string {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	low, err := Lower(s)
	if err != nil {
		t.Fatal(err)
	}
	out := s.Signature() + "\n" + string(AppendFamily(nil, s.Signature())) + "\n" + s.Print()
	for i := range low.Stmts {
		st := &low.Stmts[i]
		out += st.Stage.Name
		for _, l := range st.Loops {
			out += fmt.Sprintf(" %s/%s:%d", l.Owner.Name, l.Name(), l.Extent)
		}
		for _, a := range append([]FlatAccess{*st.Write}, st.Reads...) {
			out += fmt.Sprintf(" %s%v", a.Tensor.Name, a.Coeff)
		}
		out += "\n"
	}
	return out
}

// TestArenaReplayEqualsHeap: a program replayed into an arena, the heap
// clone of that, and the heap replay read the same; and again after the
// arena went through the free list and other programs used its chunks.
func TestArenaReplayEqualsHeap(t *testing.T) {
	for _, poisoned := range []bool{false, true} {
		if poisoned {
			PoisonArenas(t)
		}
		dag := matmulReLU(64, 64, 64)
		progs := arenaPrograms()
		var want []string
		for _, steps := range progs {
			s, err := Replay(dag, steps)
			if err != nil {
				t.Fatal(err)
			}
			if s.InArena() {
				t.Fatal("heap replay is in an arena")
			}
			want = append(want, render(t, s))
		}
		for round := 0; round < 3; round++ {
			a := BorrowArena()
			var clones []*State
			for k := range progs {
				i := (k + round) % len(progs) // another program first into the same chunks
				s, err := a.Replay(dag, progs[i])
				if err != nil {
					t.Fatal(err)
				}
				if !s.InArena() {
					t.Fatal("arena replay is on the heap")
				}
				if got := render(t, s); got != want[i] {
					t.Fatalf("round %d program %d: arena replay reads\n%s\nheap replay\n%s", round, i, got, want[i])
				}
				c := s.Clone()
				if c.InArena() {
					t.Fatal("clone of an arena state is in the arena")
				}
				clones = append(clones, c)
				if err := CheckArenas(a); err != nil {
					t.Fatal(err)
				}
			}
			a.Release()
			if err := CheckFreeArenas(); err != nil {
				t.Fatal(err)
			}
			// The clones outlive the arena.
			for k, c := range clones {
				if got := render(t, c); got != want[(k+round)%len(progs)] {
					t.Fatalf("round %d: clone %d changed with its arena's release", round, k)
				}
			}
		}
		if n := FreeArenas.Lent(); n != 0 {
			t.Fatalf("%d arenas still lent", n)
		}
	}
}

// TestArenaFailedReplayRewinds: a replay that fails leaves every bump
// offset where it was, and its error — rendered lazily — reads the same
// after the rewind and after the arena's release as it does on the heap.
func TestArenaFailedReplayRewinds(t *testing.T) {
	PoisonArenas(t)
	dag := matmulReLU(64, 64, 64)
	good := arenaPrograms()[0]
	bad := [][]Step{
		append(append([]Step(nil), good...), &SplitStep{Stage: "relu", IterIdx: 0, Factors: []int{2}}), // fused iter, named
		append(append([]Step(nil), good[:2]...), &FuseStep{Stage: "relu", First: 1, Count: 5}),         // crosses attach point
		{good[0], &SplitStep{Stage: "matmul", IterIdx: 0, Factors: []int{3}}},                          // factors, extent, name
		{good[0], good[0]}, // already transformed
		{&MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS", SpaceFactors: [][]int{{4, 2}, {2, 4, 2}}}}, // nested error
		{good[0], &FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 9}},
	}
	a := BorrowArena()
	if _, err := a.Replay(dag, good); err != nil {
		t.Fatal(err)
	}
	var errs []error
	var want []string
	for i, steps := range bad {
		_, herr := Replay(dag, steps)
		if herr == nil {
			t.Fatalf("bad program %d replays", i)
		}
		// Once with the heap's steps, once with copies in the arena, whose
		// lists the error must not keep.
		copies := make([]Step, len(steps))
		for k, st := range steps {
			copies[k] = a.CopyStep(st)
		}
		for _, steps := range [][]Step{steps, copies} {
			before := a.Mark()
			s, err := a.Replay(dag, steps)
			if s != nil || err == nil {
				t.Fatalf("bad program %d replays into the arena", i)
			}
			if a.Mark() != before {
				t.Fatalf("bad program %d moved the arena: %v, was %v", i, a.Mark(), before)
			}
			if err := CheckArenas(a); err != nil {
				t.Fatal(err)
			}
			if err.Error() != herr.Error() {
				t.Fatalf("arena replay fails with %q, heap replay with %q", err, herr)
			}
			errs, want = append(errs, err), append(want, herr.Error())
		}
	}
	a.Release()
	b := BorrowArena() // the same chunks, in other hands
	if _, err := b.Replay(dag, arenaPrograms()[1]); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err.Error() != want[i] {
			t.Errorf("error %d reads %q after its arena's release, %q before", i, err, want[i])
		}
	}
	b.Release()
}

// TestArenaCopyStep: every step kind has a slab, and a copy — in an
// arena or on the heap — encodes to its original's bytes, a nil list
// null and an empty one [], with lists of its own.
func TestArenaCopyStep(t *testing.T) {
	PoisonArenas(t)
	steps := slices.Concat(arenaPrograms()...)
	for _, proto := range stepKinds {
		steps = append(steps, proto)
	}
	steps = append(steps,
		&MultiLevelTileStep{Stage: "m", Structure: "SSRS", SpaceFactors: [][]int{{2, 2}, {4, 1}}, ReduceFactors: [][]int{{}}},
		&MultiLevelTileStep{Stage: "m", Structure: "SS", SpaceFactors: [][]int{nil, {}}, ReduceFactors: [][]int{}},
		&SplitStep{Stage: "m", Factors: []int{}}, &ReorderStep{Stage: "m", Perm: []int{1, 0}})
	a := BorrowArena()
	defer a.Release()
	for _, arena := range []*Arena{a, nil} {
		for i, s := range steps {
			before := a.Mark()
			c := arena.CopyStep(s)
			if moved := a.Mark() != before; moved != (arena != nil) {
				t.Fatalf("step %d (%s): copy into arena %v moved the arena: %v", i, s.Name(), arena != nil, moved)
			}
			want, _ := EncodeSteps([]Step{s})
			got, err := EncodeSteps([]Step{c})
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("step %d: copy encodes to %s (%v), original to %s", i, got, err, want)
			}
			var sbuf, cbuf [4]field
			for k, f := range stepFields(c, &cbuf) {
				if l, ok := f.ptr.(*[]int); ok && len(*l) > 0 && &(*l)[0] == &(*stepFields(s, &sbuf)[k].ptr.(*[]int))[0] {
					t.Fatalf("step %d: the copy shares its %s list", i, f.name)
				}
			}
		}
	}
	if err := CheckArenas(a); err != nil {
		t.Fatal(err)
	}
}

// TestArenaRangesAreClipped: a carved range ends at its length, so the
// append that outgrows it moves to the heap and leaves the neighbour alone;
// a request larger than a chunk is the heap's from the start.
func TestArenaRangesAreClipped(t *testing.T) {
	PoisonArenas(t)
	a := BorrowArena()
	defer a.Release()
	x, y := a.Steps(3), a.Steps(2)
	if cap(x) != 3 || &x[0] == &y[0] {
		t.Fatalf("carved 3 steps with capacity %d, or twice", cap(x))
	}
	step := &InlineStep{Stage: "s"}
	grown := append(x, step)
	if y[0] != nil || &grown[0] == &x[0] {
		t.Fatal("append past a carved range wrote into the arena")
	}
	big := a.Steps(ArenaChunkBytes) // far more than one chunk holds
	before := a.Mark()
	big[len(big)-1] = step
	if a.Mark() != before || a.steps.cur != 0 {
		t.Fatal("oversize request moved the arena")
	}
	// Chunks fill and follow one another; what was carved stays put.
	first := &x[0]
	for i := 0; i < 3*ArenaChunkBytes/int(unsafe.Sizeof(Step(nil)))/7; i++ {
		r := a.Steps(7)
		r[0], r[6] = step, step
	}
	if a.steps.cur < 2 || first != &x[0] || x[0] != nil {
		t.Fatalf("slab at chunk %d after three chunks' worth", a.steps.cur)
	}
	if err := CheckArenas(a); err != nil {
		t.Fatal(err)
	}
}

// TestArenaFreeListIsBounded: Release twice panics; the free list keeps at
// most ArenasKept arenas and none that outgrew ArenaChunks.
func TestArenaFreeListIsBounded(t *testing.T) {
	PoisonArenas(t)
	var as []*Arena
	for i := 0; i < ArenasKept+3; i++ {
		a := BorrowArena()
		a.Steps(1)
		as = append(as, a)
	}
	if n := FreeArenas.Lent(); n != len(as) {
		t.Fatalf("%d arenas lent, borrowed %d", n, len(as))
	}
	huge := as[0]
	for huge.Mark()[5].cur <= ArenaChunks {
		huge.Steps(ArenaChunkBytes / int(unsafe.Sizeof(Step(nil))))
	}
	for _, a := range as {
		a.Release()
		if err := CheckFreeArenas(); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	freeArenas.Visit(func(a *Arena) {
		n++
		if a == huge {
			t.Error("an arena past the chunk bound went back to the free list")
		}
	})
	if n != ArenasKept {
		t.Errorf("free list holds %d arenas, want its bound %d", n, ArenasKept)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Release did not panic")
			}
		}()
		as[1].Release()
	}()
	// A borrowed arena comes off the list, the last one released first.
	if b := BorrowArena(); b != as[ArenasKept] {
		t.Errorf("borrowed %p, want the arena released last into the list %p", b, as[ArenasKept])
	} else {
		b.Release()
	}
}

// TestPoisonMakesUseAfterReleaseLoud pins the hook itself: a state read
// after its arena's release does not read as the program it was.
func TestPoisonMakesUseAfterReleaseLoud(t *testing.T) {
	books := PoisonArenas(t)
	dag := matmulReLU(64, 64, 64)
	a := BorrowArena()
	s, err := a.Replay(dag, arenaPrograms()[0])
	if err != nil {
		t.Fatal(err)
	}
	stage := s.Stages[0]
	a.Release()
	if stage.Name != freedName || stage.Node != nil {
		t.Errorf("released stage reads name %q node %v", stage.Name, stage.Node)
	}
	if books.Carved.Load() == 0 || books.Freed.Load() == 0 || books.Released.Load() != 1 {
		t.Errorf("hook saw %d carves, %d give-backs, %d releases", books.Carved.Load(), books.Freed.Load(), books.Released.Load())
	}
	// And a write to freed memory is caught when the range goes out again.
	stage.Node = dag.Nodes[0]
	b := BorrowArena()
	defer func() {
		if recover() == nil {
			t.Error("a range written to after its release was handed out unnoticed")
		}
		stage.Node = nil
		b.Release()
	}()
	_, _ = b.Replay(dag, arenaPrograms()[0])
}

// TestReplayEncodedIsDecodeThenReplay: replaying step bytes as they are
// parsed reads, on the heap and in a poisoned arena, as DecodeSteps then
// Replay does — the same program, steps and signature, or the same error,
// a list that does not decode winning over a step that does not apply
// before it — and a failure gives the arena back whole.
func TestReplayEncodedIsDecodeThenReplay(t *testing.T) {
	PoisonArenas(t)
	dag := matmulReLU(64, 64, 64)
	var lists [][]byte
	for _, steps := range arenaPrograms() {
		enc, err := EncodeSteps(steps)
		if err != nil {
			t.Fatal(err)
		}
		open := enc[:len(enc)-1]
		lists = append(lists, enc,
			slices.Concat(open, []byte(`,{"kind":"Split","data":{"Stage":"matmul","IterIdx":0,"Factors":[3]}}]`)), // does not apply
			slices.Concat(open, []byte(`,{"kind":"Inline","data":{"Stage":"relu"}},{"kind":"Bogus"}]`)),           // then does not decode
			bytes.ReplaceAll(enc, []byte(`,"`), []byte(` , "`)))                                                   // another layout
	}
	for _, s := range decodeSeeds {
		lists = append(lists, []byte(s))
	}
	a := BorrowArena()
	defer a.Release()
	var outcomes [3]int
	for _, data := range lists {
		outcomes[checkReplayEncoded(t, dag, a, data)]++
	}
	if outcomes[0] == 0 || outcomes[1] == 0 || outcomes[2] == 0 {
		t.Errorf("%d lists replay, %d do not apply, %d do not decode: want some of each", outcomes[0], outcomes[1], outcomes[2])
	}
}

// checkReplayEncoded holds ReplayEncoded of data, on the heap and in a,
// to DecodeSteps then Replay, and returns 0 when data replays, 1 when it
// decodes and does not apply, 2 when it does not decode.
func checkReplayEncoded(t *testing.T, dag *te.DAG, a *Arena, data []byte) int {
	t.Helper()
	var ws *State
	steps, werr := DecodeSteps(data)
	if werr == nil {
		ws, werr = Replay(dag, steps)
	}
	for _, arena := range []*Arena{nil, a} {
		before := arena.Mark()
		s, err := arena.ReplayEncoded(dag, data)
		switch {
		case werr != nil:
			if s != nil || err == nil || err.Error() != werr.Error() {
				t.Fatalf("%q: ReplayEncoded gives %v, %v; DecodeSteps then Replay: %v", data, s, err, werr)
			}
			if errors.Is(err, ErrDecodeSteps) != (steps == nil) {
				t.Fatalf("%q: %v is told apart as a decode error: %v", data, err, errors.Is(err, ErrDecodeSteps))
			}
			if arena.Mark() != before {
				t.Fatalf("%q: a failed replay moved the arena", data)
			}
		case err != nil:
			t.Fatalf("%q: ReplayEncoded fails (%v), DecodeSteps then Replay does not", data, err)
		case s.InArena() != (arena != nil) || !reflect.DeepEqual(s.Steps, ws.Steps) ||
			s.Signature() != ws.Signature() || s.Print() != ws.Print():
			t.Fatalf("%q: ReplayEncoded reads\n%s\nDecodeSteps then Replay\n%s", data, s.Print(), ws.Print())
		}
		if err := CheckArenas(a); err != nil {
			t.Fatal(err)
		}
	}
	a.Rewind(ArenaMark{})
	switch {
	case steps == nil:
		return 2
	case werr != nil:
		return 1
	}
	return 0
}
