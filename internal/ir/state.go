// Package ir implements Ansor's program representation: a loop state per
// computation stage, plus a replayable list of transform steps.
//
// Every program Ansor considers is "the naive program of a DAG plus an
// ordered list of rewriting steps" (§5.1: "the genes of a program in Ansor
// are its rewriting steps"). States are only ever built by replaying steps,
// which is what makes evolutionary crossover and mutation well-defined:
// operators edit the step list and the system re-derives (and re-validates)
// the loop nest from scratch.
package ir

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/te"
)

// Annotation marks how a loop is executed.
type Annotation int

const (
	AnnNone Annotation = iota
	AnnParallel
	AnnVectorize
	AnnUnroll
)

func (a Annotation) String() string {
	switch a {
	case AnnParallel:
		return "parallel"
	case AnnVectorize:
		return "vectorize"
	case AnnUnroll:
		return "unroll"
	default:
		return "for"
	}
}

// Unfilled is the extent of a tile loop whose size has not been chosen yet.
// Sketches contain Unfilled extents; complete programs do not (§4).
const Unfilled = -1

// mulExt multiplies extents, propagating Unfilled.
func mulExt(a, b int) int {
	if a == Unfilled || b == Unfilled {
		return Unfilled
	}
	return a * b
}

// IterAtom identifies one tile piece of one original axis: which axis, at
// which tile level (level 0 is outermost), with which extent.
type IterAtom struct {
	Axis   int // index into the stage node's Axes()
	Level  int
	Extent int
	name   loopName
}

// loopName is an atom's display name in compact form: the axis name
// followed by up to four dotted suffixes, one byte each, first suffix in
// the low byte ("i" = 0, "i.2" = 3, "i.1.0" = 1<<8|2, "i.in" = 0xff).
// Names exist for people — Print and diagnostics — and nothing keys on
// them, so a loop carries this code instead of a string and the text is
// only built where somebody reads it. A fifth suffix does not fit and one
// past 253 is clamped: such names stop being unique, nothing else.
type loopName uint32

// nameInner names a fused consumer's per-axis inner loop, "i.in".
const nameInner loopName = 0xff

// with returns the name extended by the suffix ".k".
func (n loopName) with(k int) loopName {
	for shift := 0; shift < 32; shift += 8 {
		if n>>shift&0xff == 0 {
			return n | loopName(min(k, 253)+1)<<shift
		}
	}
	return n
}

// appendTo renders the name of a loop over the given axis.
func (n loopName) appendTo(b []byte, axis string) []byte {
	b = append(b, axis...)
	for ; n&0xff != 0; n >>= 8 {
		if n&0xff == nameInner {
			b = append(b, ".in"...)
		} else {
			b = strconv.AppendInt(append(b, '.'), int64(n&0xff)-1, 10)
		}
	}
	return b
}

// Iter is one loop of a stage's loop nest, stored by value in its stage.
// A plain loop carries its single atom inline; a fused loop keeps its
// atoms, outer to inner, in the stage's spill slab (Stage.Atoms returns
// either).
type Iter struct {
	Extent int
	Kind   te.AxisKind
	Ann    Annotation

	atom  [1]IterAtom
	spill int32 // fused: offset of the atoms in Stage.fused
	count int32 // fused: number of atoms; 0 for a plain loop
}

// plainIter returns an unfused, unannotated loop over one atom.
func plainIter(extent int, kind te.AxisKind, axis, level int, name loopName) Iter {
	return Iter{Extent: extent, Kind: kind,
		atom: [1]IterAtom{{Axis: axis, Level: level, Extent: extent, name: name}}}
}

// untouched reports whether the loop is still a whole axis of the naive
// nest: one atom, tile level 0.
func (it *Iter) untouched() bool { return it.count == 0 && it.atom[0].Level == 0 }

// StageKind distinguishes original nodes from stages synthesized by steps.
type StageKind int

const (
	StageNormal StageKind = iota
	StageCache            // added by CacheWriteStep (rule 5)
	StageRFactor
)

// Stage is the loop nest of one computation.
//
// Ownership: Iters and the spill slab belong to exactly one stage of one
// state, and their memory is the heap's or the one arena's the state was
// replayed into (State.InArena). NewState and Clone carve every stage's
// Iters out of one allocation with the capacity clipped to the stage's
// share, so a step may rewrite its stage's loops in place and a step that
// needs more room carves or appends fresh memory, never a neighbour's.
// Every fused loop gets a spill region of its own; regions are never
// reused.
type Stage struct {
	Name string
	Node *te.Node // synthesized for cache/rfactor stages
	Kind StageKind

	Iters   []Iter
	fused   []IterAtom // atoms of the fused loops (see Iter)
	Inlined bool

	// Attached stages nest inside AttachTarget after its AttachIdx-th loop.
	Attached     bool
	AttachTarget string
	AttachIdx    int

	// AutoUnrollMax is the auto_unroll_max_step pragma (§4.2, Appendix B).
	AutoUnrollMax int

	// TiledSpaceLevels records how many space tile levels a
	// MultiLevelTileStep produced (0 = untiled); FuseConsumerStep needs it.
	TiledSpaceLevels int

	// PackedConst marks the stage's constant-tensor reads as rewritten to
	// the cache-friendly layout matching the tile structure (§4.2's
	// layout rewrite of constant tensors).
	PackedConst bool
}

// Atoms returns the tile pieces of loop i, outer to inner: one for a
// plain loop, several for a fused one. The slice aliases the stage's
// storage and is read-only outside this package.
func (st *Stage) Atoms(i int) []IterAtom {
	it := &st.Iters[i]
	if it.count == 0 {
		return it.atom[:]
	}
	return st.fused[it.spill : it.spill+it.count]
}

// IterName renders the display name of loop i: the axis name and tile
// suffix of each atom ("co.2", "i1.in"), fused pieces joined by "@".
func (st *Stage) IterName(i int) string {
	var buf [48]byte
	b := buf[:0]
	for k, at := range st.Atoms(i) {
		if k > 0 {
			b = append(b, '@')
		}
		b = at.name.appendTo(b, st.Node.Axis(at.Axis).Name)
	}
	return string(b)
}

// IterCount returns the product of all loop extents of the stage, or
// Unfilled if any extent is unfilled.
func (st *Stage) IterCount() int64 {
	p := int64(1)
	for i := range st.Iters {
		if st.Iters[i].Extent == Unfilled {
			return int64(Unfilled)
		}
		p *= int64(st.Iters[i].Extent)
	}
	return p
}

// Complete reports whether all loop extents are filled in.
func (st *Stage) Complete() bool {
	for i := range st.Iters {
		if st.Iters[i].Extent == Unfilled {
			return false
		}
	}
	return true
}

// State is a (possibly partial) program: per-stage loop nests plus the
// rewriting history that produced them.
//
// A state's structure changes only through Apply. After its last Apply —
// when Replay, the sampler or a sketch rule hands it out — it is
// immutable: the sharded scorer, the feature cache and the measurer read
// the same states from several goroutines, and Lower hands out pointers
// into them. Nothing may write a stage, a loop or a spill slab from then
// on; whoever wants a variant clones or replays.
//
// Ownership: a state, its stage list, stages, loops, spill slabs and step
// slice live on the heap or in exactly one arena, and an arena state is
// valid until that arena's Release; Clone always returns a heap state.
// Nothing keyed by a state's address may see an arena state: addresses
// are reused.
type State struct {
	DAG    *te.DAG
	Stages []*Stage
	Steps  []Step
	arena  *Arena // nil: the heap

	// sig memoizes Signature and valid a passed Validate; Apply drops
	// both. They are atomics because shared states are read concurrently;
	// racing computations store identical values, so any winner is
	// correct.
	sig   atomic.Pointer[string]
	valid atomic.Bool
}

// NewState returns the naive program of the DAG: one stage per node, one
// loop per axis (space then reduce), no annotations.
func NewState(dag *te.DAG) *State { return newState(nil, dag) }

func newState(a *Arena, dag *te.DAG) *State {
	nIters := 0
	for _, n := range dag.Nodes {
		nIters += n.NumAxes()
	}
	s, stages, iters := newStateSlabs(a, dag, len(dag.Nodes), nIters)
	for i, n := range dag.Nodes {
		k := n.NumAxes()
		stages[i] = Stage{Name: n.Name, Node: n, Iters: naiveIters(iters[:k:k], n)}
		iters = iters[k:]
	}
	return s
}

// newStateSlabs allocates, in the arena, a state whose stages all live in
// one slab, and the slab their loops are carved from. The stage list
// leaves room for the stage a cache-write or rfactor step inserts.
func newStateSlabs(a *Arena, dag *te.DAG, nStages, nIters int) (*State, []Stage, []Iter) {
	var s *State
	var stages []Stage
	if a == nil {
		s, stages = &State{Stages: make([]*Stage, nStages+2)}, make([]Stage, nStages)
	} else {
		s, stages = &a.states.carve(1)[0], a.stages.carve(nStages)
		s.Stages = a.ptrs.carve(nStages + 2)
	}
	s.DAG, s.arena, s.Stages = dag, a, s.Stages[:nStages]
	for i := range stages {
		s.Stages[i] = &stages[i]
	}
	return s, stages, newIters(a, nIters)
}

// InArena reports whether the state lives in borrowed memory.
func (s *State) InArena() bool { return s.arena != nil }

// naiveIters fills dst (one slot per axis; allocated when nil) with the
// node's naive nest.
func naiveIters(dst []Iter, n *te.Node) []Iter {
	if dst == nil {
		dst = make([]Iter, n.NumAxes())
	}
	for i := range dst {
		a := n.Axis(i)
		dst[i] = plainIter(a.Extent, a.Kind, i, 0, 0)
	}
	return dst
}

// Clone returns a deep copy of the state on the heap (steps are shared;
// they are immutable after application). The memos carry over: a clone is
// structurally identical until its next Apply, which drops them.
func (s *State) Clone() *State {
	nIters := 0
	for _, st := range s.Stages {
		nIters += len(st.Iters)
	}
	c, stages, iters := newStateSlabs(nil, s.DAG, len(s.Stages), nIters)
	for i, st := range s.Stages {
		k := len(st.Iters)
		stages[i] = *st
		stages[i].Iters = iters[:k:k]
		copy(stages[i].Iters, st.Iters)
		stages[i].fused = append([]IterAtom(nil), st.fused...)
		iters = iters[k:]
	}
	c.Steps = append([]Step(nil), s.Steps...)
	c.sig.Store(s.sig.Load())
	c.valid.Store(s.valid.Load())
	return c
}

// Stage returns the stage with the given name, or nil.
func (s *State) Stage(name string) *Stage {
	for _, st := range s.Stages {
		if st.Name == name {
			return st
		}
	}
	return nil
}

// StageIndex returns the index of the named stage, or -1.
func (s *State) StageIndex(name string) int {
	for i, st := range s.Stages {
		if st.Name == name {
			return i
		}
	}
	return -1
}

// ProducerStage returns the stage producing tensor t, or nil.
func (s *State) ProducerStage(t *te.Tensor) *Stage {
	for _, st := range s.Stages {
		if st.Node.Out == t {
			return st
		}
	}
	return nil
}

// reads reports whether stage c reads the output of st.
func reads(c, st *Stage) bool {
	for i := range c.Node.Reads {
		if c.Node.Reads[i].Tensor == st.Node.Out {
			return true
		}
	}
	return false
}

// ConsumerStages returns the stages reading the output of st.
func (s *State) ConsumerStages(st *Stage) []*Stage {
	var out []*Stage
	for _, c := range s.Stages {
		if c != st && reads(c, st) {
			out = append(out, c)
		}
	}
	return out
}

// hasConsumer reports whether any stage reads the output of st.
func (s *State) hasConsumer(st *Stage) bool {
	for _, c := range s.Stages {
		if c != st && reads(c, st) {
			return true
		}
	}
	return false
}

func scaleFlops(f te.FlopCount, k float64) te.FlopCount {
	return te.FlopCount{
		AddF: f.AddF * k, SubF: f.SubF * k, MulF: f.MulF * k, DivF: f.DivF * k,
		MaxF: f.MaxF * k, CmpF: f.CmpF * k, MathF: f.MathF * k, IntOps: f.IntOps * k,
	}
}

// EffectiveConsumer returns the single non-inlined consumer of a stage,
// looking through inlined elementwise stages; nil if the stage has zero or
// multiple consumers at any link of the chain.
func (s *State) EffectiveConsumer(st *Stage) *Stage {
	for {
		cons := s.ConsumerStages(st)
		if len(cons) != 1 {
			return nil
		}
		if !cons[0].Inlined {
			return cons[0]
		}
		st = cons[0]
	}
}

// Apply applies one step and records it in the rewriting history. The
// memos are dropped: the step changed the structure. (Steps that fail
// partway may also have mutated the state, so they are dropped on the
// error path too; a state whose Apply failed is only good for discarding.)
func (s *State) Apply(step Step) error {
	s.sig.Store(nil)
	s.valid.Store(false)
	if err := step.Apply(s); err != nil {
		return err
	}
	s.Steps = append(s.Steps, step)
	return nil
}

// MustApply applies a step that is statically known to succeed.
func (s *State) MustApply(step Step) {
	if err := s.Apply(step); err != nil {
		panic(fmt.Sprintf("ir: %v", err))
	}
}

// Replay is (*Arena).Replay onto the heap.
func Replay(dag *te.DAG, steps []Step) (*State, error) {
	return (*Arena)(nil).Replay(dag, steps)
}

// Complete reports whether every stage of the state is complete (no
// unfilled tile sizes). Sketches are incomplete; sampled programs are
// complete (§4.2).
func (s *State) Complete() bool {
	for _, st := range s.Stages {
		if st.Inlined {
			continue
		}
		if !st.Complete() {
			return false
		}
	}
	return true
}

// Validate checks structural invariants of the state: per-stage, the
// product of filled tile extents of each axis equals the axis extent;
// attach targets exist and indices are in range. A pass is remembered
// until the next Apply, so the search, which validates every offspring
// and then lowers the survivors, pays for it once.
func (s *State) Validate() error {
	if s.valid.Load() {
		return nil
	}
	for _, st := range s.Stages {
		if st.Inlined {
			continue
		}
		if err := s.validateStage(st); err != nil {
			return err
		}
	}
	s.valid.Store(true)
	return nil
}

func (s *State) validateStage(st *Stage) error {
	var abuf [48]IterAtom
	atoms := abuf[:0]
	for i := range st.Iters {
		atoms = append(atoms, st.Atoms(i)...)
	}
	// Each axis must be fully covered by its atoms: prod[a] is the
	// product of the extents of axis a's atoms, 0 while it has none.
	var pbuf [16]int
	prod := pbuf[:]
	if n := st.Node.NumAxes(); n <= len(pbuf) {
		prod = pbuf[:n]
	} else {
		prod = make([]int, n)
	}
	for i, at := range atoms {
		for _, prev := range atoms[:i] {
			if prev.Axis == at.Axis && prev.Level == at.Level {
				return errf("stage %s: duplicate atom axis=%d level=%d", st.Name, at.Axis, at.Level)
			}
		}
		if prod[at.Axis] == 0 {
			prod[at.Axis] = at.Extent
		} else {
			prod[at.Axis] = mulExt(prod[at.Axis], at.Extent)
		}
	}
	for a, p := range prod {
		if p == 0 || p == Unfilled {
			continue
		}
		want := st.Node.Axis(a).Extent
		if st.Attached {
			// Attached stages have consumer-bounded extents;
			// covered extents must not exceed the axis extent.
			if p > want {
				return errf("stage %s: axis %d covers %d > extent %d", st.Name, a, p, want)
			}
		} else if p != want {
			return errf("stage %s: axis %d covers %d, want %d", st.Name, a, p, want)
		}
	}
	if st.Attached {
		tgt := s.Stage(st.AttachTarget)
		if tgt == nil {
			return errf("stage %s: attach target %q missing", st.Name, st.AttachTarget)
		}
		if st.AttachIdx < 0 || st.AttachIdx >= len(tgt.Iters) {
			return errf("stage %s: attach index %d out of range for %s (%d iters)",
				st.Name, st.AttachIdx, tgt.Name, len(tgt.Iters))
		}
	}
	return nil
}

// Signature returns a short stable string identifying the program
// structure, tile sizes, annotations, and constant-layout packing; used
// for deduplication in search. Two states with equal signatures lower to
// the same loop nest and memory layout, so §5.1's search-level dedupe is
// exact; the persistence layer still keys exact program identity on the
// (DAG fingerprint, step list) pair — see internal/measure — because the
// signature does not record how the program was derived.
//
// The string is memoized on the state: it is a pure function of the
// post-replay structure, and the search consults it on every dedupe
// map, feature-cache and best-pool touch of every candidate.
func (s *State) Signature() string {
	if m := s.sig.Load(); m != nil {
		return *m
	}
	sig := s.buildSignature()
	s.sig.Store(&sig)
	return sig
}

// FamilySignature identifies the program's structural family: the
// Signature with the constant-layout packing markers stripped. Near-twin
// variants that differ only in packing (§4.2's layout rewrite) share a
// family. Search uses it as a diversity key when cutting candidate
// lists: identity stays exact (Signature), but a measurement batch
// should not fill up with twins of one loop structure. It is built on
// each call; the search compares families with AppendFamily instead.
func (s *State) FamilySignature() string { return string(AppendFamily(nil, s.Signature())) }

// packMark is what buildSignature writes for a packed constant layout.
const packMark = "!pk"

// AppendFamily appends the family of signature sig to dst: sig without
// its packing markers (see FamilySignature).
func AppendFamily(dst []byte, sig string) []byte {
	for {
		i := strings.Index(sig, packMark)
		if i < 0 {
			return append(dst, sig...)
		}
		dst = append(dst, sig[:i]...)
		sig = sig[i+len(packMark):]
	}
}

// buildSignature renders the signature string (see Signature).
func (s *State) buildSignature() string {
	b := make([]byte, 0, 256)
	for _, st := range s.Stages {
		b = append(b, st.Name...)
		if st.Inlined {
			b = append(b, ":inl;"...)
			continue
		}
		if st.PackedConst {
			// Constant-layout packing (§4.2) changes the measured memory
			// behaviour without changing the loop nest: omitting it
			// conflated two programs that measure differently (ROADMAP,
			// "coarse signature").
			b = append(b, packMark...)
		}
		b = append(b, '[')
		for i := range st.Iters {
			b = strconv.AppendInt(b, int64(st.Iters[i].Extent), 10)
			b = append(b, annShort(st.Iters[i].Ann)...)
			b = append(b, ',')
		}
		if st.Attached {
			b = append(b, "]@"...)
			b = append(b, st.AttachTarget...)
			b = append(b, '/')
			b = strconv.AppendInt(b, int64(st.AttachIdx), 10)
		} else {
			b = append(b, "]u"...)
			b = strconv.AppendInt(b, int64(st.AutoUnrollMax), 10)
		}
		b = append(b, ';')
	}
	return string(b)
}

func annShort(a Annotation) string {
	switch a {
	case AnnParallel:
		return "p"
	case AnnVectorize:
		return "v"
	case AnnUnroll:
		return "u"
	default:
		return ""
	}
}
