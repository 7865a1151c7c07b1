package ir

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/te"
)

// Step is one rewriting step. Programs are built exclusively by replaying
// steps from the naive state, so steps are the unit of mutation and
// crossover (§5.1).
type Step interface {
	// Name is the step kind, for diagnostics.
	Name() string
	// StageName is the primary stage the step rewrites.
	StageName() string
	// Apply rewrites the state or reports why it cannot.
	Apply(s *State) error
}

// BaseStage maps a synthesized stage name back to its original node name:
// "C.cache" and "C.rf" both belong to node "C". Crossover merges steps at
// node granularity using this tag (§5.1 node-based crossover).
func BaseStage(name string) string {
	name = strings.TrimSuffix(name, ".cache")
	name = strings.TrimSuffix(name, ".rf")
	return name
}

// stepError is why a step could not be applied. Evolution throws a
// quarter of its offspring away on one of these without looking at it, so
// the text is rendered when somebody asks for it, not when the step
// fails; the arguments must be values no later rewrite changes. A list
// argument is copied: a step's lists may be an arena's, which a failed
// replay gives back before its error is read.
type stepError struct {
	format string
	args   []any
}

func (e *stepError) Error() string { return fmt.Sprintf(e.format, e.args...) }

func errf(format string, args ...any) error {
	for i, v := range args {
		if l, ok := v.([]int); ok {
			args[i] = slices.Clone(l)
		}
	}
	return &stepError{format, args}
}

// replayError is why a replay stopped at step i: the step's kind and its
// error, rendered, like stepError, when read.
type replayError struct {
	i    int
	kind string
	err  error
}

func (e *replayError) Error() string {
	return fmt.Sprintf("ir: replay step %d (%s): %v", e.i, e.kind, e.err)
}

// adjustAttachments remaps the attach indices of stages attached to the
// named target after its loop list changed.
func adjustAttachments(s *State, target string, remap func(int) int) {
	for _, st := range s.Stages {
		if st.Attached && st.AttachTarget == target {
			st.AttachIdx = remap(st.AttachIdx)
		}
	}
}

// shiftLevels opens room for inserted tile levels: every atom of the given
// axis with Level >= from is shifted by `by`.
func shiftLevels(st *Stage, axis, from, by int) {
	for i := range st.Iters {
		atoms := st.Atoms(i)
		for k := range atoms {
			if atoms[k].Axis == axis && atoms[k].Level >= from {
				atoms[k].Level += by
			}
		}
	}
}

func prodFactors(fs []int) int {
	p := 1
	for _, f := range fs {
		p = mulExt(p, f)
	}
	return p
}

// ---------------------------------------------------------------- Inline

// InlineStep inlines a strictly inlinable stage into its consumers
// (Table 1 rule 2).
type InlineStep struct {
	Stage string
}

func (st *InlineStep) Name() string      { return "Inline" }
func (st *InlineStep) StageName() string { return st.Stage }

func (st *InlineStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return errf("inline: no stage %q", st.Stage)
	}
	if stage.Attached {
		return errf("inline: stage %q is attached", st.Stage)
	}
	if len(stage.Node.ReduceAxes) > 0 {
		return errf("inline: stage %q has reduce axes", st.Stage)
	}
	if !s.hasConsumer(stage) {
		return errf("inline: stage %q has no consumers", st.Stage)
	}
	stage.Inlined = true
	return nil
}

// ----------------------------------------------------------------- Split

// SplitStep splits one loop into len(Factors)+1 nested loops; Factors are
// the inner lengths (inner-to-outer reading left to right below the split
// point), the outer extent is derived.
type SplitStep struct {
	Stage   string
	IterIdx int
	Factors []int
}

func (st *SplitStep) Name() string      { return "Split" }
func (st *SplitStep) StageName() string { return st.Stage }

func (st *SplitStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return errf("split: no stage %q", st.Stage)
	}
	if st.IterIdx < 0 || st.IterIdx >= len(stage.Iters) {
		return errf("split: iter %d out of range in %q", st.IterIdx, st.Stage)
	}
	it := stage.Iters[st.IterIdx]
	if it.count != 0 {
		return errf("split: iter %q of %q is fused", stage.IterName(st.IterIdx), st.Stage)
	}
	if len(st.Factors) == 0 {
		return errf("split: no factors")
	}
	atom := it.atom[0]
	p := prodFactors(st.Factors)
	if atom.Extent != Unfilled {
		if p == Unfilled {
			return errf("split: unfilled factors on concrete iter %q", stage.IterName(st.IterIdx))
		}
		if p <= 0 || atom.Extent%p != 0 {
			return errf("split: factors %v do not divide extent %d of %q",
				st.Factors, atom.Extent, stage.IterName(st.IterIdx))
		}
	}
	parts := len(st.Factors) + 1
	shiftLevels(stage, atom.Axis, atom.Level+1, parts-1)
	outer := Unfilled
	if atom.Extent != Unfilled {
		outer = atom.Extent / p
	}
	iters := newIters(s.arena, len(stage.Iters)+parts-1)[:0]
	iters = append(iters, stage.Iters[:st.IterIdx]...)
	for i := 0; i < parts; i++ {
		e := outer
		if i > 0 {
			e = st.Factors[i-1]
		}
		iters = append(iters, plainIter(e, it.Kind, atom.Axis, atom.Level+i, atom.name.with(i)))
	}
	stage.Iters = append(iters, stage.Iters[st.IterIdx+1:]...)
	adjustAttachments(s, st.Stage, func(i int) int {
		if i >= st.IterIdx {
			return i + parts - 1
		}
		return i
	})
	return nil
}

// ------------------------------------------------------------------ Fuse

// FuseStep fuses Count contiguous loops starting at First into one loop.
type FuseStep struct {
	Stage string
	First int
	Count int
}

func (st *FuseStep) Name() string      { return "Fuse" }
func (st *FuseStep) StageName() string { return st.Stage }

func (st *FuseStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return errf("fuse: no stage %q", st.Stage)
	}
	if st.Count < 2 || st.First < 0 || st.First+st.Count > len(stage.Iters) {
		return errf("fuse: range [%d,%d) invalid in %q (%d iters)",
			st.First, st.First+st.Count, st.Stage, len(stage.Iters))
	}
	// Fusing across an attach point (other than ending exactly on it)
	// would change how often the attached stage recomputes.
	for _, child := range s.Stages {
		if child.Attached && child.AttachTarget == st.Stage &&
			child.AttachIdx >= st.First && child.AttachIdx < st.First+st.Count-1 {
			return errf("fuse: range [%d,%d) in %q crosses attach point of %q",
				st.First, st.First+st.Count, st.Stage, child.Name)
		}
	}
	ext, atoms := 1, 0
	kind := stage.Iters[st.First].Kind
	for i := st.First; i < st.First+st.Count; i++ {
		if stage.Iters[i].Kind != kind {
			return errf("fuse: mixing space and reduce loops in %q", st.Stage)
		}
		ext = mulExt(ext, stage.Iters[i].Extent)
		atoms += len(stage.Atoms(i))
	}
	// The fused loop's atoms go to a new region of the spill slab (the
	// regions of fused loops being fused again stay behind, unreferenced),
	// and the loops after it close the gap in place.
	spill := len(stage.fused)
	if s.arena != nil && spill+atoms > cap(stage.fused) {
		stage.fused = append(s.arena.atoms.carve(spill + atoms)[:0], stage.fused...)
	}
	stage.fused = slices.Grow(stage.fused, atoms)
	for i := st.First; i < st.First+st.Count; i++ {
		stage.fused = append(stage.fused, stage.Atoms(i)...)
	}
	stage.Iters[st.First] = Iter{Extent: ext, Kind: kind,
		spill: int32(spill), count: int32(len(stage.fused) - spill)}
	stage.Iters = append(stage.Iters[:st.First+1], stage.Iters[st.First+st.Count:]...)
	adjustAttachments(s, st.Stage, func(i int) int {
		switch {
		case i >= st.First+st.Count:
			return i - st.Count + 1
		case i >= st.First:
			return st.First
		default:
			return i
		}
	})
	return nil
}

// --------------------------------------------------------------- Reorder

// ReorderStep permutes a stage's loops.
type ReorderStep struct {
	Stage string
	Perm  []int
}

func (st *ReorderStep) Name() string      { return "Reorder" }
func (st *ReorderStep) StageName() string { return st.Stage }

func (st *ReorderStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return errf("reorder: no stage %q", st.Stage)
	}
	if len(st.Perm) != len(stage.Iters) {
		return errf("reorder: perm size %d != %d iters in %q",
			len(st.Perm), len(stage.Iters), st.Stage)
	}
	seen := make([]bool, len(st.Perm))
	out := newIters(s.arena, len(st.Perm))
	for i, p := range st.Perm {
		if p < 0 || p >= len(st.Perm) || seen[p] {
			return errf("reorder: bad permutation %v", st.Perm)
		}
		seen[p] = true
		out[i] = stage.Iters[p]
	}
	inv := make([]int, len(st.Perm))
	for i, p := range st.Perm {
		inv[p] = i
	}
	stage.Iters = out
	adjustAttachments(s, st.Stage, func(i int) int { return inv[i] })
	return nil
}

// -------------------------------------------------------------- Annotate

// AnnotateStep marks one loop parallel, vectorized or unrolled (§4.2).
type AnnotateStep struct {
	Stage   string
	IterIdx int
	Ann     Annotation
}

func (st *AnnotateStep) Name() string      { return "Annotate" }
func (st *AnnotateStep) StageName() string { return st.Stage }

func (st *AnnotateStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return errf("annotate: no stage %q", st.Stage)
	}
	if st.IterIdx < 0 || st.IterIdx >= len(stage.Iters) {
		return errf("annotate: iter %d out of range in %q", st.IterIdx, st.Stage)
	}
	it := &stage.Iters[st.IterIdx]
	if st.Ann == AnnVectorize && it.Kind == te.Reduce {
		return errf("annotate: cannot vectorize reduce loop %q", stage.IterName(st.IterIdx))
	}
	if st.Ann == AnnParallel && it.Kind == te.Reduce {
		return errf("annotate: cannot parallelize reduce loop %q", stage.IterName(st.IterIdx))
	}
	it.Ann = st.Ann
	return nil
}

// ---------------------------------------------------------------- Pragma

// PragmaStep sets the auto_unroll_max_step pragma on a stage (§4.2).
type PragmaStep struct {
	Stage         string
	AutoUnrollMax int
}

func (st *PragmaStep) Name() string      { return "Pragma" }
func (st *PragmaStep) StageName() string { return st.Stage }

func (st *PragmaStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return errf("pragma: no stage %q", st.Stage)
	}
	stage.AutoUnrollMax = st.AutoUnrollMax
	return nil
}

// ---------------------------------------------------------- LayoutRewrite

// LayoutRewriteStep rewrites the layouts of the constant tensors a stage
// reads to match its multi-level tile structure (§4.2). Weight tensors of
// convolution/dense layers are constants for inference, so this is always
// legal; the effect is that weight accesses become unit-stride for the
// innermost tile loops.
type LayoutRewriteStep struct {
	Stage string
}

func (st *LayoutRewriteStep) Name() string      { return "LayoutRewrite" }
func (st *LayoutRewriteStep) StageName() string { return st.Stage }

func (st *LayoutRewriteStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return errf("layoutrewrite: no stage %q", st.Stage)
	}
	hasConst := false
	for _, a := range stage.Node.Reads {
		if a.Tensor.Const {
			hasConst = true
		}
	}
	if !hasConst {
		return errf("layoutrewrite: stage %q reads no constant tensors", st.Stage)
	}
	stage.PackedConst = true
	return nil
}

// --------------------------------------------------------- MultiLevelTile

// MultiLevelTileStep applies the paper's multi-level tiling (Table 1 rule
// 3). Structure is a string such as "SSRSRS" (CPU) or "SSSRRSRS" (GPU):
// each 'S' is one tile level of all space loops, each 'R' one tile level
// of all reduce loops. SpaceFactors[i] holds the inner tile lengths of the
// i-th space axis (len = number of 'S' minus one; the outermost length is
// derived); nil factor lists produce a sketch with Unfilled extents.
type MultiLevelTileStep struct {
	Stage         string
	Structure     string
	SpaceFactors  [][]int
	ReduceFactors [][]int
}

func (st *MultiLevelTileStep) Name() string      { return "MultiLevelTile" }
func (st *MultiLevelTileStep) StageName() string { return st.Stage }

// outerExtent derives the outermost tile extent of one axis from its full
// extent and the inner factors; nil factors yield Unfilled.
func outerExtent(extent, levels int, factors []int) (int, error) {
	if factors == nil {
		return Unfilled, nil
	}
	if len(factors) != levels-1 {
		return 0, errf("want %d factors, got %d", levels-1, len(factors))
	}
	p := prodFactors(factors)
	if p <= 0 || extent%p != 0 {
		return 0, errf("factors %v do not divide extent %d", factors, extent)
	}
	return extent / p, nil
}

// tileExtent is the extent of one tile level of an axis given its derived
// outermost extent and its inner factors (nil = a sketch's unfilled tile).
func tileExtent(outer int, factors []int, level int) int {
	if factors == nil {
		return Unfilled
	}
	if level == 0 {
		return outer
	}
	return factors[level-1]
}

func (st *MultiLevelTileStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return errf("tile: no stage %q", st.Stage)
	}
	nSpace := strings.Count(st.Structure, "S")
	nReduce := strings.Count(st.Structure, "R")
	if nSpace == 0 || len(st.Structure) != nSpace+nReduce {
		return errf("tile: bad structure %q", st.Structure)
	}
	node := stage.Node
	if len(node.ReduceAxes) == 0 && nReduce > 0 {
		return errf("tile: structure %q needs reduce axes; %q has none", st.Structure, st.Stage)
	}
	// A space-only structure (e.g. Halide-style "SS" tiling that never
	// splits reductions) keeps the reduce loops whole, innermost.
	keepReduce := nReduce == 0 && len(node.ReduceAxes) > 0
	// The stage must still be the naive nest.
	for i := range stage.Iters {
		if !stage.Iters[i].untouched() {
			return errf("tile: stage %q already transformed", st.Stage)
		}
	}
	nS, nR := len(node.SpaceAxes), len(node.ReduceAxes)
	factorsOf := func(all [][]int, i int) []int {
		if all == nil {
			return nil
		}
		return all[i]
	}
	var buf [16]int
	outer := buf[:0] // derived outermost extent per axis, space then reduce
	for i, a := range node.SpaceAxes {
		e, err := outerExtent(a.Extent, nSpace, factorsOf(st.SpaceFactors, i))
		if err != nil {
			return errf("tile: space axis %s: %v", a.Name, err)
		}
		outer = append(outer, e)
	}
	for i, a := range node.ReduceAxes {
		e, err := outerExtent(a.Extent, nReduce, factorsOf(st.ReduceFactors, i))
		if err != nil {
			return errf("tile: reduce axis %s: %v", a.Name, err)
		}
		outer = append(outer, e)
	}
	n := nSpace*nS + nReduce*nR
	if keepReduce {
		n += nR
	}
	iters := newIters(s.arena, n)[:0]
	sLevel, rLevel := 0, 0
	for _, c := range st.Structure {
		if c == 'S' {
			for i := 0; i < nS; i++ {
				e := tileExtent(outer[i], factorsOf(st.SpaceFactors, i), sLevel)
				iters = append(iters, plainIter(e, te.Space, i, sLevel, loopName(0).with(sLevel)))
			}
			sLevel++
		} else {
			for i := 0; i < nR; i++ {
				e := tileExtent(outer[nS+i], factorsOf(st.ReduceFactors, i), rLevel)
				iters = append(iters, plainIter(e, te.Reduce, nS+i, rLevel, loopName(0).with(rLevel)))
			}
			rLevel++
		}
	}
	if keepReduce {
		for i, a := range node.ReduceAxes {
			iters = append(iters, plainIter(a.Extent, te.Reduce, nS+i, 0, 0))
		}
	}
	stage.Iters = iters
	stage.TiledSpaceLevels = nSpace
	return nil
}

// ----------------------------------------------------------- FuseConsumer

// FuseConsumerStep implements Table 1 rule 4's fusion: the multi-level
// tiled producer is attached under its elementwise consumer, which takes
// over the producer's OuterLevels outermost space tile levels and keeps
// one fused inner loop per axis (Figure 5's generated sketch 1).
type FuseConsumerStep struct {
	Producer    string
	Consumer    string
	OuterLevels int
}

func (st *FuseConsumerStep) Name() string      { return "FuseConsumer" }
func (st *FuseConsumerStep) StageName() string { return st.Producer }

func (st *FuseConsumerStep) Apply(s *State) error {
	p := s.Stage(st.Producer)
	c := s.Stage(st.Consumer)
	if p == nil || c == nil {
		return errf("fuseconsumer: missing stage %q or %q", st.Producer, st.Consumer)
	}
	if p.TiledSpaceLevels < st.OuterLevels || st.OuterLevels < 1 {
		return errf("fuseconsumer: producer %q has %d tile levels, need >= %d",
			st.Producer, p.TiledSpaceLevels, st.OuterLevels)
	}
	if c.Inlined || c.Attached {
		return errf("fuseconsumer: consumer %q not schedulable", st.Consumer)
	}
	nS := len(p.Node.SpaceAxes)
	if len(c.Node.SpaceAxes) != nS || len(c.Node.ReduceAxes) != 0 {
		return errf("fuseconsumer: consumer %q shape mismatch", st.Consumer)
	}
	// The consumer must read the producer's output identically (possibly
	// through a chain of inlined elementwise stages).
	sc := getScratch()
	defer sc.release()
	sc.expand(s, c)
	nC := c.Node.NumAxes()
	identity := false
	for _, r := range sc.reads {
		if r.tensor == p.Node.Out && isIdentity(r.coef, nC) {
			identity = true
			break
		}
	}
	if !identity {
		return errf("fuseconsumer: %q does not read %q elementwise", st.Consumer, st.Producer)
	}
	// Consumer must still be naive.
	for i := range c.Iters {
		if !c.Iters[i].untouched() {
			return errf("fuseconsumer: consumer %q already transformed", st.Consumer)
		}
	}
	// Gather the producer's per-axis per-level space extents.
	nL := p.TiledSpaceLevels
	levels := sc.alloc(nS * nL) // [axis*nL+level] extent
	for i := range p.Iters {
		for _, at := range p.Atoms(i) {
			if at.Axis < nS && at.Level < nL {
				levels[at.Axis*nL+at.Level] = at.Extent
			}
		}
	}
	// Rebuild the consumer nest: OuterLevels blocks of all axes, then one
	// fused inner loop per axis covering the producer's remaining levels.
	iters := newIters(s.arena, (st.OuterLevels+1)*nS)[:0]
	for l := 0; l < st.OuterLevels; l++ {
		for a := 0; a < nS; a++ {
			iters = append(iters, plainIter(levels[a*nL+l], te.Space, a, l, loopName(0).with(l)))
		}
	}
	for a := 0; a < nS; a++ {
		inner := 1
		for l := st.OuterLevels; l < nL; l++ {
			inner = mulExt(inner, levels[a*nL+l])
		}
		iters = append(iters, plainIter(inner, te.Space, a, st.OuterLevels, nameInner))
	}
	c.Iters = iters
	c.TiledSpaceLevels = st.OuterLevels + 1
	// Drop the producer's outer space levels; it is attached below them.
	kept := p.Iters[:0]
	for i := range p.Iters {
		if at := p.Atoms(i)[0]; at.Axis < nS && at.Level < st.OuterLevels {
			continue
		}
		kept = append(kept, p.Iters[i])
	}
	p.Iters = kept
	p.Attached = true
	p.AttachTarget = c.Name
	p.AttachIdx = st.OuterLevels*nS - 1
	return nil
}

// isIdentity reports whether an effective read indexes dimension d with
// exactly axis d: coefficient 1 there, 0 elsewhere, no constant.
func isIdentity(coef []int, nAxes int) bool {
	for i, c := range coef {
		want := 0
		if i%(nAxes+1) == i/(nAxes+1) {
			want = 1
		}
		if c != want {
			return false
		}
	}
	return true
}

// ------------------------------------------------------------- CacheWrite

// CacheWriteStep adds a cache stage for a data-reusable node that lacks a
// fusible consumer (Table 1 rule 5): the heavy computation moves into
// "<name>.cache" and the original stage becomes the cache-to-memory copy,
// which is now a fusible consumer for rule 4.
type CacheWriteStep struct {
	Stage string
}

func (st *CacheWriteStep) Name() string      { return "CacheWrite" }
func (st *CacheWriteStep) StageName() string { return st.Stage }

func (st *CacheWriteStep) Apply(s *State) error {
	idx := s.StageIndex(st.Stage)
	if idx < 0 {
		return errf("cachewrite: no stage %q", st.Stage)
	}
	orig := s.Stages[idx]
	if orig.Kind != StageNormal || orig.Inlined || orig.Attached {
		return errf("cachewrite: stage %q not schedulable", st.Stage)
	}
	n := orig.Node
	cacheT := &te.Tensor{
		Name:      n.Out.Name + ".cache",
		Shape:     append([]int(nil), n.Out.Shape...),
		ElemBytes: n.Out.ElemBytes,
	}
	cacheNode := &te.Node{
		Name:       n.Name + ".cache",
		Out:        cacheT,
		SpaceAxes:  append([]te.Axis(nil), n.SpaceAxes...),
		ReduceAxes: append([]te.Axis(nil), n.ReduceAxes...),
		Reads:      append([]te.Access(nil), n.Reads...),
		Flops:      n.Flops,
		DataReuse:  n.DataReuse,
	}
	copyReads := make([]te.LinExpr, len(n.SpaceAxes))
	for i := range copyReads {
		copyReads[i] = te.Var(i)
	}
	copyNode := &te.Node{
		Name:      n.Name,
		Out:       n.Out,
		SpaceAxes: append([]te.Axis(nil), n.SpaceAxes...),
		Reads:     []te.Access{{Tensor: cacheT, Index: copyReads}},
		Flops:     te.FlopCount{},
	}
	orig.Node = copyNode
	orig.Iters = naiveIters(newIters(s.arena, copyNode.NumAxes()), copyNode)
	orig.TiledSpaceLevels = 0
	cache := newStage(s.arena)
	*cache = Stage{Name: cacheNode.Name, Node: cacheNode, Kind: StageCache,
		Iters: naiveIters(newIters(s.arena, cacheNode.NumAxes()), cacheNode)}
	s.Stages = slices.Insert(s.Stages, idx, cache)
	return nil
}

// ---------------------------------------------------------------- RFactor

// RFactorStep implements Table 1 rule 6: it splits the ReduceIdx-th reduce
// axis by Factor and factorizes the inner piece into a space axis of a new
// "<name>.rf" stage (Figure 5's generated sketch 3). The original stage is
// left reducing over the factored piece.
type RFactorStep struct {
	Stage     string
	ReduceIdx int
	Factor    int
}

func (st *RFactorStep) Name() string      { return "RFactor" }
func (st *RFactorStep) StageName() string { return st.Stage }

func (st *RFactorStep) Apply(s *State) error {
	idx := s.StageIndex(st.Stage)
	if idx < 0 {
		return errf("rfactor: no stage %q", st.Stage)
	}
	orig := s.Stages[idx]
	n := orig.Node
	if orig.Kind != StageNormal || orig.Inlined || orig.Attached {
		return errf("rfactor: stage %q not schedulable", st.Stage)
	}
	if st.ReduceIdx < 0 || st.ReduceIdx >= len(n.ReduceAxes) {
		return errf("rfactor: reduce axis %d out of range in %q", st.ReduceIdx, st.Stage)
	}
	target := n.ReduceAxes[st.ReduceIdx]
	if st.Factor <= 0 || target.Extent%st.Factor != 0 {
		return errf("rfactor: factor %d does not divide extent %d of %q",
			st.Factor, target.Extent, target.Name)
	}
	nS := len(n.SpaceAxes)
	g := nS + st.ReduceIdx // global index of the factored axis
	ri := te.Axis{Name: target.Name + "_i", Extent: st.Factor, Kind: te.Space}
	ro := te.Axis{Name: target.Name + "_o", Extent: target.Extent / st.Factor, Kind: te.Reduce}

	// Axis remap for the rf node: old space i -> i; ri -> nS; ro -> nS+1;
	// remaining old reduce axes keep relative order after ro.
	remap := make(map[int]te.LinExpr)
	for i := 0; i < nS; i++ {
		remap[i] = te.Var(i)
	}
	next := nS + 2
	var otherReduce []te.Axis
	for i, a := range n.ReduceAxes {
		if i == st.ReduceIdx {
			// k = ro*Factor + ri
			remap[g] = te.Scaled(nS+1, st.Factor).Add(te.Var(nS))
			continue
		}
		remap[nS+i] = te.Var(next)
		otherReduce = append(otherReduce, a)
		next++
	}
	rewrite := func(e te.LinExpr) te.LinExpr {
		out := te.LinExpr{Const: e.Const}
		for _, t := range e.Terms {
			sub := remap[t.Axis]
			for _, s2 := range sub.Terms {
				out.Terms = append(out.Terms, te.Term{Axis: s2.Axis, Coeff: s2.Coeff * t.Coeff})
			}
			out.Const += sub.Const * t.Coeff
		}
		return out
	}
	var reads []te.Access
	for _, a := range n.Reads {
		ix := make([]te.LinExpr, len(a.Index))
		for i, e := range a.Index {
			ix[i] = rewrite(e)
		}
		reads = append(reads, te.Access{Tensor: a.Tensor, Index: ix})
	}
	rfT := &te.Tensor{
		Name:      n.Out.Name + ".rf",
		Shape:     append(append([]int(nil), n.Out.Shape...), st.Factor),
		ElemBytes: n.Out.ElemBytes,
	}
	rfNode := &te.Node{
		Name:       n.Name + ".rf",
		Out:        rfT,
		SpaceAxes:  append(append([]te.Axis(nil), n.SpaceAxes...), ri),
		ReduceAxes: append([]te.Axis{ro}, otherReduce...),
		Reads:      reads,
		Flops:      n.Flops,
		DataReuse:  n.DataReuse,
	}
	// rf stage loop order: space..., other reduces..., ro, ri — the new
	// space axis ri is innermost so it can be vectorized (Figure 5,
	// sampled program 4).
	rfStage := newStage(s.arena)
	*rfStage = Stage{Name: rfNode.Name, Node: rfNode, Kind: StageRFactor,
		Iters: newIters(s.arena, rfNode.NumAxes())[:0]}
	for i, a := range n.SpaceAxes {
		rfStage.Iters = append(rfStage.Iters, plainIter(a.Extent, te.Space, i, 0, 0))
	}
	for i, a := range otherReduce {
		rfStage.Iters = append(rfStage.Iters, plainIter(a.Extent, te.Reduce, nS+2+i, 0, 0))
	}
	rfStage.Iters = append(rfStage.Iters,
		plainIter(ro.Extent, te.Reduce, nS+1, 0, 0),
		plainIter(ri.Extent, te.Space, nS, 0, 0))

	// Original stage: reduce the rf tensor over ri.
	finalIdx := make([]te.LinExpr, nS+1)
	for i := 0; i < nS; i++ {
		finalIdx[i] = te.Var(i)
	}
	finalIdx[nS] = te.Var(nS) // ri is the single reduce axis, global idx nS
	finalNode := &te.Node{
		Name:       n.Name,
		Out:        n.Out,
		SpaceAxes:  append([]te.Axis(nil), n.SpaceAxes...),
		ReduceAxes: []te.Axis{{Name: ri.Name, Extent: st.Factor, Kind: te.Reduce}},
		Reads:      []te.Access{{Tensor: rfT, Index: finalIdx}},
		Flops:      te.FlopCount{AddF: 1},
	}
	orig.Node = finalNode
	orig.Iters = naiveIters(newIters(s.arena, finalNode.NumAxes()), finalNode)
	orig.TiledSpaceLevels = 0
	s.Stages = slices.Insert(s.Stages, idx, rfStage)
	return nil
}

// -------------------------------------------------------------- ComputeAt

// ComputeAtStep attaches a simple (untiled) stage under a consumer loop,
// shrinking its extents to the region the consumer's remaining inner loops
// need (used by the annotation sampler's compute-location tweaks, §4.2,
// e.g. computing padding inside the convolution's tiles).
type ComputeAtStep struct {
	Stage   string
	Target  string
	IterIdx int
}

func (st *ComputeAtStep) Name() string      { return "ComputeAt" }
func (st *ComputeAtStep) StageName() string { return st.Stage }

func (st *ComputeAtStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	tgt := s.Stage(st.Target)
	if stage == nil || tgt == nil {
		return errf("computeat: missing stage %q or %q", st.Stage, st.Target)
	}
	if stage.Inlined || stage.Attached || stage.TiledSpaceLevels > 0 {
		return errf("computeat: stage %q not simple", st.Stage)
	}
	if len(stage.Node.ReduceAxes) > 0 {
		return errf("computeat: stage %q has reduce axes", st.Stage)
	}
	if tgt.Inlined {
		return errf("computeat: target %q is inlined", st.Target)
	}
	if st.IterIdx < 0 || st.IterIdx >= len(tgt.Iters) {
		return errf("computeat: iter %d out of range in %q", st.IterIdx, st.Target)
	}
	// read.coef[pa][ca]: the coefficient of consumer axis ca in dim pa of
	// the target's read of the stage's output (reads expanded through
	// inlined stages).
	sc := getScratch()
	defer sc.release()
	read, ok := sc.readOf(s, tgt, stage.Node.Out)
	if !ok {
		return errf("computeat: stage %q does not read %q", tgt.Name, stage.Name)
	}
	// Inner extent of each consumer axis: product of atoms in loops deeper
	// than the attach point.
	nCA := tgt.Node.NumAxes()
	innerExt := sc.alloc(nCA)
	for i := range innerExt {
		innerExt[i] = 1
	}
	for i := st.IterIdx + 1; i < len(tgt.Iters); i++ {
		for _, at := range tgt.Atoms(i) {
			innerExt[at.Axis] = mulExt(innerExt[at.Axis], at.Extent)
		}
	}
	// Needed producer extents: 1 + sum of coeff*(innerExt-1) per axis.
	for pa := range stage.Iters {
		need := 1
		for ca := 0; ca < nCA; ca++ {
			c := read.coef[pa*(nCA+1)+ca]
			if c == 0 {
				continue
			}
			if innerExt[ca] == Unfilled {
				return errf("computeat: target %q has unfilled tiles", st.Target)
			}
			if c < 0 {
				c = -c
			}
			need += c * (innerExt[ca] - 1)
		}
		at := &stage.Atoms(pa)[0]
		if full := stage.Node.Axis(at.Axis).Extent; need > full {
			need = full
		}
		stage.Iters[pa].Extent = need
		at.Extent = need
	}
	stage.Attached = true
	stage.AttachTarget = st.Target
	stage.AttachIdx = st.IterIdx
	return nil
}

// ------------------------------------------------------------ ComputeRoot

// ComputeRootStep detaches a previously attached simple stage, restoring
// its full extents.
type ComputeRootStep struct {
	Stage string
}

func (st *ComputeRootStep) Name() string      { return "ComputeRoot" }
func (st *ComputeRootStep) StageName() string { return st.Stage }

func (st *ComputeRootStep) Apply(s *State) error {
	stage := s.Stage(st.Stage)
	if stage == nil {
		return errf("computeroot: no stage %q", st.Stage)
	}
	if !stage.Attached {
		return errf("computeroot: stage %q not attached", st.Stage)
	}
	stage.Attached = false
	stage.AttachTarget = ""
	stage.AttachIdx = 0
	for i := range stage.Iters {
		at := &stage.Atoms(i)[0]
		at.Extent = stage.Node.Axis(at.Axis).Extent
		stage.Iters[i].Extent = at.Extent
	}
	return nil
}
