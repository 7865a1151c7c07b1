package ir

import (
	"slices"
	"sync"

	"repro/internal/te"
)

// Lowering turns a complete State into a flat list of innermost statements,
// each carrying its enclosing loop path and, for every buffer access, the
// exact integer coefficient of every enclosing loop in every tensor
// dimension. This is all the information the analytic hardware model and
// the feature extractor need, and it is exact: tile strides, compute-at
// bound shrinking, fused-consumer nesting, inlining substitution and
// rfactor index rewriting all flow into the coefficients.

// LLoop is one loop of a lowered statement's enclosing path. Fused loops
// are expanded into one LLoop per atom (the iteration space is identical).
// Two statements share the loop at a path position exactly when their
// LLoop values there are equal.
type LLoop struct {
	Owner *Stage
	// Iter is the loop's index in Owner.Iters.
	Iter   int
	Extent int
	Kind   te.AxisKind
	Ann    Annotation
	// FusedWithPrev marks a loop that came from the same fused Iter as
	// the previous LLoop in the path.
	FusedWithPrev bool
}

// Name renders the display name of the loop's Iter (see Stage.IterName).
func (l *LLoop) Name() string { return l.Owner.IterName(l.Iter) }

// FlatAccess is one buffer access of a statement with per-loop stride
// coefficients, stored row-major in one slice: Row(d)[j] is the step that
// one iteration of path loop j takes in dimension d of the tensor.
type FlatAccess struct {
	Tensor *te.Tensor
	Coeff  []int // len(Tensor.Shape) rows of one entry per path loop
	loops  int
}

// Row returns the coefficients of tensor dimension d, one per path loop.
func (a *FlatAccess) Row(d int) []int { return a.Coeff[d*a.loops : (d+1)*a.loops] }

// ElemStride returns the linearized element stride of path loop j
// (row-major layout).
func (a *FlatAccess) ElemStride(j int) int {
	stride := 0
	dimStride := 1
	for d := len(a.Tensor.Shape) - 1; d >= 0; d-- {
		stride += a.Coeff[d*a.loops+j] * dimStride
		dimStride *= a.Tensor.Shape[d]
	}
	return stride
}

// Stmt is one lowered innermost statement. Its loops, accesses and
// coefficients are three slabs of its own; Write points at the last
// access of the slab Reads is cut from.
type Stmt struct {
	Stage *Stage
	Loops []LLoop // outer → inner
	Reads []FlatAccess
	Write *FlatAccess
	Flops te.FlopCount
	// AutoUnrollMax is the stage's pragma value.
	AutoUnrollMax int
	// ZeroFrac is the fraction of iterations whose multiplications are
	// statically zero via inlined predicated producers (see
	// te.Node.ZeroFraction); a simulator may elide them when the inner
	// loops are unrolled.
	ZeroFrac float64
	// PackedConst mirrors Stage.PackedConst: constant-tensor reads use
	// the tile-matched (unit-stride) layout.
	PackedConst bool
}

// IterCount returns the total number of executions of the statement.
func (s *Stmt) IterCount() int64 {
	n := int64(1)
	for i := range s.Loops {
		n *= int64(s.Loops[i].Extent)
	}
	return n
}

// Lowered is the lowered form of a complete program. It points into its
// State (stages, and through them loop names), which is immutable by then.
type Lowered struct {
	State *State
	Stmts []Stmt
	// arena is the scratch a borrowed lowering's slabs are cut from and
	// go back to (see LowerBorrowed); nil for one Lower returned.
	arena *scratch
}

// TotalFlops returns the total floating point work of the lowered program.
func (l *Lowered) TotalFlops() float64 {
	var f float64
	for i := range l.Stmts {
		f += float64(l.Stmts[i].IterCount()) * l.Stmts[i].Flops.Total()
	}
	return f
}

// Lower lowers a complete state. It returns an error for incomplete states
// (unfilled tile sizes) or structurally invalid ones.
func Lower(s *State) (*Lowered, error) {
	sc := getScratch()
	defer sc.release()
	return sc.lower(&Lowered{State: s})
}

// LowerBorrowed is Lower into recycled memory, for a caller that reads
// the lowering once and keeps nothing that points into it (the feature
// cache's miss path lowers, extracts and drops; the measurer and a fleet
// worker lower, time and drop). The Lowered, its statements and their
// slabs are cut from the pooled scratch instead of allocated to size,
// until Release, called exactly once, hands it back. Lower itself keeps
// its exact-size slabs for a caller that holds the lowering (ansor.Program
// and tests): a slab cut from a grown arena would pin the whole arena
// behind it.
func LowerBorrowed(s *State) (*Lowered, error) {
	sc := getScratch()
	sc.low.State, sc.low.arena = s, sc
	low, err := sc.lower(&sc.low)
	if err != nil {
		sc.release()
	}
	return low, err
}

// Release hands a borrowed lowering's memory back; the Lowered and
// everything reached through it are dead afterwards. It does nothing to
// a Lowered that Lower returned.
func (l *Lowered) Release() {
	if l.arena != nil {
		l.arena.release()
	}
}

// lower fills out with the statements of every root stage of its state.
func (sc *scratch) lower(out *Lowered) (*Lowered, error) {
	s := out.State
	if !s.Complete() {
		return nil, errf("ir: cannot lower incomplete state")
	}
	if err := s.Validate(); err != nil {
		return nil, errf("ir: %v", err)
	}
	n := 0
	for _, st := range s.Stages {
		if !st.Inlined {
			n++
		}
	}
	if cap(out.Stmts) < n {
		out.Stmts = make([]Stmt, 0, n)
	}
	for _, st := range s.Stages {
		if st.Inlined || st.Attached {
			continue
		}
		sc.path = sc.path[:0]
		if err := sc.emit(out, st, sc.alloc(st.numAtoms()*st.Node.NumAxes())); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// scratch is the working memory of one lowering, or of one step that
// needs a stage's effective reads: the loop path being walked, the
// expanded reads, and an integer arena that every coefficient matrix,
// dependence matrix and stride table is cut from. Nothing in it outlives
// the call, except under LowerBorrowed, whose result is low, its slabs cut
// from loops, accs and ints, until Release. release clears what holds
// pointers, so a pooled scratch never pins a program.
type scratch struct {
	path  []LLoop
	reads []effRead
	ints  []int

	low   Lowered
	loops []LLoop
	accs  []FlatAccess
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func (sc *scratch) release() {
	clear(sc.path[:cap(sc.path)])
	clear(sc.reads[:cap(sc.reads)])
	clear(sc.low.Stmts)
	clear(sc.loops)
	clear(sc.accs)
	sc.low = Lowered{Stmts: sc.low.Stmts[:0]}
	sc.path, sc.reads, sc.ints = sc.path[:0], sc.reads[:0], sc.ints[:0]
	sc.loops, sc.accs = sc.loops[:0], sc.accs[:0]
	scratchPool.Put(sc)
}

// cut takes n zeroed elements off a borrowed lowering's arena. A full
// arena moves to a larger block, as alloc's does; what is cut is cleared
// by release, so the unused part of an arena is always zero.
func cut[T any](arena *[]T, n int) []T {
	a := *arena
	if len(a)+n > cap(a) {
		a = make([]T, 0, 2*cap(a)+n)
	}
	*arena = a[:len(a)+n]
	return a[len(a) : len(a)+n : len(a)+n]
}

// alloc cuts n zeroed ints from the arena. When the arena is full it
// moves to a larger block; slices cut earlier keep the old one alive.
func (sc *scratch) alloc(n int) []int {
	if len(sc.ints)+n > cap(sc.ints) {
		sc.ints = make([]int, 0, 2*cap(sc.ints)+n+256)
	}
	at := len(sc.ints)
	sc.ints = sc.ints[:at+n]
	out := sc.ints[at : at+n : at+n]
	clear(out)
	return out
}

// effRead is one read of a stage after inlined producers are substituted:
// per tensor dimension a row of the coefficient of each of the stage's
// axes, then the constant term.
type effRead struct {
	tensor *te.Tensor
	coef   []int // len(index) rows of width nAxes+1
}

// expand appends st's reads to sc.reads with inlined producers
// substituted recursively, and returns the extra per-iteration flop cost
// of the inlined computation and the fraction of statically-zero
// multiplications introduced by inlined predicated producers. (Producers
// precede consumers in a DAG and in every stage a step synthesizes, so the
// recursion ends.)
func (sc *scratch) expand(s *State, st *Stage) (te.FlopCount, float64) {
	nA := st.Node.NumAxes()
	var extra te.FlopCount
	nonZero := 1.0
	for i := range st.Node.Reads {
		acc := &st.Node.Reads[i]
		prod := s.ProducerStage(acc.Tensor)
		if prod == nil || !prod.Inlined {
			coef := sc.alloc(len(acc.Index) * (nA + 1))
			for d, ix := range acc.Index {
				row := coef[d*(nA+1) : (d+1)*(nA+1)]
				for _, t := range ix.Terms {
					row[t.Axis] += t.Coeff
				}
				row[nA] = ix.Const
			}
			sc.reads = append(sc.reads, effRead{acc.Tensor, coef})
			continue
		}
		first := len(sc.reads)
		subExtra, subZF := sc.expand(s, prod)
		for k := first; k < len(sc.reads); k++ {
			sc.reads[k].coef = sc.compose(sc.reads[k].coef, prod.Node.NumAxes(), acc.Index, nA)
		}
		pf := prod.Node.Flops
		if prod.Node.Predicated {
			// A code generator partitions loops so the predicate of an
			// inlined boundary node (padding, zero-insertion) is only
			// evaluated near the borders; charge the border fraction.
			pf = scaleFlops(pf, 0.15)
		}
		extra = addFlops(extra, addFlops(subExtra, pf))
		nonZero *= (1 - subZF) * (1 - prod.Node.ZeroFraction)
	}
	return extra, 1 - nonZero
}

// compose rewrites a coefficient matrix over a producer's nP axes into
// one over the consumer's nA axes, substituting the consumer's index
// expressions via (its read of the producer) for the producer's axes.
func (sc *scratch) compose(inner []int, nP int, via []te.LinExpr, nA int) []int {
	dims := len(inner) / (nP + 1)
	out := sc.alloc(dims * (nA + 1))
	for d := 0; d < dims; d++ {
		from, to := inner[d*(nP+1):(d+1)*(nP+1)], out[d*(nA+1):(d+1)*(nA+1)]
		to[nA] = from[nP]
		for pa := 0; pa < nP && pa < len(via); pa++ {
			c := from[pa]
			if c == 0 {
				continue
			}
			for _, t := range via[pa].Terms {
				to[t.Axis] += t.Coeff * c
			}
			to[nA] += via[pa].Const * c
		}
	}
	return out
}

// readOf returns st's effective read of tensor t (the first, if it reads
// t more than once). The coefficients live in the scratch's arena.
func (sc *scratch) readOf(s *State, st *Stage, t *te.Tensor) (effRead, bool) {
	first := len(sc.reads)
	sc.expand(s, st)
	found := sc.reads[first:]
	sc.reads = sc.reads[:first]
	for _, r := range found {
		if r.tensor == t {
			return r, true
		}
	}
	return effRead{}, false
}

// numAtoms returns the number of path loops the stage's nest expands to.
func (st *Stage) numAtoms() int {
	n := 0
	for i := range st.Iters {
		n += len(st.Atoms(i))
	}
	return n
}

// strides returns, for every loop of st, the step one iteration takes in
// its axis: the product of the extents of the axis's atoms at deeper tile
// levels. The table has levels entries per axis; an atom's stride is at
// Axis*levels+Level (Validate keeps an axis's levels distinct).
func (sc *scratch) strides(st *Stage) (table []int, levels int) {
	for i := range st.Iters {
		for _, at := range st.Atoms(i) {
			levels = max(levels, at.Level+1)
		}
	}
	table = sc.alloc(st.Node.NumAxes() * levels)
	for i := range table {
		table[i] = 1
	}
	for i := range st.Iters {
		for _, at := range st.Atoms(i) {
			table[at.Axis*levels+at.Level] = at.Extent
		}
	}
	for row := table; len(row) > 0; row = row[levels:] {
		s := 1
		for l := levels - 1; l >= 0; l-- {
			row[l], s = s, s*row[l]
		}
	}
	return table, levels
}

// emit recursively emits the statement(s) of one stage below the current
// path. dep holds, for each of st's axes, a column of how far the axis
// moves per iteration of each loop of st's statement: the loops on the
// path, then st's own, zero until emit adds them. emit leaves st's loops
// on the path; the caller cuts them off. st's reads are expanded once, for
// its attached children and its own statement.
func (sc *scratch) emit(out *Lowered, st *Stage, dep []int) error {
	s, nA := out.State, st.Node.NumAxes()
	nLoops := len(dep) / nA
	stride, levels := sc.strides(st)
	first := len(sc.reads)
	extra, zf := sc.expand(s, st)
	end := len(sc.reads)
	for idx := range st.Iters {
		it := &st.Iters[idx]
		for ai, at := range st.Atoms(idx) {
			sc.path = append(sc.path, LLoop{Owner: st, Iter: idx, Extent: at.Extent,
				Kind: it.Kind, Ann: it.Ann, FusedWithPrev: ai > 0})
			dep[at.Axis*nLoops+len(sc.path)-1] = stride[at.Axis*levels+at.Level]
		}
		for _, child := range s.Stages {
			if !child.Attached || child.AttachTarget != st.Name || child.AttachIdx != idx || child.Inlined {
				continue
			}
			childDep, err := sc.descend(st, child, sc.reads[first:end], dep)
			if err != nil {
				return err
			}
			depth := len(sc.path)
			if err := sc.emit(out, child, childDep); err != nil {
				return err
			}
			sc.path = sc.path[:depth]
		}
	}
	sc.emitLeaf(out, st, sc.reads[first:end], extra, zf, dep)
	sc.reads = sc.reads[:first]
	return nil
}

// descend rewrites the dependence columns of the current path from
// parent's axes to those of a child attached in it. Only the child's
// space axes (its output dims) are driven by the parent; reduce columns
// stay zero. reads are the parent's, expanded through inlined stages so
// fusion across an inlined chain (conv → bn(inlined) → relu) resolves
// correctly.
func (sc *scratch) descend(parent, child *Stage, reads []effRead, dep []int) ([]int, error) {
	i := slices.IndexFunc(reads, func(r effRead) bool { return r.tensor == child.Node.Out })
	if i < 0 {
		return nil, errf("ir: attach target %q does not read %q", parent.Name, child.Name)
	}
	r := reads[i]
	nC, nP := child.Node.NumAxes(), parent.Node.NumAxes()
	driven := min(len(child.Node.SpaceAxes), len(r.coef)/(nP+1))
	depth, nIn, nOut := len(sc.path), len(dep)/nP, len(sc.path)+child.numAtoms()
	out := sc.alloc(nOut * nC)
	for ca := 0; ca < driven; ca++ {
		to := out[ca*nOut : ca*nOut+depth]
		for pa, c := range r.coef[ca*(nP+1) : ca*(nP+1)+nP] {
			if c == 0 {
				continue
			}
			for j, from := range dep[pa*nIn : pa*nIn+depth] {
				to[j] += c * from
			}
		}
	}
	return out, nil
}

// emitLeaf builds the Stmt for a stage from its expanded reads and the
// extra flops and zero fraction their inlined producers bring.
func (sc *scratch) emitLeaf(out *Lowered, st *Stage, reads []effRead, extra te.FlopCount, zf float64, dep []int) {
	nLoops, nA, nS := len(sc.path), st.Node.NumAxes(), len(st.Node.SpaceAxes)
	rows := nS
	for _, r := range reads {
		rows += len(r.coef) / (nA + 1)
	}
	var (
		accs  []FlatAccess
		coef  []int
		loops []LLoop
	)
	if out.arena != nil {
		accs, coef, loops = cut(&sc.accs, len(reads)+1), sc.alloc(rows*nLoops), cut(&sc.loops, nLoops)
		copy(loops, sc.path)
	} else {
		accs, coef, loops = make([]FlatAccess, len(reads)+1), make([]int, rows*nLoops), append([]LLoop(nil), sc.path...)
	}
	out.Stmts = append(out.Stmts, Stmt{
		Stage:         st,
		Loops:         loops,
		Reads:         accs[:len(reads)],
		Write:         &accs[len(reads)],
		Flops:         addFlops(extra, st.Node.Flops),
		AutoUnrollMax: st.AutoUnrollMax,
		ZeroFrac:      zf,
		PackedConst:   st.PackedConst,
	})
	// Output write: identity over space axes.
	w := sc.alloc(nS * (nA + 1))
	for d := 0; d < nS; d++ {
		w[d*(nA+1)+d] = 1
	}
	for i := range accs {
		r := effRead{st.Node.Out, w}
		if i < len(reads) {
			r = reads[i]
		}
		n := len(r.coef) / (nA + 1) * nLoops
		accs[i] = FlatAccess{Tensor: r.tensor, Coeff: coef[:n:n], loops: nLoops}
		coef = coef[n:]
		// The stride of loop j in dimension d: the dimension's coefficient
		// of every axis times how far loop j moves that axis. A dimension
		// reads few axes, so only its nonzero coefficients are visited.
		for d := 0; d*nLoops < n; d++ {
			row := accs[i].Coeff[d*nLoops : (d+1)*nLoops]
			for a, c := range r.coef[d*(nA+1) : d*(nA+1)+nA] {
				if c == 0 {
					continue
				}
				for j, move := range dep[a*nLoops : (a+1)*nLoops] {
					row[j] += c * move
				}
			}
		}
	}
}

func addFlops(a, b te.FlopCount) te.FlopCount {
	return te.FlopCount{
		AddF: a.AddF + b.AddF, SubF: a.SubF + b.SubF,
		MulF: a.MulF + b.MulF, DivF: a.DivF + b.DivF,
		MaxF: a.MaxF + b.MaxF, CmpF: a.CmpF + b.CmpF,
		MathF: a.MathF + b.MathF, IntOps: a.IntOps + b.IntOps,
	}
}
