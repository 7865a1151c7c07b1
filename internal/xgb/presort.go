package xgb

import (
	"math/rand"
	"slices"

	"repro/internal/pool"
)

// The exact presorted split finder. One training call (a Fit or a Boost)
// borrows one trainer: it copies the call's rows once into a column-major
// matrix and drops the columns that are constant over those rows. It then
// groups the remaining columns into order classes — columns whose
// (value, row) sorted lists are identical and whose neighbours in that
// list are equal at the same places — and sorts one row list per class
// by (value, row), in parallel. All trees of the call reuse that order.
// A tree node is a segment [lo,hi) of every class's row list; finding
// its split is one linear pass per class with a sampled member, and
// splitting it stably partitions every list's segment into the left and
// the right child, so both children are again sorted by (value, row).
//
// Why a class is exact: over finite values, a sub-list of a sorted list
// has its equal neighbours where the whole list has them, so at every
// node of every tree the members of a class have the same list, are
// constant over the same nodes, and have the same gain, bit for bit, at
// the same list position k. A scan of the class's lowest column stands
// for all of them: it records the best gain and its k, and the member
// that wins takes its own threshold (v[l[k-1]] + v[l[k]]) / 2. The
// members share the gain, so a strictly-greater pass over the sampled
// columns in ascending order would pick the class's lowest sampled
// member; the reduction over classes takes the highest gain and, of
// equal gains, the lowest column. A column holding a NaN is always a
// class of its own. Over the 461 calls of a 10 s tune-deep run, 78.3
// varying columns fell into 42.1 classes on average (0.546 weighted by
// rows); over the 1 851 of a tune-net run, 87.3 into 36.8 (0.452).
//
// Only the node's active classes are scanned and partitioned. A class
// whose sorted segment starts and ends on one value is constant over the
// node: it has no threshold there, nor in any segment below, so the node
// drops it from the list it hands its children. Over a tune-deep run's
// fits and boosts (C2D.s1, 128–896 rows), 31 % of the column scans (14 %
// of the rows scanned) and 10 % of the partition work were over such
// columns. A scan stops at the last position a split may take,
// m − MinSamples of m rows.
//
// The lists ping-pong between buffers by depth: the root reads the
// presorted order (never written, so the next tree starts from it with
// no copy), a node at depth d writes its children's segments into
// work[d&1], and they in turn overwrite the same [lo,hi) range of the
// other buffer, which only their finished parent was reading. A class a
// node drops keeps stale entries in the buffer it would have written;
// nothing below the node reads them.

// grad is one row's terms of the weighted-SSE sums for the tree being
// built: w, w·t and w·t² for loss weight w and residual target t.
type grad struct{ w, wy, wyy float64 }

// split is one class's best split candidate at the node in flight: its
// gain (0 means none), the position in the class's list of the first row
// that goes right, and the class's lowest sampled column, which takes
// the split.
type split struct {
	gain     float64
	pos, col int32
}

// parallelMin is the node size from which the per-class scan and
// partition are handed to the pool. A pass over a list costs 1–3 ns a
// row, so a smaller node is finished before a parked worker has woken
// up: measured on 2 cores, sharing nodes of 1024 rows made a fit slower
// and nodes of 2048 rows and up a little faster. The threshold depends
// only on the data, never on the worker count, and the reduction over
// classes is serial either way, so trees are identical for any
// Opts.Workers.
const parallelMin = 2048

// trainer is the memory of one training call, borrowed from
// freeTrainers and sized to the call by reset: a node allocates nothing,
// and a call allocates nothing once a trainer of its size has been
// released.
type trainer struct {
	o   Opts
	pl  *pool.Pool
	rng *rand.Rand

	// The call's statements and the program of each, counted from the
	// call's first; per program, its summed prediction and loss terms.
	rows     [][]float64
	rowProg  []int32
	progPred []float64
	progGrad []grad

	n, nv, nc int       // rows, varying columns, order classes
	col       []int32   // col[f]: column of feature f, -1 when f is constant
	feat      []int     // feat[c]: feature of column c, ascending
	vals      []float64 // vals[c*n+row]: the varying features, ascending feature order
	key       []uint64  // key[c]: orderKey of column c
	class     []int32   // class[c]: the order class of column c
	rep       []int32   // rep[k]: the lowest column of class k
	// members[bounds[k]:bounds[k+1]] are the columns of class k, ascending.
	members, bounds []int32
	// sorted and work are (nc+1)×n row lists carved from lists: list k
	// holds the rows ordered by (vals of rep[k], row); the last list is
	// the rows in ascending order, from which node sums and leaf values
	// are accumulated.
	lists  []int32
	sorted []int32
	work   [2][]int32
	// activeByDepth holds one list of active classes per depth, nc
	// entries apart: level d+1 is what the node in flight at depth d
	// hands its children.
	activeByDepth []int32

	grads []grad
	pred  []float64 // running ensemble prediction per row, updated leaf by leaf
	left  []uint8   // left[row] = 1 when the split in flight sends row left
	mask  []bool    // per column: sampled at the node in flight
	best  []split   // per class: best candidate at the node in flight
	nodes []node    // the slab under construction; grow copies it out

	// The node in flight, for scanClass and partitionList. They, and
	// the presort's sortClass, are bound once as func values so a
	// pool.Map allocates nothing.
	src, dst      []int32
	active        []int32
	lo, hi, nl    int
	sw, swy, swyy float64
	scan, part    func(k int)
	sortList      func(k int)
}

// freeTrainers is where released trainers wait (DESIGN.md "Borrowed
// memory").
var freeTrainers = pool.NewFreeList[*trainer](trainersKept)

const (
	// trainersKept bounds the free list: more calls than this training
	// at once allocate the rest afresh.
	trainersKept = 4
	// keptCells bounds the column matrix (rows × varying columns) of a
	// trainer the free list takes back. A cell is 8 bytes of value, and
	// a class 12 bytes a row in its three lists: 20 bytes a cell when
	// every column is a class of its own, about 15 at tune-deep's 0.55
	// classes a column.
	keptCells = 1 << 20
)

// borrowTrainer returns a trainer, the caller's until its release.
func borrowTrainer() *trainer {
	t, ok := freeTrainers.Borrow()
	if !ok {
		t = &trainer{}
		t.scan, t.part, t.sortList = t.scanClass, t.partitionList, t.sortClass
	}
	return t
}

// release hands the trainer back; it drops its hold on the caller's rows.
func (t *trainer) release() {
	clear(t.rows)
	freeTrainers.Return(t, cap(t.vals) <= keptCells)
}

// resize returns s with length n, reusing its memory when it is large
// enough. The contents are left as they were.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// regrow is resize that keeps the first keep elements of s.
func regrow[T any](s []T, n, keep int) []T {
	if cap(s) < n {
		s = append(make([]T, 0, n), s[:keep]...)
	}
	return s[:n]
}

// reset prepares the trainer for a call over t.rows: it transposes,
// filters, classifies and presorts them, seeds the subsample stream and
// zeroes the predictions. The slab is left empty.
func (t *trainer) reset(o Opts, seed int64) {
	if t.pl == nil || o.Workers != t.o.Workers {
		t.pl = pool.New(o.Workers)
	}
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(seed))
	} else {
		t.rng.Seed(seed)
	}
	rows := t.rows
	n := len(rows)
	t.o, t.n = o, n
	first := rows[0]
	t.col = resize(t.col, len(first))
	for f := range t.col {
		t.col[f] = -1
	}
	nv := 0
	for _, r := range rows[1:] {
		for f, v := range r {
			if v != first[f] && t.col[f] < 0 {
				t.col[f] = 0
				nv++
			}
		}
		if nv == len(first) {
			break
		}
	}
	t.nv = nv
	t.feat = t.feat[:0]
	for f, c := range t.col {
		if c >= 0 {
			t.col[f] = int32(len(t.feat))
			t.feat = append(t.feat, f)
		}
	}
	t.vals = resize(t.vals, nv*n)
	for i, r := range rows {
		for c, f := range t.feat {
			t.vals[c*n+i] = r[f]
		}
	}
	t.classify()
	nc := t.nc
	size := (nc + 1) * n
	t.lists = regrow(t.lists, 3*size, nc*n)
	t.sorted = t.lists[:size]
	t.work[0] = t.lists[size : 2*size]
	t.work[1] = t.lists[2*size:]
	for i := range n {
		t.sorted[nc*n+i] = int32(i)
	}
	// A split leaves at least one row on each side, so no node lies
	// deeper than n.
	t.activeByDepth = resize(t.activeByDepth, (min(max(o.MaxDepth, 0), n)+1)*nc)
	for k := range nc {
		t.activeByDepth[k] = int32(k)
	}
	t.grads = resize(t.grads, n)
	t.pred = resize(t.pred, n)
	clear(t.pred)
	t.left = resize(t.left, n)
	t.mask = resize(t.mask, nv)
	t.best = resize(t.best, nc)
	t.nodes = t.nodes[:0]
}

// classify groups the varying columns into order classes, each led by
// its lowest column, and sorts each class's list into lists[k*n:]. Equal
// keys only nominate a class; a column joins one after sameOrder has
// checked it against the class's sorted list. The first column of each
// key opens a class and these are sorted on the pool; every other column
// then joins the first class of its key that orders the rows alike, or
// opens and sorts a class of its own.
func (t *trainer) classify() {
	n, nv := t.n, t.nv
	t.key = resize(t.key, nv)
	t.class = resize(t.class, nv)
	t.rep = t.rep[:0]
	for c := range nv {
		t.key[c] = orderKey(t.vals[c*n:(c+1)*n], c)
		t.class[c] = -1
		if t.sameKey(c, -1) < 0 {
			t.class[c] = int32(len(t.rep))
			t.rep = append(t.rep, int32(c))
		}
	}
	t.lists = resize(t.lists, 3*(len(t.rep)+1)*n)
	t.pl.Map(len(t.rep), t.sortList)
	for c := range nv {
		if t.class[c] >= 0 {
			continue
		}
		k := t.sameKey(c, -1)
		for k >= 0 && !sameOrder(t.lists[k*n:(k+1)*n], t.vals[int(t.rep[k])*n:], t.vals[c*n:]) {
			k = t.sameKey(c, k)
		}
		if k < 0 {
			k = len(t.rep)
			t.rep = append(t.rep, int32(c))
			t.lists = regrow(t.lists, (k+1)*n, k*n)
			t.sortClass(k)
		}
		t.class[c] = int32(k)
	}
	t.nc = len(t.rep)
	t.bounds = resize(t.bounds, t.nc+1)
	t.members = t.members[:0]
	for k, r := range t.rep {
		t.bounds[k] = int32(len(t.members))
		for c := r; c < int32(nv); c++ {
			if t.class[c] == int32(k) {
				t.members = append(t.members, c)
			}
		}
	}
	t.bounds[t.nc] = int32(nv)
}

// sameKey returns the first class after class after whose lowest column
// has column c's key, or -1.
func (t *trainer) sameKey(c, after int) int {
	for k := after + 1; k < len(t.rep); k++ {
		if t.key[t.rep[k]] == t.key[c] {
			return k
		}
	}
	return -1
}

// orderKey hashes how each row of column v compares with the row before
// it and with the lowest and the highest value of the rows before it,
// which columns of one class do alike, so they have equal keys. The key
// is even; a column holding a NaN gets the odd key 2c+1 of its own index
// c, which no other column has, so it stays a class of its own.
func orderKey(v []float64, c int) uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	prev, lo, hi := v[0], v[0], v[0]
	for _, x := range v {
		if x != x {
			return uint64(2*c + 1)
		}
		h = (h ^ (9*compare(x, prev) + 3*compare(x, lo) + compare(x, hi))) * 1099511628211
		prev = x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return h &^ 1
}

// compare is 0, 1 or 2 as a is below, equal to or above b, neither a
// NaN; it compiles without a branch.
func compare(a, b float64) uint64 {
	return b2u(a >= b) + b2u(a > b)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sameOrder reports whether, along list — the rows sorted by (a, row) —
// b rises exactly where a rises and stays exactly where a stays. Then
// list is b's (value, row) order too, with its equal neighbours where
// a's are: b is in a's class. Neither column holds a NaN.
func sameOrder(list []int32, a, b []float64) bool {
	pa, pb := a[list[0]], b[list[0]]
	for _, i := range list[1:] {
		ca, cb := a[i], b[i]
		if (pa == ca) != (pb == cb) || pb > cb {
			return false
		}
		pa, pb = ca, cb
	}
	return true
}

// sortClass fills list k of the presorted order with the rows sorted by
// (value, row) of the class's lowest column.
func (t *trainer) sortClass(k int) {
	list := t.lists[k*t.n : (k+1)*t.n]
	for i := range list {
		list[i] = int32(i)
	}
	v := t.vals[int(t.rep[k])*t.n:][:t.n]
	slices.SortFunc(list, func(a, b int32) int {
		switch va, vb := v[a], v[b]; {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return int(a - b)
	})
}

// fitTree greedily builds one weighted least-squares regression tree
// over all rows against t.grads, appends it to the slab and returns its
// root's index there, and adds LearningRate × the leaf each row landed
// in to t.pred.
func (t *trainer) fitTree() int32 {
	return t.build(t.sorted, 0, t.n, 0, t.activeByDepth[:t.nc])
}

// build appends the subtree over segment [lo,hi) in preorder — itself,
// its left subtree (so the left child is always self+1), its right one —
// and returns its own slab index. active lists the classes that may
// still split the segment; their lists in src are valid over [lo,hi).
func (t *trainer) build(src []int32, lo, hi, depth int, active []int32) int32 {
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{})
	n := t.n
	rows := src[t.nc*n:][lo:hi] // the node's rows, ascending
	var sw, swy, swyy float64
	for _, i := range rows {
		g := &t.grads[i]
		sw += g.w
		swy += g.wy
		swyy += g.wyy
	}
	o := &t.o
	if depth >= o.MaxDepth || hi-lo < 2*o.MinSamples || sw == 0 {
		return t.leaf(self, rows, sw, swy)
	}
	// The subsample is drawn for every feature in order, constant ones
	// included, so the RNG stream does not depend on which columns the
	// call's rows happen to vary in, or the node's.
	for _, c := range t.col {
		keep := !(o.FeatureSubsample < 1 && t.rng.Float64() > o.FeatureSubsample)
		if c >= 0 {
			t.mask[c] = keep
		}
	}
	next := t.activeByDepth[(depth+1)*t.nc:][:0]
	for _, k := range active {
		list, v := src[int(k)*n:], t.vals[int(t.rep[k])*n:]
		if v[list[lo]] != v[list[hi-1]] {
			next = append(next, k)
		}
	}
	t.src, t.lo, t.hi, t.active = src, lo, hi, next
	t.sw, t.swy, t.swyy = sw, swy, swyy
	t.each(hi-lo, len(next), t.scan)
	// Deterministic reduction: the highest gain and, of exactly equal
	// gains, the lowest column — what a strictly-greater pass over the
	// sampled columns in ascending (= feature) order picks.
	bk, bc := -1, int32(-1)
	bestGain := 0.0
	for _, k := range next {
		if s := t.best[k]; s.gain > bestGain || s.gain == bestGain && bk >= 0 && s.col < bc {
			bk, bc, bestGain = int(k), s.col, s.gain
		}
	}
	if bk < 0 {
		return t.leaf(self, rows, sw, swy)
	}
	list, v := src[bk*n:], t.vals[int(bc)*n:(int(bc)+1)*n]
	p := t.best[bk].pos
	thr := (v[list[p-1]] + v[list[p]]) / 2
	nl := 0
	for _, i := range rows {
		b := uint8(0)
		if v[i] <= thr {
			b = 1
		}
		t.left[i] = b
		nl += int(b)
	}
	// Children that are leaves whatever they hold read only the row list.
	t.dst, t.nl = t.work[depth&1], nl
	if depth+1 < o.MaxDepth && max(nl, hi-lo-nl) >= 2*o.MinSamples {
		t.each(hi-lo, len(next)+1, t.part)
	} else {
		t.partitionList(len(next))
	}
	dst := t.dst
	t.build(dst, lo, lo+nl, depth+1, next)
	r := t.build(dst, lo+nl, hi, depth+1, next)
	t.nodes[self] = node{threshold: thr, feature: int32(t.feat[bc]), right: r}
	return self
}

// each runs fn over [0,k), on the pool when the node is large.
func (t *trainer) each(n, k int, fn func(int)) {
	if n >= parallelMin {
		t.pl.Map(k, fn)
		return
	}
	for c := 0; c < k; c++ {
		fn(c)
	}
}

// leaf closes node self as a leaf over rows and moves their predictions.
func (t *trainer) leaf(self int32, rows []int32, sw, swy float64) int32 {
	v := 0.0
	if sw != 0 {
		v = swy / sw
	}
	t.nodes[self] = node{threshold: v, feature: leafMark}
	step := t.o.LearningRate * v
	for _, i := range rows {
		t.pred[i] += step
	}
	return self
}

// scanClass finds the best split of the node in flight on its a-th
// active class, when a member is sampled: one pass over the class's
// segment in the values of its lowest column, accumulating the left-side
// sums in (value, row) order and testing a split wherever the value
// changes, up to the last position that leaves MinSamples rows on the
// right.
func (t *trainer) scanClass(a int) {
	k := int(t.active[a])
	t.best[k] = split{}
	col := int32(-1)
	for _, c := range t.members[t.bounds[k]:t.bounds[k+1]] {
		if t.mask[c] {
			col = c
			break
		}
	}
	if col < 0 {
		return
	}
	// The list ends at the last split position: j = m − MinSamples,
	// capped at m − 1 of the segment's m rows.
	m, minSamples := t.hi-t.lo, t.o.MinSamples
	list := t.src[k*t.n+t.lo:][:min(m-minSamples, m-1)+1]
	v := t.vals[int(t.rep[k])*t.n:][:t.n]
	sw, swy, swyy := t.sw, t.swy, t.swyy
	parentSSE := swyy - swy*swy/sw
	var lw, lwy, lwyy float64
	best := split{}
	cur := v[list[0]]
	for j := 1; j < len(list); j++ {
		g := &t.grads[list[j-1]]
		lw += g.w
		lwy += g.wy
		lwyy += g.wyy
		prev := cur
		cur = v[list[j]]
		if prev == cur || j < minSamples {
			continue
		}
		rw := sw - lw
		if lw <= 0 || rw <= 0 {
			continue
		}
		lsse := lwyy - lwy*lwy/lw
		rwy := swy - lwy
		rwyy := swyy - lwyy
		rsse := rwyy - rwy*rwy/rw
		if gain := parentSSE - lsse - rsse; gain > best.gain {
			best = split{gain: gain, pos: int32(t.lo + j), col: col}
		}
	}
	t.best[k] = best
}

// partitionList stably splits list a of the node in flight — its a-th
// active class, or the row list for a = len(active) — from src into
// dst: rows flagged left keep their order in [lo,lo+nl), the others
// theirs in [lo+nl,hi).
func (t *trainer) partitionList(a int) {
	k := t.nc
	if a < len(t.active) {
		k = int(t.active[a])
	}
	base := k * t.n
	src := t.src[base+t.lo : base+t.hi]
	dst := t.dst[base+t.lo : base+t.hi]
	left := t.left
	jl, jr := 0, t.nl
	for _, i := range src {
		// Branch-free: which side a row goes to is a coin flip for every
		// list but the split class's own.
		b := int(left[i])
		dst[jr^((jl^jr)&-b)] = i
		jl += b
		jr += 1 - b
	}
}
