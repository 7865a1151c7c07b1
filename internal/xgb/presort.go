package xgb

import (
	"math/rand"
	"slices"
	"sync"

	"repro/internal/pool"
)

// The exact presorted split finder. One training call (a Fit or a Boost)
// borrows one trainer: it copies the call's rows once into a column-major
// matrix, drops the columns that are constant over those rows, and sorts
// every remaining column once by (value, row). All trees of the call
// reuse that order. A tree node is a segment [lo,hi) of every column's
// row list; finding its split is one linear pass per sampled column, and
// splitting it stably partitions every list's segment into the left and
// the right child, so both children are again sorted by (value, row).
//
// Only the node's active columns are scanned and partitioned. A column
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
// other buffer, which only their finished parent was reading. A column a
// node drops keeps stale entries in the buffer it would have written;
// nothing below the node reads them.

// grad is one row's terms of the weighted-SSE sums for the tree being
// built: w, w·t and w·t² for loss weight w and residual target t.
type grad struct{ w, wy, wyy float64 }

// split is one column's best split candidate; gain 0 means none.
type split struct{ gain, thr float64 }

// parallelMin is the node size from which the per-column scan and
// partition are handed to the pool. A pass over a column costs 1–3 ns a
// row, so a smaller node is finished before a parked worker has woken
// up: measured on 2 cores, sharing nodes of 1024 rows made a fit slower
// and nodes of 2048 rows and up a little faster. The threshold depends
// only on the data, never on the worker count, and the reduction over
// columns is serial either way, so trees are identical for any
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

	n, nv int       // rows, varying columns
	col   []int32   // col[f]: column of feature f, -1 when f is constant
	feat  []int     // feat[c]: feature of column c, ascending
	vals  []float64 // vals[c*n+row]: the varying features, ascending feature order
	// sorted and work are (nv+1)×n row lists carved from lists: list c
	// holds the rows ordered by (vals of c, row); the last list is the
	// rows in ascending order, from which node sums and leaf values are
	// accumulated.
	lists  []int32
	sorted []int32
	work   [2][]int32
	// activeByDepth holds one list of active columns per depth, nv
	// entries apart: level d+1 is what the node in flight at depth d
	// hands its children.
	activeByDepth []int32

	grads []grad
	pred  []float64 // running ensemble prediction per row, updated leaf by leaf
	left  []uint8   // left[row] = 1 when the split in flight sends row left
	mask  []bool    // per column: sampled at the node in flight
	best  []split   // per column: best candidate at the node in flight
	nodes []node    // the slab under construction; grow copies it out

	// The node in flight, for scanColumn and partitionList: they are
	// bound once as func values so a pool.Map per node allocates nothing.
	src, dst      []int32
	active        []int32
	lo, hi, nl    int
	sw, swy, swyy float64
	scan, part    func(k int)
	sortCol       func(c int)
}

// freeTrainers is where released trainers wait: a bounded list and no
// sync.Pool, which every collection empties.
var freeTrainers struct {
	sync.Mutex
	list []*trainer
}

const (
	// trainersKept bounds the free list: more calls than this training
	// at once allocate the rest afresh.
	trainersKept = 4
	// keptCells bounds the column matrix (rows × varying columns) of a
	// trainer the free list takes back, about 20 bytes a cell in all.
	keptCells = 1 << 20
)

// borrowTrainer returns a trainer, the caller's until its release.
func borrowTrainer() *trainer {
	freeTrainers.Lock()
	defer freeTrainers.Unlock()
	n := len(freeTrainers.list)
	if n == 0 {
		t := &trainer{}
		t.scan, t.part, t.sortCol = t.scanColumn, t.partitionList, t.sortColumn
		return t
	}
	t := freeTrainers.list[n-1]
	freeTrainers.list = freeTrainers.list[:n-1]
	return t
}

// release hands the trainer back; it drops its hold on the caller's rows.
func (t *trainer) release() {
	clear(t.rows)
	if cap(t.vals) > keptCells {
		return
	}
	freeTrainers.Lock()
	defer freeTrainers.Unlock()
	if len(freeTrainers.list) < trainersKept {
		freeTrainers.list = append(freeTrainers.list, t)
	}
}

// resize returns s with length n, reusing its memory when it is large
// enough. The contents are left as they were.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset prepares the trainer for a call over t.rows: it transposes,
// filters and presorts them, seeds the subsample stream and zeroes the
// predictions. The slab is left empty.
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
	size := (nv + 1) * n
	t.lists = resize(t.lists, 3*size)
	t.sorted = t.lists[:size]
	t.work[0] = t.lists[size : 2*size]
	t.work[1] = t.lists[2*size:]
	for i := range t.sorted[:n] {
		t.sorted[i] = int32(i)
	}
	for c := 1; c <= nv; c++ {
		copy(t.sorted[c*n:], t.sorted[:n])
	}
	t.pl.Map(nv, t.sortCol)
	// A split leaves at least one row on each side, so no node lies
	// deeper than n.
	t.activeByDepth = resize(t.activeByDepth, (min(max(o.MaxDepth, 0), n)+1)*nv)
	for c := range nv {
		t.activeByDepth[c] = int32(c)
	}
	t.grads = resize(t.grads, n)
	t.pred = resize(t.pred, n)
	clear(t.pred)
	t.left = resize(t.left, n)
	t.mask = resize(t.mask, nv)
	t.best = resize(t.best, nv)
	t.nodes = t.nodes[:0]
}

// sortColumn sorts list c of the presorted order by (value, row).
func (t *trainer) sortColumn(c int) {
	v := t.vals[c*t.n : (c+1)*t.n]
	slices.SortFunc(t.sorted[c*t.n:(c+1)*t.n], func(a, b int32) int {
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
	return t.build(t.sorted, 0, t.n, 0, t.activeByDepth[:t.nv])
}

// build appends the subtree over segment [lo,hi) in preorder — itself,
// its left subtree (so the left child is always self+1), its right one —
// and returns its own slab index. active lists the columns that may
// still split the segment, ascending; their lists in src are valid over
// [lo,hi).
func (t *trainer) build(src []int32, lo, hi, depth int, active []int32) int32 {
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{})
	rows := src[t.nv*t.n:][lo:hi] // the node's rows, ascending
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
	next := t.activeByDepth[(depth+1)*t.nv:][:0]
	for _, c := range active {
		list, v := src[int(c)*t.n:], t.vals[int(c)*t.n:]
		if v[list[lo]] != v[list[hi-1]] {
			next = append(next, c)
		}
	}
	t.src, t.lo, t.hi, t.active = src, lo, hi, next
	t.sw, t.swy, t.swyy = sw, swy, swyy
	t.each(hi-lo, len(next), t.scan)
	// Deterministic reduction: strictly-greater gain in ascending column
	// (= feature) order, so an exact tie names the lowest feature.
	bc := -1
	bestGain, thr := 0.0, 0.0
	for _, c := range next {
		if s := t.best[c]; s.gain > bestGain {
			bc, bestGain, thr = int(c), s.gain, s.thr
		}
	}
	if bc < 0 {
		return t.leaf(self, rows, sw, swy)
	}
	v := t.vals[bc*t.n : (bc+1)*t.n]
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

// scanColumn finds the best split of the node in flight on its a-th
// active column: one pass over the column's segment, accumulating the
// left-side sums in (value, row) order and testing a midpoint threshold
// wherever the value changes, up to the last position that leaves
// MinSamples rows on the right.
func (t *trainer) scanColumn(a int) {
	c := int(t.active[a])
	t.best[c] = split{}
	if !t.mask[c] {
		return
	}
	// The list ends at the last split position: k = m − MinSamples,
	// capped at m − 1 of the segment's m rows.
	m, minSamples := t.hi-t.lo, t.o.MinSamples
	list := t.src[c*t.n+t.lo:][:min(m-minSamples, m-1)+1]
	v := t.vals[c*t.n : (c+1)*t.n]
	sw, swy, swyy := t.sw, t.swy, t.swyy
	parentSSE := swyy - swy*swy/sw
	var lw, lwy, lwyy float64
	best := split{}
	cur := v[list[0]]
	for k := 1; k < len(list); k++ {
		g := &t.grads[list[k-1]]
		lw += g.w
		lwy += g.wy
		lwyy += g.wyy
		prev := cur
		cur = v[list[k]]
		if prev == cur || k < minSamples {
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
			best = split{gain: gain, thr: (prev + cur) / 2}
		}
	}
	t.best[c] = best
}

// partitionList stably splits list k of the node in flight — its k-th
// active column, or the row list for k = len(active) — from src into
// dst: rows flagged left keep their order in [lo,lo+nl), the others
// theirs in [lo+nl,hi).
func (t *trainer) partitionList(k int) {
	c := t.nv
	if k < len(t.active) {
		c = int(t.active[k])
	}
	base := c * t.n
	src := t.src[base+t.lo : base+t.hi]
	dst := t.dst[base+t.lo : base+t.hi]
	left := t.left
	jl, jr := 0, t.nl
	for _, i := range src {
		// Branch-free: which side a row goes to is a coin flip for every
		// list but the split column's own.
		b := int(left[i])
		dst[jr^((jl^jr)&-b)] = i
		jl += b
		jr += 1 - b
	}
}
