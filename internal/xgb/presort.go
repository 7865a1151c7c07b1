package xgb

import (
	"math/rand"
	"slices"

	"repro/internal/pool"
)

// The exact presorted split finder. One training call (a Fit or a Boost)
// owns one trainer: it copies the call's rows once into a column-major
// matrix, drops the columns that are constant over those rows, and sorts
// every remaining column once by (value, row). All trees of the call
// reuse that order. A tree node is a segment [lo,hi) of every column's
// row list; finding its split is one linear pass per sampled column, and
// splitting it stably partitions every list's segment into the left and
// the right child, so both children are again sorted by (value, row).
//
// The lists ping-pong between buffers by depth: the root reads the
// presorted order (never written, so the next tree starts from it with
// no copy), a node at depth d writes its children's segments into
// work[d&1], and they in turn overwrite the same [lo,hi) range of the
// other buffer, which only their finished parent was reading.

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

// trainer is the arena of one training call: everything the tree builder
// touches is allocated here once, and a node allocates nothing.
type trainer struct {
	o   Opts
	pl  *pool.Pool
	rng *rand.Rand

	n    int         // rows
	col  []int32     // col[f]: column of feature f, -1 when f is constant
	feat []int       // feat[c]: feature of column c, ascending
	vals [][]float64 // vals[c][row], one slice per varying feature, ascending feature order
	// sorted and work are (len(vals)+1)×n row lists: list c holds the
	// rows ordered by (vals[c], row); the last list is the rows in
	// ascending order, from which node sums and leaf values are
	// accumulated.
	sorted []int32
	work   [2][]int32

	grads []grad
	pred  []float64 // running ensemble prediction per row, updated leaf by leaf
	left  []uint8   // left[row] = 1 when the split in flight sends row left
	mask  []bool    // per column: sampled at the node in flight
	best  []split   // per column: best candidate at the node in flight
	nodes []node    // the ensemble's slab; every tree is appended to it

	// The node in flight, for scanColumn and partitionList: they are
	// bound once as func values so a pool.Map per node allocates nothing.
	src, dst      []int32
	lo, hi, nl    int
	sw, swy, swyy float64
	scan, part    func(c int)
}

// newTrainer transposes, filters and presorts rows. pred is the initial
// per-row prediction and is updated in place as trees are built.
func newTrainer(o Opts, rows [][]float64, pred []float64, rng *rand.Rand) *trainer {
	n := len(rows)
	t := &trainer{o: o, pl: pool.New(o.Workers), rng: rng, n: n, pred: pred}
	first := rows[0]
	varies := make([]bool, len(first))
	nv := 0
	for _, r := range rows[1:] {
		for f, v := range r {
			if v != first[f] && !varies[f] {
				varies[f] = true
				nv++
			}
		}
		if nv == len(first) {
			break
		}
	}
	t.col = make([]int32, len(first))
	t.feat = make([]int, 0, nv)
	for f := range first {
		t.col[f] = -1
		if varies[f] {
			t.col[f] = int32(len(t.feat))
			t.feat = append(t.feat, f)
		}
	}
	flat := make([]float64, nv*n)
	t.vals = make([][]float64, nv)
	for c := range t.vals {
		t.vals[c] = flat[c*n : (c+1)*n]
	}
	for i, r := range rows {
		for c, f := range t.feat {
			t.vals[c][i] = r[f]
		}
	}
	lists := make([]int32, 3*(nv+1)*n)
	t.sorted = lists[:(nv+1)*n]
	t.work[0] = lists[(nv+1)*n : 2*(nv+1)*n]
	t.work[1] = lists[2*(nv+1)*n:]
	for i := range t.sorted[:n] {
		t.sorted[i] = int32(i)
	}
	for c := 1; c <= nv; c++ {
		copy(t.sorted[c*n:], t.sorted[:n])
	}
	t.pl.Map(nv, func(c int) {
		v := t.vals[c]
		slices.SortFunc(t.sorted[c*n:(c+1)*n], func(a, b int32) int {
			switch va, vb := v[a], v[b]; {
			case va < vb:
				return -1
			case va > vb:
				return 1
			}
			return int(a - b)
		})
	})
	t.grads = make([]grad, n)
	t.left = make([]uint8, n)
	t.mask = make([]bool, nv)
	t.best = make([]split, nv)
	t.scan, t.part = t.scanColumn, t.partitionList
	return t
}

// fitTree greedily builds one weighted least-squares regression tree
// over all rows against t.grads, appends it to the slab and returns its
// root's index there, and adds LearningRate × the leaf each row landed
// in to t.pred.
func (t *trainer) fitTree() int32 {
	return t.build(t.sorted, 0, t.n, 0)
}

// build appends the subtree over segment [lo,hi) in preorder — itself,
// its left subtree (so the left child is always self+1), its right one —
// and returns its own slab index.
func (t *trainer) build(src []int32, lo, hi, depth int) int32 {
	self := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{})
	rows := src[len(t.vals)*t.n:][lo:hi] // the node's rows, ascending
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
	// call's rows happen to vary in.
	for _, c := range t.col {
		keep := !(o.FeatureSubsample < 1 && t.rng.Float64() > o.FeatureSubsample)
		if c >= 0 {
			t.mask[c] = keep
		}
	}
	t.src, t.lo, t.hi = src, lo, hi
	t.sw, t.swy, t.swyy = sw, swy, swyy
	t.each(hi-lo, len(t.vals), t.scan)
	// Deterministic reduction: strictly-greater gain in ascending column
	// (= feature) order, so an exact tie names the lowest feature.
	bc := -1
	bestGain, thr := 0.0, 0.0
	for c, s := range t.best {
		if s.gain > bestGain {
			bc, bestGain, thr = c, s.gain, s.thr
		}
	}
	if bc < 0 {
		return t.leaf(self, rows, sw, swy)
	}
	v := t.vals[bc]
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
		t.each(hi-lo, len(t.vals)+1, t.part)
	} else {
		t.partitionList(len(t.vals))
	}
	dst := t.dst
	t.build(dst, lo, lo+nl, depth+1)
	r := t.build(dst, lo+nl, hi, depth+1)
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

// scanColumn finds column c's best split of the node in flight: one pass
// over its segment, accumulating the left-side sums in (value, row)
// order and testing a midpoint threshold wherever the value changes.
func (t *trainer) scanColumn(c int) {
	t.best[c] = split{}
	if !t.mask[c] {
		return
	}
	list := t.src[c*t.n+t.lo : c*t.n+t.hi]
	v, minSamples := t.vals[c], t.o.MinSamples
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
		if prev == cur || k < minSamples || len(list)-k < minSamples {
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

// partitionList stably splits list c's segment of the node in flight
// from src into dst: rows flagged left keep their order in [lo,lo+nl),
// the others theirs in [lo+nl,hi).
func (t *trainer) partitionList(c int) {
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
