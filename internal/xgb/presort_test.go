package xgb

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
)

// ---- Reference oracle: the per-node-sort builder the presorted kernel
// replaced, kept verbatim (serial path) so the differential tests below
// can demand the same trees from both — with the representation it built
// then, one node slice per tree with explicit child indices, which
// refTrees reads back out of the slab. The float64() conversions pin the
// products to unfused rounding, which is what the kernel's stored
// per-row terms have on every architecture. Its per-node sort is stable,
// so tied values keep their rows in ascending order, as the kernel's
// (value, row) lists do, and the left-side sums over a run of ties add
// up in the same order.

type refNode struct {
	feature   int
	threshold float64
	left      int
	right     int
	value     float64
	leaf      bool
}

type refTree struct{ nodes []refNode }

func (t *refTree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.leaf {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// refTrees converts the model's slab to the reference representation:
// tree-relative child indices, the left one spelled out.
func refTrees(m *CostModel) []*refTree {
	e := m.snapshot()
	if e == nil {
		return nil
	}
	var out []*refTree
	for ti := range e.roots {
		root, nodes := e.tree(ti)
		t := &refTree{}
		for i, n := range nodes {
			if n.feature == leafMark {
				t.nodes = append(t.nodes, refNode{leaf: true, value: n.threshold})
				continue
			}
			t.nodes = append(t.nodes, refNode{feature: int(n.feature), threshold: n.threshold, left: i + 1, right: int(n.right - root)})
		}
		out = append(out, t)
	}
	return out
}

func refWeightedMean(target, w []float64, idx []int) float64 {
	var sw, swy float64
	for _, i := range idx {
		sw += w[i]
		swy += float64(w[i] * target[i])
	}
	if sw == 0 {
		return 0
	}
	return swy / sw
}

func (t *refTree) refBuild(x [][]float64, target, w []float64, idx []int, depth int, o Opts, rng *rand.Rand) int {
	self := len(t.nodes)
	t.nodes = append(t.nodes, refNode{})
	if depth >= o.MaxDepth || len(idx) < 2*o.MinSamples {
		t.nodes[self] = refNode{leaf: true, value: refWeightedMean(target, w, idx)}
		return self
	}
	nf := len(x[0])
	var sw, swy, swyy float64
	for _, i := range idx {
		sw += w[i]
		swy += float64(w[i] * target[i])
		swyy += float64(float64(w[i]*target[i]) * target[i])
	}
	if sw == 0 {
		t.nodes[self] = refNode{leaf: true, value: 0}
		return self
	}
	parentSSE := swyy - swy*swy/sw
	mask := make([]bool, nf)
	for f := 0; f < nf; f++ {
		mask[f] = !(o.FeatureSubsample < 1 && rng.Float64() > o.FeatureSubsample)
	}
	bestGain := 0.0
	bestF, bestThr := -1, 0.0
	order := make([]int, len(idx))
	for f := 0; f < nf; f++ {
		if !mask[f] {
			continue
		}
		copy(order, idx)
		sort.SliceStable(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		var lw, lwy, lwyy float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			lw += w[i]
			lwy += float64(w[i] * target[i])
			lwyy += float64(float64(w[i]*target[i]) * target[i])
			if x[order[k]][f] == x[order[k+1]][f] {
				continue
			}
			if k+1 < o.MinSamples || len(order)-k-1 < o.MinSamples {
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
			if gain := parentSSE - lsse - rsse; gain > bestGain {
				bestGain, bestF = gain, f
				bestThr = (x[order[k]][f] + x[order[k+1]][f]) / 2
			}
		}
	}
	if bestF < 0 {
		t.nodes[self] = refNode{leaf: true, value: refWeightedMean(target, w, idx)}
		return self
	}
	var li, ri []int
	for _, i := range idx {
		if x[i][bestF] <= bestThr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	l := t.refBuild(x, target, w, li, depth+1, o, rng)
	r := t.refBuild(x, target, w, ri, depth+1, o, rng)
	t.nodes[self] = refNode{feature: bestF, threshold: bestThr, left: l, right: r}
	return self
}

// refGrow is the boosting loop as Fit and Boost each used to spell it:
// per-row targets and weights, one refBuild per round, predictions moved
// by walking the new tree per row.
func refGrow(o Opts, prev []*refTree, progs [][][]float64, y []float64, first, nTrees int, seed int64) []*refTree {
	var rows [][]float64
	var rowProg []int
	for p := first; p < len(progs); p++ {
		for _, s := range progs[p] {
			rows = append(rows, s)
			rowProg = append(rowProg, p)
		}
	}
	pred := make([]float64, len(rows))
	for i, r := range rows {
		for _, t := range prev {
			pred[i] += o.LearningRate * t.predict(r)
		}
	}
	target := make([]float64, len(rows))
	weight := make([]float64, len(rows))
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	trees := append([]*refTree(nil), prev...)
	for round := 0; round < nTrees; round++ {
		progPred := map[int]float64{}
		for i, p := range rowProg {
			progPred[p] += pred[i]
		}
		for i, p := range rowProg {
			target[i] = (y[p] - progPred[p]) / float64(len(progs[p]))
			weight[i] = math.Max(y[p], 0.05)
		}
		t := &refTree{}
		t.refBuild(rows, target, weight, idx, 0, o, rng)
		for i := range rows {
			pred[i] += float64(o.LearningRate * t.predict(rows[i]))
		}
		trees = append(trees, t)
	}
	return trees
}

// ---- Data

// multiStmt builds programs of 1–3 statements over nf continuous
// features (ties have probability ~0) plus, when tied is set, columns
// that force every special case of the kernel: two constant columns, a
// three-valued column, a binary column, and as the last two columns
// exact copies of column 0 and of the three-valued one.
func multiStmt(n, nf int, tied bool, seed int64) (progs [][][]float64, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var stmts [][]float64
		var label float64
		for s := 1 + rng.Intn(3); s > 0; s-- {
			x := make([]float64, nf)
			for j := range x {
				x[j] = rng.Float64()
			}
			label += 0.3*x[0] + 0.2*x[3]*x[3] + 0.05*math.Sin(6*x[5])
			if tied {
				tri := float64(rng.Intn(3))
				x = append(x, 7, tri, 0, float64(rng.Intn(2)), x[0], tri)
			}
			stmts = append(stmts, x)
		}
		progs = append(progs, stmts)
		y = append(y, math.Min(label/1.5, 1))
	}
	return
}

// needParallel fails the test unless a fit of progs starts with a node
// large enough to be shared out over the pool.
func needParallel(t *testing.T, progs [][][]float64) {
	t.Helper()
	rows := 0
	for _, p := range progs {
		rows += len(p)
	}
	if rows < parallelMin {
		t.Fatalf("%d rows: the root stays under parallelMin (%d) and the pool path goes untested", rows, parallelMin)
	}
}

func sameTrees(t *testing.T, what string, got, want []*refTree) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trees, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].nodes, want[i].nodes) {
			t.Fatalf("%s: tree %d differs from the reference builder\n got %+v\nwant %+v", what, i, got[i].nodes, want[i].nodes)
		}
	}
}

// ---- (a) differential: same trees as the per-node-sort builder

func TestPresortedMatchesReferenceBuilder(t *testing.T) {
	// The first fit's root goes through the pool, everything below it
	// and the whole boost take the serial path. The tied rows hold
	// copied columns, so the pool also scans and partitions order
	// classes of more than one column.
	for _, tied := range []bool{false, true} {
		progs, y := multiStmt(1300, 12, tied, 21)
		old := 1200
		needParallel(t, progs[:old])
		o := DefaultOpts()
		o.Workers = 2
		m := NewCostModel(o)
		m.Fit(progs[:old], y[:old])
		ref := refGrow(o, nil, progs[:old], y[:old], 0, o.NumTrees, o.Seed)
		sameTrees(t, fmt.Sprintf("fit, tied=%v", tied), refTrees(m), ref)

		m.Boost(progs, y, old)
		seed := o.Seed ^ int64(uint64(len(ref)+1)*0x9e3779b97f4a7c15)
		ref = refGrow(o, ref, progs, y, old, o.BoostTrees, seed)
		sameTrees(t, fmt.Sprintf("boost, tied=%v", tied), refTrees(m), ref)
	}
}

// TestOrderClasses classifies hand-built columns: a column joins the
// class of a lower one only when it orders the rows alike and ties them
// alike, and a class is named by its lowest column.
func TestOrderClasses(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	x := []float64{0, 0, 0, 0, 2, 3, 4, 5}
	of := func(fn func(float64) float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = fn(v)
		}
		return out
	}
	cols := [][]float64{
		of(func(v float64) float64 { return 10 - v }), // 0: reversed
		x,               // 1
		slices.Clone(x), // 2: an exact copy
		of(func(v float64) float64 { return 2*v + 1 }),          // 3
		of(func(v float64) float64 { return math.Log2(1 + v) }), // 4
		{0, 0, 1, 1, 2, 3, 4, 5},                                // 5: x's order, other ties
		{0, math.Copysign(0, -1), 0, 0, 2, 3, 4, 5},             // 6: ±0 tie like x's 0s
		{-inf, -inf, -inf, -inf, 2, 3, 4, inf},                  // 7: ±Inf
		{0, 0, 0, 0, 2, 3, nan, 5},                              // 8: a NaN
		{0, 0, 0, 0, 2, 3, nan, 5},                              // 9: the same NaN column
		{7, 7, 7, 7, 7, 7, 7, 7},                                // 10: constant
		{0, 0, 1, 1, 2, 3, 4, 5},                                // 11: a copy of 5
		{10, 10, 10, 10, 8, 7, 6, 5},                            // 12: a copy of 0
		{0, 3, 0, 0, 1, 0, 0, 2},                                // 13
		{0, 3, 0, 0, 2, 0, 0, 1},                                // 14: 13's key, rows 4 and 7 swapped
	}
	// want[f] is the lowest feature of f's class, -1 for a constant one.
	want := []int{0, 1, 1, 1, 1, 5, 1, 1, 8, 9, -1, 5, 0, 13, 14}

	tr := borrowTrainer()
	defer tr.release()
	for i := range x {
		row := make([]float64, len(cols))
		for f, c := range cols {
			row[f] = c[i]
		}
		tr.rows = append(tr.rows[:i], row)
	}
	tr.reset(DefaultOpts(), 1)
	for f, w := range want {
		c := tr.col[f]
		if c < 0 {
			if w >= 0 {
				t.Errorf("feature %d: dropped as constant, want it in %d's class", f, w)
			}
			continue
		}
		k := tr.class[c]
		if got := tr.feat[tr.rep[k]]; got != w {
			t.Errorf("feature %d: in %d's class, want %d's", f, got, w)
		}
		// The class's list is the member's own (value, row) order.
		v := tr.vals[int(c)*tr.n:][:tr.n]
		byValueRow := func(a, b int32) int { return cmp.Or(cmp.Compare(v[a], v[b]), cmp.Compare(a, b)) }
		if list := tr.sorted[int(k)*tr.n:][:tr.n]; f != 8 && f != 9 && !slices.IsSortedFunc(list, byValueRow) {
			t.Errorf("feature %d: its class's list %v is not its (value, row) order", f, list)
		}
	}
	// 13 and 14 share a key, so 14 was checked against 13's list and
	// turned down, not kept apart by its key.
	if a, b := tr.key[tr.col[13]], tr.key[tr.col[14]]; a != b {
		t.Errorf("features 13 and 14: keys %x and %x, want one key", a, b)
	}
}

// ---- (b) determinism under ties and constant columns

func TestFingerprintEqualAcrossWorkersWithTies(t *testing.T) {
	progs, y := multiStmt(1300, 6, true, 22)
	old := 1200
	needParallel(t, progs[:old])
	var want uint64
	for _, workers := range []int{1, 2, 8} {
		o := DefaultOpts()
		o.Workers = workers
		m := NewCostModel(o)
		m.Fit(progs[:old], y[:old])
		m.Boost(progs, y, old)
		switch fp := m.Fingerprint(); {
		case workers == 1:
			want = fp
		case fp != want:
			t.Errorf("workers=%d: fingerprint %x, workers=1 trained %x", workers, fp, want)
		}
	}
}

// ---- (c) tie-break: of two identical columns the lower index wins

func TestDuplicateColumnSplitsOnLowerIndex(t *testing.T) {
	// The last two columns copy earlier ones, one continuous and one
	// with long runs of equal values: same (value, row) order, same
	// sums, so every gain on a copy ties its original exactly.
	progs, y := multiStmt(300, 6, true, 23)
	firstCopy := len(progs[0][0]) - 2
	o := DefaultOpts()
	o.FeatureSubsample = 1 // every node sees a copy beside its original
	m := NewCostModel(o)
	m.Fit(progs, y)
	splits := 0
	for _, tr := range refTrees(m) {
		for _, n := range tr.nodes {
			if n.leaf {
				continue
			}
			splits++
			if n.feature >= firstCopy {
				t.Fatalf("split on column %d, a copy of a lower column", n.feature)
			}
		}
	}
	if splits == 0 {
		t.Fatal("no splits at all: the test data is degenerate")
	}
}

// ---- (d) degenerate inputs end in a leaf

func TestDegenerateInputsReturnLeaf(t *testing.T) {
	one := func(m *CostModel) refNode {
		t.Helper()
		trees := refTrees(m)
		if len(trees) != m.Opts.NumTrees {
			t.Fatalf("%d trees, want %d", len(trees), m.Opts.NumTrees)
		}
		if len(trees[0].nodes) != 1 || !trees[0].nodes[0].leaf {
			t.Fatalf("first tree = %+v, want a single leaf", trees[0].nodes)
		}
		return trees[0].nodes[0]
	}
	// All targets equal: no split has positive gain.
	progs, y := multiStmt(64, 6, true, 24)
	for i := range y {
		y[i] = 0.5
		progs[i] = progs[i][:1]
	}
	m := NewCostModel(DefaultOpts())
	m.Fit(progs, y)
	if v := one(m).value; v != 0.5 {
		t.Errorf("all-equal targets: leaf value %g, want 0.5", v)
	}
	// A single row.
	m = NewCostModel(DefaultOpts())
	m.Fit(progs[:1], y[:1])
	if v := one(m).value; v != 0.5 {
		t.Errorf("one row: leaf value %g, want 0.5", v)
	}
	// MinSamples 1 grows single-row leaves without running off a segment.
	o := DefaultOpts()
	o.MinSamples = 1
	o.MaxDepth = 12
	progs, y = multiStmt(40, 6, true, 25)
	m = NewCostModel(o)
	m.Fit(progs, y)
	if !m.Trained() {
		t.Fatal("single-row leaves: not trained")
	}
	// Programs without statements train nothing and clear the model.
	m.Fit([][][]float64{{}, {}}, []float64{1, 1})
	if m.Trained() {
		t.Error("no statements: model should be untrained")
	}
}

// ---- (e) alloc gate: a tree costs its own two allocations, no more,
// and a call on a released trainer allocates its model and little else

func TestFitAllocsDoNotGrowPerTree(t *testing.T) {
	progs, y := multiStmt(1200, 8, true, 26)
	needParallel(t, progs)
	fit := func(trees int) float64 {
		o := DefaultOpts()
		o.Workers = 1
		o.NumTrees = trees
		return testing.AllocsPerRun(3, func() { NewCostModel(o).Fit(progs, y) })
	}
	few, many := fit(5), fit(45)
	// Per extra tree: the tree and its node slice.
	if perTree := (many - few) / 40; perTree > 2 {
		t.Errorf("%.1f allocations per extra tree (5 trees: %.0f, 45 trees: %.0f), want <= 2", perTree, few, many)
	}

	// About 512 rows: the first fit sizes a trainer, the second borrows
	// it and allocates the ensemble — its header, roots and slab. The
	// slab's share is measured as one make of its length, which rounds
	// the same way.
	progs, y = multiStmt(256, 8, true, 27)
	o := DefaultOpts()
	o.Workers = 1
	m := NewCostModel(o)
	m.Fit(progs, y)
	bytes := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	got := bytes(func() { m.Fit(progs, y) })
	slab := bytes(func() { slabSink = make([]node, len(m.snapshot().nodes)) })
	const slack = 512 // the ensemble header and its roots
	if got > slab+slack {
		t.Errorf("a fit on a released trainer allocated %d bytes; its slab takes %d, want at most %d more", got, slab, slack)
	}
}

var slabSink []node

// ---- (f) borrowed memory: a trainer's last call leaves no trace

// poisonFreeTrainers scribbles over every buffer of every trainer in the
// free list, to their capacity: a call that reads memory it did not
// write first then trains a different model.
func poisonFreeTrainers() {
	freeTrainers.Visit(func(t *trainer) {
		nan := math.NaN()
		for _, s := range [][]float64{t.vals, t.pred, t.progPred} {
			fill(s, nan)
		}
		for _, s := range [][]int32{t.lists, t.activeByDepth, t.col, t.rowProg, t.class, t.rep, t.members, t.bounds} {
			fill(s, 1<<30)
		}
		fill(t.key, 0)
		fill(t.feat, 1<<20)
		fill(t.grads, grad{nan, 1, 1})
		fill(t.progGrad, grad{nan, 1, 1})
		fill(t.best, split{gain: 1e300, pos: 1 << 30, col: 1 << 30})
		fill(t.mask, true)
		fill(t.left, 1)
		fill(t.nodes, node{threshold: -1, feature: 1 << 20, right: -1})
	})
}

// fill sets every element of s up to its capacity to v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// TestReusedTrainersMatchFresh interleaves Fit and Boost on three models
// of different row counts, widths and order classes — the narrow one on
// memory sized by the wide one, the wide one growing the narrow one's,
// and a third whose columns fall into different classes from call to
// call — with the free list poisoned before every call, and demands the
// fingerprints each model had when every call trained on a new trainer.
func TestReusedTrainersMatchFresh(t *testing.T) {
	type data struct {
		progs [][][]float64
		y     []float64
	}
	var sets [3]data
	sets[0].progs, sets[0].y = multiStmt(120, 6, false, 29) // narrow
	sets[1].progs, sets[1].y = multiStmt(500, 12, true, 28) // wide
	// drift: column 12 is 2x+1 of column 0 in the first 80 programs and
	// column 13 a copy of column 1 in the others; elsewhere both are noise.
	sets[2].progs, sets[2].y = multiStmt(160, 6, true, 32)
	rng := rand.New(rand.NewSource(33))
	for p, stmts := range sets[2].progs {
		for s, x := range stmts {
			a, b := rng.Float64(), rng.Float64()
			if p < 80 {
				a = 2*x[0] + 1
			} else {
				b = x[1]
			}
			stmts[s] = append(x, a, b)
		}
	}
	type call struct {
		set   int
		start int // -1: Fit, else Boost from start
		end   int
	}
	calls := []call{
		{0, -1, 80}, {1, -1, 400}, {2, -1, 80}, {0, 80, 120}, {2, 80, 160}, {1, 400, 450},
		{2, -1, 160}, {1, -1, 500}, {0, -1, 120}, {2, 40, 160}, {1, 450, 500}, {0, 60, 120},
	}
	run := func(before func()) []uint64 {
		o := DefaultOpts()
		o.Workers = 1
		models := [3]*CostModel{NewCostModel(o), NewCostModel(o), NewCostModel(o)}
		var fps []uint64
		for _, c := range calls {
			m, d := models[c.set], sets[c.set]
			before()
			if c.start < 0 {
				m.Fit(d.progs[:c.end], d.y[:c.end])
			} else {
				m.Boost(d.progs[:c.end], d.y[:c.end], c.start)
			}
			fps = append(fps, m.Fingerprint())
		}
		return fps
	}
	fresh := run(freeTrainers.Drain)
	freeTrainers.Drain()
	if reused := run(poisonFreeTrainers); !slices.Equal(reused, fresh) {
		t.Errorf("on reused trainers: fingerprints %x, on fresh ones %x", reused, fresh)
	}
	if err := freeTrainers.Check(); err != nil {
		t.Fatal(err)
	}
	if n := freeTrainers.Lent(); n != 0 {
		t.Errorf("%d trainers lent after every call returned", n)
	}
}

// TestConcurrentTrainingMatchesSerial trains two different models on two
// goroutines at once, several times over, so each borrows what the
// other released: each must end on its serial fingerprint.
func TestConcurrentTrainingMatchesSerial(t *testing.T) {
	type job struct {
		progs [][][]float64
		y     []float64
	}
	jobs := [2]job{}
	jobs[0].progs, jobs[0].y = multiStmt(300, 10, true, 30)
	jobs[1].progs, jobs[1].y = multiStmt(90, 6, false, 31)
	train := func(j job) uint64 {
		o := DefaultOpts()
		o.NumTrees = 10
		m := NewCostModel(o)
		old := len(j.progs) * 3 / 4
		m.Fit(j.progs[:old], j.y[:old])
		m.Boost(j.progs, j.y, old)
		return m.Fingerprint()
	}
	want := [2]uint64{train(jobs[0]), train(jobs[1])}
	var wg sync.WaitGroup
	var got [2][4]uint64
	for g := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range got[g] {
				got[g][r] = train(jobs[g])
			}
		}()
	}
	wg.Wait()
	for g := range jobs {
		for r, fp := range got[g] {
			if fp != want[g] {
				t.Errorf("model %d, round %d trained beside the other: fingerprint %x, serially %x", g, r, fp, want[g])
			}
		}
	}
}

// ---- (g) differential fuzz: few distinct values, so ties and columns
// constant within a node are the common case

// fuzzProgs decodes data into programs over 1–8 features of 4 values
// each: byte 0 picks the width, then each program is a head byte (1–3
// statements in its low bits, the label in the rest) and one byte per
// feature of each statement. A program the bytes run out in is dropped.
// With derived set, every statement gets three more columns, all of
// feature 0: log2(1+x), which orders and ties the rows alike and joins
// its class; min(x, 2), which merges its two highest values, so it may
// order the rows alike but ties them differently; and −x.
func fuzzProgs(data []byte, derived bool) (progs [][][]float64, y []float64) {
	if len(data) == 0 {
		return nil, nil
	}
	nf := 1 + int(data[0]%8)
	data = data[1:]
	for len(data) > 0 && len(progs) < 64 {
		head := data[0]
		stmts := 1 + int(head&3)%3
		if len(data) < 1+stmts*nf {
			break
		}
		var p [][]float64
		for s := 0; s < stmts; s++ {
			x := make([]float64, nf)
			for f := range x {
				x[f] = float64(data[1+s*nf+f] % 4)
			}
			if derived {
				x = append(x, math.Log2(1+x[0]), min(x[0], 2), -x[0])
			}
			p = append(p, x)
		}
		progs = append(progs, p)
		y = append(y, float64(head>>2)/63)
		data = data[1+stmts*nf:]
	}
	return progs, y
}

// fuzzOpts are the options of one fuzz input: MinSamples 0–4, MaxDepth
// 1–8, every feature sampled at every node or the default subsample.
func fuzzOpts(minSamples, maxDepth uint8, all bool) Opts {
	o := DefaultOpts()
	o.NumTrees, o.BoostTrees = 4, 3
	o.MinSamples = int(minSamples % 5)
	o.MaxDepth = 1 + int(maxDepth%8)
	o.Workers = 1
	if all {
		o.FeatureSubsample = 1
	}
	return o
}

// oneChildConstant is a seed whose first split, on feature 0, leaves
// feature 1 constant on its left and varying on its right: programs
// with feature 0 at 0 are slow and all have feature 1 at 2, the others
// are fast and spread feature 1 over all four values.
func oneChildConstant() []byte {
	data := []byte{1} // two features
	for i := 0; i < 24; i++ {
		if i%2 == 0 {
			data = append(data, 0<<2, 0, 2) // one statement, label 0
		} else {
			data = append(data, 60<<2, 3, byte(i/2)) // one statement, label 60/63
		}
	}
	return data
}

// risingFeature0 is a seed of one-statement programs whose feature 0
// rises with the row, 0 to 3, eight programs each, whose feature 1
// alternates 0 and 2, and whose label jumps between 2 and 3: min(x, 2)
// then has feature 0's (value, row) order but not its ties, and the best
// split of feature 0 is the one it lacks. Classifying on the order alone
// puts min(x, 2) in feature 0's class and fails this seed.
func risingFeature0() []byte {
	data := []byte{1} // two features
	for i := 0; i < 32; i++ {
		x0 := byte(i / 8)
		label := byte(5 * x0)
		if x0 == 3 {
			label = 60
		}
		data = append(data, (label+byte(i%3))<<2, x0, byte(2*i))
	}
	return data
}

func FuzzPresortedMatchesReference(f *testing.F) {
	random := func(n int, seed int64) []byte {
		b := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(b)
		return b
	}
	f.Add(uint8(0), uint8(7), false, false, random(600, 1))
	f.Add(uint8(0), uint8(7), true, false, oneChildConstant())
	f.Add(uint8(1), uint8(3), true, false, oneChildConstant())
	f.Add(uint8(4), uint8(5), false, false, random(400, 2))
	f.Add(uint8(2), uint8(7), true, false, random(300, 3))
	// The derived columns: log2(1+x) a member of feature 0's class on
	// random rows, min(x, 2) in its order but not its ties, and −x.
	f.Add(uint8(1), uint8(7), false, true, random(600, 4))
	f.Add(uint8(1), uint8(7), false, true, risingFeature0())
	f.Add(uint8(0), uint8(5), true, true, oneChildConstant())
	f.Fuzz(func(t *testing.T, minSamples, maxDepth uint8, all, derived bool, data []byte) {
		progs, y := fuzzProgs(data, derived)
		if len(progs) == 0 {
			return
		}
		o := fuzzOpts(minSamples, maxDepth, all)
		m := NewCostModel(o)
		m.Fit(progs, y)
		sameTrees(t, "fit", refTrees(m), refGrow(o, nil, progs, y, 0, o.NumTrees, o.Seed))
		if len(progs) < 2 {
			return
		}
		old := len(progs) / 2
		m.Fit(progs[:old], y[:old])
		ref := refGrow(o, nil, progs[:old], y[:old], 0, o.NumTrees, o.Seed)
		sameTrees(t, "fit of the first half", refTrees(m), ref)
		m.Boost(progs, y, old)
		seed := o.Seed ^ int64(uint64(len(ref)+1)*0x9e3779b97f4a7c15)
		sameTrees(t, "fit+boost", refTrees(m), refGrow(o, ref, progs, y, old, o.BoostTrees, seed))
	})
}
