// Package xgb implements the learned cost model of §5.2: gradient boosted
// regression trees trained with a weighted squared error on the
// sum-over-statements objective
//
//	loss(f, P, y) = y · (Σ_{s∈S(P)} f(s) − y)²
//
// where S(P) are the innermost statements of program P and y is the
// throughput of P normalized to [0,1] within its DAG. The model predicts a
// score per statement; a program's score is the sum.
//
// The model is safe for concurrent prediction while a training round is
// in flight: Fit builds the new ensemble aside and swaps it in atomically,
// and Score/ScoreStmt/Trained read a snapshot. Training groups the
// feature columns of a call into order classes — columns that sort the
// rows alike and tie them alike — sorts one row list per class once per
// call, and finds splits by linear scans over the presorted lists
// (presort.go), visiting at each node only the classes that still vary
// over its rows; a class's scan stands for all of its members, and the
// winner takes its own threshold, so the trees are those a scan of every
// column would grow. Large nodes shard the per-class scan across a
// worker pool with a deterministic reduction, so trained models are
// bit-identical for any worker count. A call borrows all of its scratch
// from a bounded free list of trainers, so what it allocates is the
// model it returns.
package xgb

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"sync"
)

// Opts configures training.
type Opts struct {
	NumTrees         int
	MaxDepth         int
	MinSamples       int
	LearningRate     float64
	FeatureSubsample float64
	Seed             int64
	// BoostTrees is how many residual trees one Boost call appends to a
	// trained ensemble (default 10): a warm-started round costs
	// BoostTrees trees over the round's new rows instead of NumTrees
	// trees over all rows.
	BoostTrees int
	// MaxTrees bounds the ensemble growth under repeated Boost calls
	// (default 3*NumTrees): callers fall back to a full Fit once the
	// ensemble would exceed it, keeping prediction cost flat.
	MaxTrees int
	// Workers bounds the goroutines used by the presort and the
	// split-finding scan (0 = GOMAXPROCS). Trained models are identical
	// for any value.
	Workers int
}

// DefaultOpts returns the options used throughout the evaluation.
func DefaultOpts() Opts {
	return Opts{
		NumTrees:         30,
		MaxDepth:         6,
		MinSamples:       4,
		LearningRate:     0.3,
		FeatureSubsample: 0.4,
		Seed:             1,
		BoostTrees:       10,
		MaxTrees:         90,
	}
}

// CostModel is the per-statement GBDT ensemble with the sum-over-
// statements program score. Prediction is safe for concurrent use, and
// may overlap a Fit call: readers see either the previous or the new
// ensemble, never a partial one.
type CostModel struct {
	Opts Opts

	mu  sync.RWMutex
	ens *ensemble
}

// NewCostModel returns an untrained cost model (scores 0 for everything).
func NewCostModel(o Opts) *CostModel { return &CostModel{Opts: o} }

// snapshot returns the current ensemble for lock-free prediction (nil
// when untrained).
func (c *CostModel) snapshot() *ensemble {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ens
}

// swap atomically installs a new ensemble (one without trees clears the
// model).
func (c *CostModel) swap(e *ensemble) {
	if e != nil && len(e.roots) == 0 {
		e = nil
	}
	c.mu.Lock()
	c.ens = e
	c.mu.Unlock()
}

// Trained reports whether Fit has been called with data.
func (c *CostModel) Trained() bool { return c.snapshot() != nil }

// Fit trains the model from scratch on programs (per-statement feature
// lists) and their normalized throughputs y ∈ [0, 1]. The loss weight of
// each program is its throughput, emphasizing fast programs (§5.2). The
// new ensemble is built aside and swapped in atomically, so concurrent
// Score calls keep working against the previous ensemble.
func (c *CostModel) Fit(progs [][][]float64, y []float64) {
	c.swap(c.grow(nil, progs, y, 0, c.Opts.NumTrees, c.Opts.Seed))
}

// Boost warm-starts training from the current ensemble instead of
// refitting from scratch: the existing trees are kept verbatim and
// Opts.BoostTrees new residual trees are fitted on the programs from
// newStart onward (the rows added since the last fit), against the
// residual of the current ensemble's prediction. progs and y cover ALL
// accumulated programs — labels are normalized over the full set by the
// caller — but only the new slice is scanned, so one warm round costs
// O(new rows) instead of O(all rows).
//
// Boosting is only a faithful continuation while the old labels are
// unchanged: if the per-DAG normalization shifted (a new best program
// rescales every y), the caller must fall back to a full Fit — see
// policy's fingerprint-drift checkpoints. Determinism matches Fit: the
// residual-tree RNG is derived from (Seed, current ensemble size), so
// any run issuing the same Fit/Boost call sequence over the same data
// reproduces the exact same ensemble at any worker count.
func (c *CostModel) Boost(progs [][][]float64, y []float64, newStart int) {
	prev := c.snapshot()
	if prev == nil || newStart <= 0 {
		c.Fit(progs, y)
		return
	}
	if newStart >= len(progs) {
		return // nothing new: the current ensemble is already the fit
	}
	boostTrees := c.Opts.BoostTrees
	if boostTrees <= 0 {
		boostTrees = 10
	}
	// Decorrelate the residual trees' feature subsample from the full
	// fit's: the stream is a pure function of (Seed, ensemble size), so
	// identical call sequences reproduce identical models.
	seed := c.Opts.Seed ^ int64(uint64(len(prev.roots)+1)*0x9e3779b97f4a7c15)
	c.swap(c.grow(prev, progs, y, newStart, boostTrees, seed))
}

// grow is the boosting recurrence behind Fit and Boost: it fits nTrees
// residual trees to the statements of progs[first:], starting from the
// predictions of prev (nil = the empty ensemble), and returns a new
// ensemble of prev's trees followed by the new ones — the trainer appends
// every tree to a copy of prev's slab in the layout prediction walks.
// All of the call's scratch is a borrowed trainer's; what it allocates
// is the returned ensemble. Without a single statement to train on it
// returns prev itself.
func (c *CostModel) grow(prev *ensemble, progs [][][]float64, y []float64, first, nTrees int, seed int64) *ensemble {
	t := borrowTrainer()
	defer t.release()
	t.rows, t.rowProg = t.rows[:0], t.rowProg[:0]
	for p, stmts := range progs[first:] {
		for _, s := range stmts {
			t.rows = append(t.rows, s)
			t.rowProg = append(t.rowProg, int32(p))
		}
	}
	if len(t.rows) == 0 {
		return prev
	}
	t.reset(c.Opts, seed)
	rows, pred := t.rows, t.pred
	e := &ensemble{lr: c.Opts.LearningRate}
	if prev != nil {
		// Readers may be walking prev: the new trees go behind a copy.
		t.nodes, e.roots = append(t.nodes, prev.nodes...), prev.roots
		t.pl.Map(len(rows), func(i int) {
			pred[i] = prev.scoreStmt(rows[i])
		})
	}
	e.roots = append(make([]int32, 0, len(e.roots)+nTrees), e.roots...)
	// Per program: the summed prediction of its statements, then the
	// sum-over-statements loss's terms, shared by all of its rows.
	t.progPred = resize(t.progPred, len(progs)-first)
	t.progGrad = resize(t.progGrad, len(progs)-first)
	progPred, progGrad := t.progPred, t.progGrad
	const minWeight = 0.05
	for round := 0; round < nTrees; round++ {
		clear(progPred)
		for i, p := range t.rowProg {
			progPred[p] += pred[i]
		}
		for p, stmts := range progs[first:] {
			yp := y[first+p]
			target := (yp - progPred[p]) / float64(len(stmts))
			w := math.Max(yp, minWeight)
			progGrad[p] = grad{w: w, wy: w * target, wyy: w * target * target}
		}
		for i, p := range t.rowProg {
			t.grads[i] = progGrad[p]
		}
		e.roots = append(e.roots, t.fitTree())
	}
	// The slab goes back with the trainer: the model keeps an exact copy.
	e.nodes = make([]node, len(t.nodes))
	copy(e.nodes, t.nodes)
	return e
}

// NumTrees returns the current ensemble size (0 when untrained). Policy
// uses it to bound Boost growth against Opts.MaxTrees.
func (c *CostModel) NumTrees() int {
	if e := c.snapshot(); e != nil {
		return len(e.roots)
	}
	return 0
}

// Score returns the model's predicted fitness (higher = faster) for a
// program given its per-statement features: one running sum over the
// statements, each adding its trees' leaves in ensemble order.
func (c *CostModel) Score(stmts [][]float64) float64 {
	e := c.snapshot()
	if e == nil {
		return 0
	}
	var s float64
	for _, st := range stmts {
		s = e.addStmt(s, st)
	}
	return s
}

// Fingerprint returns an FNV-1a hash over the complete ensemble
// structure (tree shapes, split features/thresholds, leaf values). Two
// models score every input identically iff their fingerprints match, so
// the persistence layer's determinism checks can assert that a resumed
// search retrained to the exact model of an uninterrupted run. The
// untrained model hashes to a fixed value. Child indices are hashed
// relative to their tree's root, so a tree hashes the same wherever it
// lies in the slab.
func (c *CostModel) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	var e ensemble // the untrained model: no trees
	if trained := c.snapshot(); trained != nil {
		e = *trained
	}
	w64(uint64(len(e.roots)))
	for ti := range e.roots {
		root, nodes := e.tree(ti)
		w64(uint64(len(nodes)))
		for i, n := range nodes {
			if n.feature == leafMark {
				w64(^uint64(0))
				w64(math.Float64bits(n.threshold))
				continue
			}
			w64(uint64(n.feature))
			w64(math.Float64bits(n.threshold))
			w64(uint64(i + 1))
			w64(uint64(n.right - root))
		}
	}
	return h.Sum64()
}

// ScoreStmt returns the per-statement score (used by node-based crossover
// to pick the better parent per node, §5.1).
func (c *CostModel) ScoreStmt(stmt []float64) float64 {
	e := c.snapshot()
	if e == nil {
		return 0
	}
	return e.scoreStmt(stmt)
}

// ---- Ranking metrics (Figure 3) ----

// PairwiseAccuracy returns the fraction of program pairs whose predicted
// order matches the ground-truth order. Random predictions score 0.5.
func PairwiseAccuracy(pred, truth []float64) float64 {
	n := len(pred)
	if n < 2 {
		return 1
	}
	var correct, total float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if truth[i] == truth[j] {
				continue
			}
			total++
			if pred[i] == pred[j] {
				correct += 0.5
			} else if (pred[i] > pred[j]) == (truth[i] > truth[j]) {
				correct++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return correct / total
}

// RecallAtK returns |G ∩ P| / k where G is the ground-truth top-k set and
// P the predicted top-k set (the recall@k of top-k from §2).
func RecallAtK(pred, truth []float64, k int) float64 {
	n := len(pred)
	if k > n {
		k = n
	}
	if k == 0 {
		return 0
	}
	top := func(v []float64) map[int]bool {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
		out := map[int]bool{}
		for _, i := range idx[:k] {
			out[i] = true
		}
		return out
	}
	g, p := top(truth), top(pred)
	inter := 0
	for i := range g {
		if p[i] {
			inter++
		}
	}
	return float64(inter) / float64(k)
}
