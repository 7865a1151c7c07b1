package xgb

import (
	"math/rand"
	"testing"
)

// TestFingerprintStableAcrossLayout pins the trained-model fingerprints
// to the values they had when training built one node slice per tree:
// the slab is a layout only, and Fingerprint hashes tree-relative child
// indices, so a model hashes exactly as it did then (the resume/fleet
// determinism suites compare these fingerprints across runs and
// versions).
func TestFingerprintStableAcrossLayout(t *testing.T) {
	progs, y := syntheticTraining(42, 60, 3, 16)
	o := DefaultOpts()
	o.NumTrees = 12
	m := NewCostModel(o)
	m.Fit(progs, y)
	if got, want := m.Fingerprint(), uint64(0x4ae99eec0ebb4103); got != want {
		t.Errorf("Fit fingerprint drifted across the layout change: %#x, want %#x", got, want)
	}
	m.Boost(progs, y, 40)
	if got, want := m.Fingerprint(), uint64(0xe6d9b149ed7b54ed); got != want {
		t.Errorf("Boost fingerprint drifted across the layout change: %#x, want %#x", got, want)
	}
}

// syntheticTraining builds the deterministic training set shared by the
// fingerprint pin and the allocation gate.
func syntheticTraining(seed int64, nProg, nStmt, dim int) ([][][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	progs := make([][][]float64, nProg)
	y := make([]float64, nProg)
	for p := range progs {
		stmts := make([][]float64, nStmt)
		for s := range stmts {
			v := make([]float64, dim)
			for i := range v {
				v[i] = rng.Float64() * 10
			}
			stmts[s] = v
		}
		progs[p] = stmts
		y[p] = rng.Float64()
	}
	return progs, y
}

// TestScoreZeroAlloc pins the flattened predict path at zero
// allocations per program: slab walks never touch the heap, so any
// regression here re-introduces per-score garbage on the search's
// hottest loop.
func TestScoreZeroAlloc(t *testing.T) {
	progs, y := syntheticTraining(7, 40, 3, 16)
	o := DefaultOpts()
	o.NumTrees = 10
	m := NewCostModel(o)
	m.Fit(progs, y)
	var sink float64
	if n := testing.AllocsPerRun(200, func() {
		sink = m.Score(progs[0])
		sink += m.ScoreStmt(progs[1][0])
	}); n != 0 {
		t.Errorf("flattened score path allocates %.1f objects/op, want 0", n)
	}
	_ = sink
}
