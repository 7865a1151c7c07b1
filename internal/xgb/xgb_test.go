package xgb

import (
	"math"
	"math/rand"
	"testing"
)

// synth builds a synthetic single-statement regression problem where the
// label is a nonlinear function of a few features.
func synth(n int, seed int64) (progs [][][]float64, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := make([]float64, 10)
		for j := range x {
			x[j] = rng.Float64()
		}
		label := 0.6*x[0] + 0.3*x[3]*x[3] + 0.1*math.Sin(6*x[7])
		progs = append(progs, [][]float64{x})
		y = append(y, label)
	}
	return
}

func TestCostModelLearnsRanking(t *testing.T) {
	progs, y := synth(600, 1)
	m := NewCostModel(DefaultOpts())
	m.Fit(progs[:400], y[:400])
	if !m.Trained() {
		t.Fatal("model should be trained")
	}
	pred := make([]float64, 200)
	truth := make([]float64, 200)
	for i := 0; i < 200; i++ {
		pred[i] = m.Score(progs[400+i])
		truth[i] = y[400+i]
	}
	acc := PairwiseAccuracy(pred, truth)
	if acc < 0.8 {
		t.Errorf("pairwise accuracy = %.3f, want >= 0.8", acc)
	}
	rec := RecallAtK(pred, truth, 20)
	if rec < 0.3 {
		t.Errorf("recall@20 = %.3f, want >= 0.3", rec)
	}
}

func TestUntrainedModelScoresZero(t *testing.T) {
	m := NewCostModel(DefaultOpts())
	if m.Trained() {
		t.Error("fresh model should be untrained")
	}
	if got := m.Score([][]float64{{1, 2, 3}}); got != 0 {
		t.Errorf("untrained score = %g, want 0", got)
	}
}

func TestSumOverStatements(t *testing.T) {
	// Two-statement programs: label = x_a[0] + x_b[0]. The model must
	// learn the additive structure.
	rng := rand.New(rand.NewSource(2))
	var progs [][][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a := []float64{rng.Float64(), rng.Float64()}
		b := []float64{rng.Float64(), rng.Float64()}
		progs = append(progs, [][]float64{a, b})
		y = append(y, 0.5*a[0]+0.5*b[0])
	}
	m := NewCostModel(DefaultOpts())
	m.Fit(progs[:400], y[:400])
	pred := make([]float64, 100)
	truth := make([]float64, 100)
	for i := 0; i < 100; i++ {
		pred[i] = m.Score(progs[400+i])
		truth[i] = y[400+i]
	}
	if acc := PairwiseAccuracy(pred, truth); acc < 0.75 {
		t.Errorf("additive pairwise accuracy = %.3f, want >= 0.75", acc)
	}
}

func TestHighThroughputWeighting(t *testing.T) {
	// With weight = y, the model should fit fast programs better than
	// slow ones. Construct labels with label-dependent noise and check
	// the top decile is ranked well.
	rng := rand.New(rand.NewSource(3))
	var progs [][][]float64
	var y []float64
	for i := 0; i < 800; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		progs = append(progs, [][]float64{x})
		y = append(y, x[0])
	}
	m := NewCostModel(DefaultOpts())
	m.Fit(progs, y)
	// Rank all; recall at 80 (top decile) should be strong.
	pred := make([]float64, len(progs))
	for i := range progs {
		pred[i] = m.Score(progs[i])
	}
	if rec := RecallAtK(pred, y, 80); rec < 0.6 {
		t.Errorf("top-decile recall = %.3f, want >= 0.6", rec)
	}
}

func TestPairwiseAccuracyMetric(t *testing.T) {
	truth := []float64{1, 2, 3, 4}
	if got := PairwiseAccuracy([]float64{1, 2, 3, 4}, truth); got != 1 {
		t.Errorf("perfect ranking accuracy = %g, want 1", got)
	}
	if got := PairwiseAccuracy([]float64{4, 3, 2, 1}, truth); got != 0 {
		t.Errorf("reversed ranking accuracy = %g, want 0", got)
	}
	if got := PairwiseAccuracy([]float64{0, 0, 0, 0}, truth); got != 0.5 {
		t.Errorf("constant prediction accuracy = %g, want 0.5", got)
	}
}

func TestRecallAtKMetric(t *testing.T) {
	truth := []float64{10, 9, 8, 1, 2, 3}
	if got := RecallAtK([]float64{10, 9, 8, 1, 2, 3}, truth, 3); got != 1 {
		t.Errorf("perfect recall = %g, want 1", got)
	}
	if got := RecallAtK([]float64{1, 2, 3, 10, 9, 8}, truth, 3); got != 0 {
		t.Errorf("inverted recall = %g, want 0", got)
	}
}

func TestDeterministicTraining(t *testing.T) {
	progs, y := synth(200, 5)
	a := NewCostModel(DefaultOpts())
	a.Fit(progs, y)
	b := NewCostModel(DefaultOpts())
	b.Fit(progs, y)
	for i := 0; i < 20; i++ {
		if a.Score(progs[i]) != b.Score(progs[i]) {
			t.Fatal("same-seed training should be deterministic")
		}
	}
}

func TestFingerprintIdentifiesEnsembles(t *testing.T) {
	m := NewCostModel(DefaultOpts())
	empty := m.Fingerprint()
	if empty != NewCostModel(DefaultOpts()).Fingerprint() {
		t.Error("untrained fingerprints must match")
	}
	progs, y := synth(300, 1)
	m.Fit(progs, y)
	trained := m.Fingerprint()
	if trained == empty {
		t.Error("training must change the fingerprint")
	}
	// Identical training runs (any worker count) hash identically.
	for _, workers := range []int{1, 8} {
		o := DefaultOpts()
		o.Workers = workers
		m2 := NewCostModel(o)
		m2.Fit(progs, y)
		if m2.Fingerprint() != trained {
			t.Errorf("workers=%d: fingerprint diverged", workers)
		}
	}
	// Different data trains a different ensemble.
	progs2, y2 := synth(300, 2)
	m3 := NewCostModel(DefaultOpts())
	m3.Fit(progs2, y2)
	if m3.Fingerprint() == trained {
		t.Error("different training data should change the fingerprint")
	}
}

func TestBoostAppendsResidualTrees(t *testing.T) {
	progs, y := synth(400, 7)
	m := NewCostModel(DefaultOpts())
	m.Fit(progs[:300], y[:300])
	base := m.NumTrees()
	if base != m.Opts.NumTrees {
		t.Fatalf("full fit grew %d trees, want %d", base, m.Opts.NumTrees)
	}
	before := m.Fingerprint()
	m.Boost(progs, y, 300)
	if got, want := m.NumTrees(), base+m.Opts.BoostTrees; got != want {
		t.Fatalf("boost grew to %d trees, want %d", got, want)
	}
	if m.Fingerprint() == before {
		t.Error("boosting on new data must change the ensemble")
	}
	// Boosting should keep (or improve) ranking quality on the new rows.
	pred := make([]float64, 100)
	truth := make([]float64, 100)
	for i := 0; i < 100; i++ {
		pred[i] = m.Score(progs[300+i])
		truth[i] = y[300+i]
	}
	if acc := PairwiseAccuracy(pred, truth); acc < 0.7 {
		t.Errorf("post-boost pairwise accuracy = %.3f, want >= 0.7", acc)
	}
}

func TestBoostDeterministic(t *testing.T) {
	progs, y := synth(300, 9)
	run := func() uint64 {
		m := NewCostModel(DefaultOpts())
		m.Fit(progs[:200], y[:200])
		m.Boost(progs[:250], y[:250], 200)
		m.Boost(progs, y, 250)
		return m.Fingerprint()
	}
	if run() != run() {
		t.Fatal("identical fit+boost call sequences must produce identical ensembles")
	}
	// Different call sequences over the same final data may differ — but a
	// boost must never be the same as a fresh full fit (distinct tree
	// count alone guarantees it).
	full := NewCostModel(DefaultOpts())
	full.Fit(progs, y)
	boosted := NewCostModel(DefaultOpts())
	boosted.Fit(progs[:200], y[:200])
	boosted.Boost(progs, y, 200)
	if full.NumTrees() == boosted.NumTrees() {
		t.Fatalf("tree counts: full=%d boosted=%d, expected to differ", full.NumTrees(), boosted.NumTrees())
	}
}

func TestBoostFallsBackToFullFit(t *testing.T) {
	progs, y := synth(200, 11)
	// Untrained model: Boost must behave exactly like Fit.
	a := NewCostModel(DefaultOpts())
	a.Boost(progs, y, 100)
	b := NewCostModel(DefaultOpts())
	b.Fit(progs, y)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("Boost on an untrained model must equal a full Fit")
	}
	// newStart <= 0 likewise refits from scratch.
	c := NewCostModel(DefaultOpts())
	c.Fit(progs[:100], y[:100])
	c.Boost(progs, y, 0)
	d := NewCostModel(DefaultOpts())
	d.Fit(progs[:100], y[:100])
	d.Fit(progs, y)
	if c.Fingerprint() != d.Fingerprint() {
		t.Error("Boost(newStart=0) must equal a full refit")
	}
	// No new rows: a boost is a no-op.
	e := NewCostModel(DefaultOpts())
	e.Fit(progs, y)
	fp := e.Fingerprint()
	e.Boost(progs, y, len(progs))
	if e.Fingerprint() != fp {
		t.Error("Boost with no new rows must leave the ensemble untouched")
	}
}

// BenchmarkFitVsBoost times one round of model updating at a realistic
// accumulated-data size: a full refit over all rows vs boosting the
// previous ensemble with the newest batch only.
func BenchmarkFitVsBoost(b *testing.B) {
	progs, y := synth(1024, 13)
	newStart := len(progs) - 64 // one measurement batch of new rows
	b.Run("mode=fit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := NewCostModel(DefaultOpts())
			m.Fit(progs[:newStart], y[:newStart])
			b.StartTimer()
			m.Fit(progs, y)
			b.StopTimer()
		}
	})
	b.Run("mode=boost", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := NewCostModel(DefaultOpts())
			m.Fit(progs[:newStart], y[:newStart])
			b.StartTimer()
			m.Boost(progs, y, newStart)
			b.StopTimer()
		}
	})
}
