package sched

import (
	"math"
	"testing"
)

// fakeTuner has a scripted improvement curve: latency(t) = base *
// decay^t + floor.
type fakeTuner struct {
	name  string
	base  float64
	decay float64
	floor float64
	tag   string
	flops float64
	t     int
}

func (f *fakeTuner) Name() string { return f.name }
func (f *fakeTuner) BestLatency() float64 {
	if f.t == 0 {
		return math.Inf(1)
	}
	return f.base*math.Pow(f.decay, float64(f.t)) + f.floor
}
func (f *fakeTuner) AllocateUnit()         { f.t++ }
func (f *fakeTuner) Prepare()              {}
func (f *fakeTuner) TaskFlops() float64    { return f.flops }
func (f *fakeTuner) SimilarityTag() string { return f.tag }

func twoDNNSetup() ([]Tuner, []DNN, []*fakeTuner) {
	// Task 0: big bottleneck with lots of headroom. Task 1: small, already
	// near optimal. Task 2: medium.
	ts := []*fakeTuner{
		{name: "conv_big", base: 100, decay: 0.8, floor: 5, tag: "conv3x3", flops: 1e9},
		{name: "conv_small", base: 2, decay: 0.99, floor: 1.9, tag: "conv1x1", flops: 1e7},
		{name: "gemm", base: 20, decay: 0.9, floor: 4, tag: "gemm", flops: 4e8},
	}
	tuners := []Tuner{ts[0], ts[1], ts[2]}
	dnns := []DNN{{
		Name:    "net",
		Tasks:   []int{0, 1, 2},
		Weights: []float64{3, 10, 1},
	}}
	return tuners, dnns, ts
}

func TestGradientBeatsRoundRobin(t *testing.T) {
	run := func(rr bool) float64 {
		tuners, dnns, _ := twoDNNSetup()
		opts := DefaultOptions()
		opts.RoundRobin = rr
		opts.EpsGreedy = 0
		s := New(tuners, F1{dnns}, opts)
		s.Run(30)
		return s.Objective.Cost(s.latencies())
	}
	grad := run(false)
	rr := run(true)
	if grad >= rr {
		t.Errorf("gradient scheduling (%.3g) should beat round-robin (%.3g) at equal budget", grad, rr)
	}
	t.Logf("gradient %.4g vs round-robin %.4g", grad, rr)
}

func TestSchedulerPrioritizesBottleneck(t *testing.T) {
	tuners, dnns, ts := twoDNNSetup()
	opts := DefaultOptions()
	opts.EpsGreedy = 0
	s := New(tuners, F1{dnns}, opts)
	s.Run(30)
	if ts[0].t <= ts[1].t {
		t.Errorf("bottleneck task got %d units, saturated task got %d", ts[0].t, ts[1].t)
	}
}

func TestWarmupTouchesAllTasks(t *testing.T) {
	tuners, dnns, ts := twoDNNSetup()
	s := New(tuners, F1{dnns}, DefaultOptions())
	s.Run(len(tuners))
	for i, f := range ts {
		if f.t != 1 {
			t.Errorf("task %d got %d units in warm-up, want 1", i, f.t)
		}
	}
}

func TestObjectiveF1(t *testing.T) {
	dnns := []DNN{
		{Tasks: []int{0, 1}, Weights: []float64{2, 1}},
		{Tasks: []int{1}, Weights: []float64{3}},
	}
	g := []float64{5, 7}
	f := F1{dnns}
	if got, want := f.Cost(g), 2*5+1*7+3*7.0; got != want {
		t.Errorf("f1 cost = %g, want %g", got, want)
	}
	pg := f.PartialG(g)
	if pg[0] != 2 || pg[1] != 4 {
		t.Errorf("f1 partials = %v, want [2 4]", pg)
	}
}

func TestObjectiveF2StopsAtRequirement(t *testing.T) {
	dnns := []DNN{{Tasks: []int{0}, Weights: []float64{1}, LatencyReq: 10}}
	f := F2{dnns}
	// Above requirement: gradient active.
	if pg := f.PartialG([]float64{20}); pg[0] != 1 {
		t.Errorf("above req partial = %v, want 1", pg[0])
	}
	// Below requirement: no gradient, cost clamps at L_j.
	if pg := f.PartialG([]float64{5}); pg[0] != 0 {
		t.Errorf("below req partial = %v, want 0", pg[0])
	}
	if got := f.Cost([]float64{5}); got != 10 {
		t.Errorf("cost below req = %g, want 10", got)
	}
}

func TestObjectiveF3GeomeanSpeedup(t *testing.T) {
	dnns := []DNN{
		{Tasks: []int{0}, Weights: []float64{1}, RefLatency: 10},
		{Tasks: []int{1}, Weights: []float64{1}, RefLatency: 20},
	}
	f := F3{dnns}
	// Latencies equal to references: speedup 1, cost -1.
	if got := f.Cost([]float64{10, 20}); math.Abs(got+1) > 1e-12 {
		t.Errorf("f3 cost = %g, want -1", got)
	}
	// Halving both latencies doubles the geomean speedup.
	if got := f.Cost([]float64{5, 10}); math.Abs(got+2) > 1e-12 {
		t.Errorf("f3 cost = %g, want -2", got)
	}
	// Partials are positive (reducing latency reduces cost).
	for i, p := range f.PartialG([]float64{10, 20}) {
		if p <= 0 {
			t.Errorf("f3 partial %d = %g, want > 0", i, p)
		}
	}
}

func TestObjectiveF4EarlyStopping(t *testing.T) {
	dnns := []DNN{{Tasks: []int{0, 1}, Weights: []float64{1, 1}}}
	converged := map[int]bool{0: true}
	f := F4{DNNs: dnns, Converged: func(i int) bool { return converged[i] }}
	pg := f.PartialG([]float64{5, 5})
	if pg[0] != 0 {
		t.Error("converged task should have zero gradient")
	}
	if pg[1] != 1 {
		t.Error("active task should keep its gradient")
	}
}

func TestSimilarityPrediction(t *testing.T) {
	// Two similar conv tasks: one tuned well (high flops/s), one
	// untouched after warm-up with the same flops. The similarity term
	// should predict improvement and attract allocation relative to a
	// dissimilar saturated task.
	ts := []*fakeTuner{
		{name: "conv_a", base: 10, decay: 0.5, floor: 0.5, tag: "conv", flops: 1e9},
		{name: "conv_b", base: 50, decay: 0.5, floor: 0.5, tag: "conv", flops: 1e9},
		{name: "other", base: 1, decay: 0.999, floor: 0.99, tag: "misc", flops: 1e6},
	}
	dnns := []DNN{{Tasks: []int{0, 1, 2}, Weights: []float64{1, 1, 1}}}
	opts := DefaultOptions()
	opts.EpsGreedy = 0
	s := New([]Tuner{ts[0], ts[1], ts[2]}, F1{dnns}, opts)
	s.Run(20)
	if ts[1].t <= ts[2].t {
		t.Errorf("similar-to-fast task got %d units, saturated misc task got %d", ts[1].t, ts[2].t)
	}
}

func TestConvergenceDetection(t *testing.T) {
	ts := []*fakeTuner{{name: "flat", base: 0, decay: 1, floor: 5, tag: "x", flops: 1}}
	opts := DefaultOptions()
	opts.ESWindow = 3
	s := New([]Tuner{ts[0]}, F1{[]DNN{{Tasks: []int{0}, Weights: []float64{1}}}}, opts)
	s.Run(6)
	if !s.Converged(0) {
		t.Error("flat task should be detected as converged after ESWindow units")
	}
}

// TestRunDeterministicAcrossWorkers checks the scheduler's side of the
// determinism contract: allocation order, per-task units and the cost
// curve are identical for any Workers value, in both gradient and
// round-robin mode (where whole cycles run concurrently).
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, rr := range []bool{false, true} {
		run := func(workers int) ([]float64, []int) {
			tuners, dnns, ts := twoDNNSetup()
			opts := DefaultOptions()
			opts.RoundRobin = rr
			opts.Workers = workers
			s := New(tuners, F1{dnns}, opts)
			s.Run(30)
			units := make([]int, len(ts))
			for i, f := range ts {
				units[i] = f.t
			}
			return s.CostCurve, units
		}
		curve1, units1 := run(1)
		curve8, units8 := run(8)
		for i := range units1 {
			if units1[i] != units8[i] {
				t.Errorf("rr=%v: task %d units diverged: %d vs %d", rr, i, units1[i], units8[i])
			}
		}
		if len(curve1) != len(curve8) {
			t.Fatalf("rr=%v: cost curve length diverged: %d vs %d", rr, len(curve1), len(curve8))
		}
		for i := range curve1 {
			if curve1[i] != curve8[i] {
				t.Errorf("rr=%v: cost curve diverged at %d: %g vs %g", rr, i, curve1[i], curve8[i])
			}
		}
	}
}

func TestCostCurveMonotoneForF1(t *testing.T) {
	tuners, dnns, _ := twoDNNSetup()
	s := New(tuners, F1{dnns}, DefaultOptions())
	s.Run(20)
	for i := 1; i < len(s.CostCurve); i++ {
		if s.CostCurve[i] > s.CostCurve[i-1]+1e-9 {
			t.Errorf("cost curve increased at %d: %g -> %g", i, s.CostCurve[i-1], s.CostCurve[i])
		}
	}
}

func TestCheckpointVerifyReplay(t *testing.T) {
	opts := DefaultOptions()
	tunersA, dnnsA, _ := twoDNNSetup()
	a := New(tunersA, F1{dnnsA}, opts)
	a.Run(12)
	ckpt := a.Checkpoint()

	// A replayed run (same everything) passes through the checkpoint.
	tunersB, dnnsB, _ := twoDNNSetup()
	b := New(tunersB, F1{dnnsB}, opts)
	b.Run(30)
	if err := b.VerifyReplay(ckpt); err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}

	// A diverging run (different tuner behaviour) is caught.
	tunersC, dnnsC, fakesC := twoDNNSetup()
	fakesC[0].decay = 0.5
	c := New(tunersC, F1{dnnsC}, opts)
	c.Run(30)
	if err := c.VerifyReplay(ckpt); err == nil {
		t.Fatal("diverged replay must be rejected")
	}

	// A replay that stopped short is caught.
	tunersD, dnnsD, _ := twoDNNSetup()
	d := New(tunersD, F1{dnnsD}, opts)
	d.Run(6)
	if err := d.VerifyReplay(ckpt); err == nil {
		t.Fatal("short replay must be rejected")
	}
}

// TestCheckpointSurvivesJSON pins the file format's two edges: a
// checkpoint cut mid-run comes back field for field, and one cut
// mid-warm-up — unmeasured tasks, so +Inf latencies, which encoding/json
// rejects — round-trips its infinities.
func TestCheckpointSurvivesJSON(t *testing.T) {
	for _, units := range []int{1, 12} {
		tuners, dnns, _ := twoDNNSetup()
		s := New(tuners, F1{dnns}, DefaultOptions())
		s.Run(units)
		blob, err := s.Checkpoint().Marshal()
		if err != nil {
			t.Fatalf("%d units: marshal: %v", units, err)
		}
		back, err := UnmarshalCheckpoint(blob)
		if err != nil {
			t.Fatalf("%d units: %v", units, err)
		}
		if err := s.VerifyReplay(back); err != nil {
			t.Errorf("%d units: the scheduler fails its own checkpoint: %v", units, err)
		}
		if again, _ := back.Marshal(); string(again) != string(blob) {
			t.Errorf("%d units: checkpoint changed across JSON:\n got %s\nwant %s", units, again, blob)
		}
		if units == 1 && !math.IsInf(back.CostCurve[0], 1) {
			t.Errorf("a warm-up checkpoint should hold an infinite cost: %+v", back.CostCurve)
		}
	}
}
