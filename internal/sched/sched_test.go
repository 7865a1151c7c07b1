package sched

import (
	"encoding/json"
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
		s := New(tuners, dnns, opts)
		s.Run(30)
		return s.cost(s.latencies())
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
	s := New(tuners, dnns, opts)
	s.Run(30)
	if ts[0].t <= ts[1].t {
		t.Errorf("bottleneck task got %d units, saturated task got %d", ts[0].t, ts[1].t)
	}
}

func TestWarmupTouchesAllTasks(t *testing.T) {
	tuners, dnns, ts := twoDNNSetup()
	s := New(tuners, dnns, DefaultOptions())
	s.Run(len(tuners))
	for i, f := range ts {
		if f.t != 1 {
			t.Errorf("task %d got %d units in warm-up, want 1", i, f.t)
		}
	}
}

// TestObjectiveF1 pins f1 on two DNNs that share a task: its cost on
// the curve once every task is measured, and the task's gradient weight,
// its weights summed over both DNNs.
func TestObjectiveF1(t *testing.T) {
	ts := []*fakeTuner{
		{name: "a", floor: 5, decay: 1, tag: "a", flops: 1},
		{name: "b", floor: 7, decay: 1, tag: "b", flops: 1},
	}
	dnns := []DNN{
		{Tasks: []int{0, 1}, Weights: []float64{2, 1}},
		{Tasks: []int{1}, Weights: []float64{3}},
	}
	s := New([]Tuner{ts[0], ts[1]}, dnns, DefaultOptions())
	s.Run(2)
	if got, want := s.CostCurve[1], 2*5+1*7+3*7.0; got != want {
		t.Errorf("f1 cost = %g, want %g", got, want)
	}
	if !math.IsInf(s.CostCurve[0], 1) {
		t.Errorf("f1 cost with a task unmeasured = %g, want +Inf", s.CostCurve[0])
	}
	if w := s.weight; w[0] != 2 || w[1] != 4 {
		t.Errorf("f1 partials = %v, want [2 4]", w)
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
	s := New([]Tuner{ts[0], ts[1], ts[2]}, dnns, opts)
	s.Run(20)
	if ts[1].t <= ts[2].t {
		t.Errorf("similar-to-fast task got %d units, saturated misc task got %d", ts[1].t, ts[2].t)
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
			s := New(tuners, dnns, opts)
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
	s := New(tuners, dnns, DefaultOptions())
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
	a := New(tunersA, dnnsA, opts)
	a.Run(12)
	ckpt := a.Checkpoint()

	// A replayed run (same everything) passes through the checkpoint.
	tunersB, dnnsB, _ := twoDNNSetup()
	b := New(tunersB, dnnsB, opts)
	b.Run(30)
	if err := b.VerifyReplay(ckpt); err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}

	// A diverging run (different tuner behaviour) is caught.
	tunersC, dnnsC, fakesC := twoDNNSetup()
	fakesC[0].decay = 0.5
	c := New(tunersC, dnnsC, opts)
	c.Run(30)
	if err := c.VerifyReplay(ckpt); err == nil {
		t.Fatal("diverged replay must be rejected")
	}

	// A replay that stopped short is caught.
	tunersD, dnnsD, _ := twoDNNSetup()
	d := New(tunersD, dnnsD, opts)
	d.Run(6)
	if err := d.VerifyReplay(ckpt); err == nil {
		t.Fatal("short replay must be rejected")
	}
}

// TestCheckpointSurvivesJSON pins the file format's two edges: a
// checkpoint cut mid-run comes back field for field, and one cut
// mid-warm-up — unmeasured tasks, so +Inf latencies, which encoding/json
// rejects, and tasks with no allocation yet — writes its infinities as
// "inf" and its empty histories as [], as the format always has.
func TestCheckpointSurvivesJSON(t *testing.T) {
	const warmUp = `{"units":1,"history":[[85],[],[]],"cost_curve":["inf"]}`
	for _, units := range []int{1, 12} {
		tuners, dnns, _ := twoDNNSetup()
		s := New(tuners, dnns, DefaultOptions())
		s.Run(units)
		blob, err := json.Marshal(s.Checkpoint())
		if err != nil {
			t.Fatalf("%d units: marshal: %v", units, err)
		}
		var back Checkpoint
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%d units: %v", units, err)
		}
		if err := s.VerifyReplay(&back); err != nil {
			t.Errorf("%d units: the scheduler fails its own checkpoint: %v", units, err)
		}
		if again, _ := json.Marshal(&back); string(again) != string(blob) {
			t.Errorf("%d units: checkpoint changed across JSON:\n got %s\nwant %s", units, again, blob)
		}
		if units == 1 && string(blob) != warmUp {
			t.Errorf("a warm-up checkpoint reads\n%s\nwant\n%s", blob, warmUp)
		}
	}
}

// TestOldCheckpointStillVerifies: a checkpoint written before it lost
// its since_improve, warmed and picks fields (a job checkpointed by an
// older build) still loads, and an equal run passes its replay check.
func TestOldCheckpointStillVerifies(t *testing.T) {
	const blob = `{"units":12,"warmed":3,"picks":9,` +
		`"history":[[85,69.00000000000001,56.20000000000001,45.96000000000002,37.76800000000002,31.214400000000015,25.971520000000016],` +
		`[3.88,3.8602,3.840598],[22,20.200000000000003]],"since_improve":[0,0,0],` +
		`"cost_curve":["inf","inf",315.8,267.80000000000007,229.40000000000003,198.68000000000006,174.10400000000004,` +
		`173.90600000000006,154.24520000000004,152.44520000000006,136.71656000000007,136.52054000000004]}`
	old := new(Checkpoint)
	if err := json.Unmarshal([]byte(blob), old); err != nil {
		t.Fatal(err)
	}
	tuners, dnns, _ := twoDNNSetup()
	s := New(tuners, dnns, DefaultOptions())
	s.Run(12)
	if err := s.VerifyReplay(old); err != nil {
		t.Errorf("an equal run fails the old checkpoint: %v", err)
	}
	tuners, dnns, fakes := twoDNNSetup()
	fakes[0].decay = 0.5
	s = New(tuners, dnns, DefaultOptions())
	s.Run(12)
	if err := s.VerifyReplay(old); err == nil {
		t.Error("a diverged run passes the old checkpoint")
	}
}
