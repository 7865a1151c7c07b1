package sched

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// preparingTuner is a fakeTuner that checks the scheduler's side of the
// Prepare contract from the inside. Its calls counter is a plain int
// that both methods write, so the race detector reports two calls on one
// task at once even when the busy flag misses them.
type preparingTuner struct {
	fakeTuner
	rig *prepareRig

	busy     atomic.Bool
	calls    int
	prepared bool
	prepares int
}

// prepareRig is what the tuners of one scheduler share.
type prepareRig struct {
	t           *testing.T
	inFlight    atomic.Int32 // calls into any tuner that have not returned
	outstanding atomic.Int32 // tasks prepared and not yet allocated
}

func (f *preparingTuner) enter(what string) {
	f.rig.inFlight.Add(1)
	if !f.busy.CompareAndSwap(false, true) {
		f.rig.t.Errorf("%s: %s overlaps another call on the same task", f.name, what)
	}
	f.calls++
	for i := 0; i < 4; i++ {
		runtime.Gosched() // give an overlapping call the chance to show
	}
}

func (f *preparingTuner) leave() {
	f.busy.Store(false)
	f.rig.inFlight.Add(-1)
}

func (f *preparingTuner) Prepare() {
	f.enter("Prepare")
	defer f.leave()
	if f.prepared {
		f.rig.t.Errorf("%s: prepared twice without an AllocateUnit between", f.name)
	}
	f.prepared = true
	f.prepares++
	f.rig.outstanding.Add(1)
}

func (f *preparingTuner) AllocateUnit() {
	f.enter("AllocateUnit")
	defer f.leave()
	if f.prepared {
		f.prepared = false
		f.rig.outstanding.Add(-1)
	}
	f.t++
}

func prepareSetup(t *testing.T) ([]Tuner, []DNN, []*preparingTuner, *prepareRig) {
	rig := &prepareRig{t: t}
	ts := []*preparingTuner{
		{fakeTuner: fakeTuner{name: "conv_big", base: 100, decay: 0.8, floor: 5, tag: "conv3x3", flops: 1e9}},
		{fakeTuner: fakeTuner{name: "conv_small", base: 2, decay: 0.99, floor: 1.9, tag: "conv1x1", flops: 1e7}},
		{fakeTuner: fakeTuner{name: "gemm", base: 20, decay: 0.9, floor: 4, tag: "gemm", flops: 4e8}},
		{fakeTuner: fakeTuner{name: "conv_mid", base: 60, decay: 0.85, floor: 3, tag: "conv3x3", flops: 6e8}},
		{fakeTuner: fakeTuner{name: "dense", base: 30, decay: 0.7, floor: 2, tag: "gemm", flops: 2e8}},
		{fakeTuner: fakeTuner{name: "pool", base: 8, decay: 0.95, floor: 1, tag: "pool", flops: 1e6}},
	}
	tuners := make([]Tuner, len(ts))
	d := DNN{Name: "net"}
	for i, f := range ts {
		f.rig = rig
		tuners[i] = f
		d.Tasks = append(d.Tasks, i)
		d.Weights = append(d.Weights, float64(1+i%3))
	}
	return tuners, []DNN{d}, ts, rig
}

// TestPrepareAheadChangesNoDecision is the scheduler's side of the
// run-ahead contract, at Workers 1, 2 and 8: against a scheduler whose
// tuners' Prepare does nothing, the pick sequence, the cost curve, the
// unit count and the checkpoint bytes are equal; no call on a task
// overlaps another call on it and no task is prepared twice in a row
// (checked by the tuners themselves, and by -race); no guess is added
// beyond the units left to allocate it in (wrong guesses wait, so their
// number may only fall once it has reached that bound); and when Step
// returns no call it made is still running.
func TestPrepareAheadChangesNoDecision(t *testing.T) {
	const total = 40
	// run steps a scheduler to the end and returns, per Step, how many
	// units every task holds.
	run := func(s *Scheduler, units func() []int, afterStep func()) [][]int {
		var seq [][]int
		for s.Step(total) > 0 {
			seq = append(seq, units())
			if afterStep != nil {
				afterStep()
			}
		}
		return seq
	}
	opts := DefaultOptions() // EpsGreedy > 0: random picks land on unprepared tasks too

	// The reference: plain fakes, whose Prepare is empty.
	plainTuners, dnns, plain, _ := prepareSetup(t)
	for i, f := range plain {
		plainTuners[i] = &f.fakeTuner
	}
	ref := New(plainTuners, dnns, opts)
	refSeq := run(ref, func() []int {
		u := make([]int, len(plain))
		for i, f := range plain {
			u[i] = f.t
		}
		return u
	}, nil)
	refCkpt, err := json.Marshal(ref.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		tuners, dnns, ts, rig := prepareSetup(t)
		opts.Workers = workers
		s := New(tuners, dnns, opts)
		waiting := 0 // tasks prepared and not yet allocated, after the last Step
		seq := run(s, func() []int {
			u := make([]int, len(ts))
			for i, f := range ts {
				u[i] = f.t
			}
			return u
		}, func() {
			if n := rig.inFlight.Load(); n != 0 {
				t.Fatalf("workers=%d: Step returned with %d calls still running", workers, n)
			}
			out, left := int(rig.outstanding.Load()), total-s.Units
			if out > waiting && out > left {
				t.Fatalf("workers=%d: guesses added up to %d prepared tasks with %d units left", workers, out, left)
			}
			waiting = out
		})
		if !reflect.DeepEqual(seq, refSeq) {
			t.Errorf("workers=%d: pick sequence diverged from the scheduler that prepares nothing", workers)
		}
		if !reflect.DeepEqual(s.CostCurve, ref.CostCurve) || s.Units != ref.Units {
			t.Errorf("workers=%d: cost curve or units (%d vs %d) diverged", workers, s.Units, ref.Units)
		}
		ckpt, err := json.Marshal(s.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ckpt, refCkpt) {
			t.Errorf("workers=%d: checkpoint bytes diverged", workers)
		}
		prepares := 0
		for _, f := range ts {
			prepares += f.prepares
		}
		// Every gradient unit needs its task prepared; running ahead adds
		// the guesses that were never confirmed.
		if min := total - len(ts); prepares < min || (workers == 1 && prepares != min) {
			t.Errorf("workers=%d: %d Prepare calls for %d gradient units", workers, prepares, min)
		}
		t.Logf("workers=%d: %d Prepare calls, %d still unused at the end", workers, prepares, rig.outstanding.Load())
	}
}

// TestZeroGradientTaskIsNeverGuessed: a task in no DNN, whose gradient
// ∂f/∂g is zero, is prepared only when it is the pick itself, never as a
// guess at a later one — with ε = 0 it is never picked, so never
// prepared at all.
func TestZeroGradientTaskIsNeverGuessed(t *testing.T) {
	tuners, dnns, ts, _ := prepareSetup(t)
	opts := DefaultOptions()
	opts.EpsGreedy = 0
	opts.Workers = 8
	const stopped = 3
	var d DNN
	for k, i := range dnns[0].Tasks {
		if i != stopped {
			d.Tasks = append(d.Tasks, i)
			d.Weights = append(d.Weights, dnns[0].Weights[k])
		}
	}
	s := New(tuners, []DNN{d}, opts)
	s.Run(40)
	if n := ts[stopped].prepares; n != 0 {
		t.Errorf("the task in no DNN was prepared %d times", n)
	}
	if ts[stopped].t != 1 {
		t.Errorf("the task in no DNN got %d units, want its warm-up unit only", ts[stopped].t)
	}
	guessed := 0
	for _, f := range ts {
		guessed += f.prepares
	}
	if guessed <= 40-len(ts) {
		t.Errorf("%d Prepare calls at Workers 8: nothing ran ahead", guessed)
	}
}
