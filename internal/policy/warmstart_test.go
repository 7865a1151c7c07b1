package policy

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/workloads"
)

// c2dWarmRig tunes C2D.s1 for trials on a fresh policy, recording every
// measurement, and returns the log and a constructor of fresh policies
// of the same task to warm-start from it. The recording policy is
// released, so a warm start borrows what it gave back, as the next op of
// a chained run does.
func c2dWarmRig(t *testing.T, trials int) (*measure.Log, func() *Policy) {
	t.Helper()
	var task Task
	for _, w := range workloads.SingleOps(1) {
		if w.Key == "C2D.s1" {
			task = Task{Name: w.Key, DAG: w.Build(), Target: sketch.CPUTarget()}
		}
	}
	fresh := func(rec *measure.Recorder) *Policy {
		ms := measure.New(sim.IntelXeon(), 0.02, 1)
		ms.Recorder = rec
		p, err := New(task, DefaultOptions(), ms)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var recorded bytes.Buffer
	p := fresh(measure.NewRecorder(&recorded))
	p.Tune(trials, 64)
	p.Release()
	log, err := measure.Load(&recorded)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Records) != trials {
		t.Fatalf("recorded %d of %d trials", len(log.Records), trials)
	}
	return log, func() *Policy { return fresh(nil) }
}

// TestWarmStartBytesPerRecord pins what a warm start costs the heap per
// absorbed record: the feature rows Keep moves to the heap (the training
// data), a share of the training slices' growth, and the clones of the
// programs the best pool keeps. Every record replays into one borrowed
// arena; replayed onto the heap, a record cost 8 188 B (30.1 objects) of
// a 256-record C2D.s1 log, and in the arena it costs about 4.0 KB.
func TestWarmStartBytesPerRecord(t *testing.T) {
	log, fresh := c2dWarmRig(t, 256)
	const runs, ceiling = 4, 4600
	var total uint64
	absorbed := 0
	for i := 0; i < runs; i++ {
		p := fresh()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := p.WarmStart(log.Records)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("warm start absorbed nothing")
		}
		total += after.TotalAlloc - before.TotalAlloc
		absorbed += n
		p.Release()
	}
	got := float64(total) / float64(absorbed)
	t.Logf("%.0f B per absorbed record (%d records a run)", got, absorbed/runs)
	// Under the race detector sync.Pool drops a quarter of what it is
	// handed, so a borrowed lowering's scratch is rebuilt that often.
	if got > ceiling && !raceDetector {
		t.Errorf("a warm start allocates %.0f B per absorbed record, ceiling %d", got, ceiling)
	}
}

// TestWarmStartLeavesPoolOnHeap is the exit invariant of the warm
// start's borrow: the best pool and the best state are clones.
// (TestPoisonedWarmStartKeepsItsPool in internal/ir reads them after the
// arena has gone through other hands.)
func TestWarmStartLeavesPoolOnHeap(t *testing.T) {
	log, fresh := c2dWarmRig(t, 64)
	p := fresh()
	if n, err := p.WarmStart(log.Records); err != nil || n == 0 {
		t.Fatalf("warm start absorbed %d records: %v", n, err)
	}
	if len(p.bestStates) == 0 || p.BestState == nil {
		t.Fatal("warm start left no best pool")
	}
	for _, s := range append(p.bestStates, p.BestState) {
		// A released arena is zeroed: a state of one has lost its DAG.
		if s.InArena() || s.DAG == nil {
			t.Fatal("the warm start left a program of an arena in the best pool")
		}
	}
	found := false
	for _, s := range p.bestStates {
		found = found || s == p.BestState
	}
	if !found {
		t.Error("the best state is not the best pool's")
	}
}
