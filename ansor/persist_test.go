package ansor

import (
	"path/filepath"
	"testing"

	"repro/internal/measure"
)

func persistDAG(t *testing.T) *DAG {
	t.Helper()
	b := NewComputeBuilder("matmul_relu")
	a := b.Input("A", 128, 128)
	c := b.Matmul(a, 128, true)
	b.ReLU(c)
	dag, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return dag
}

type tuneOutcome struct {
	sig     string
	seconds float64
	history []struct {
		trials int
		best   float64
	}
	modelFP  uint64
	measured int
}

// runPersistTune is one tuning run with the persistence options applied.
func runPersistTune(t *testing.T, trials, workers int, record, resume string) tuneOutcome {
	t.Helper()
	tuner, err := NewTuner(NewTask("mm", persistDAG(t), TargetIntelCPU(true)), TuningOptions{
		Trials: trials, MeasuresPerRound: 16, Seed: 7, Workers: workers,
		RecordTo: record, ResumeFrom: resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	best, err := tuner.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.Close(); err != nil {
		t.Fatal(err)
	}
	out := tuneOutcome{
		sig:      best.State.Signature(),
		seconds:  best.Seconds,
		modelFP:  tuner.ModelFingerprint(),
		measured: tuner.Trials(),
	}
	for _, h := range tuner.History() {
		out.history = append(out.history, struct {
			trials int
			best   float64
		}{h.Trials, h.BestTime})
	}
	return out
}

// TestResumeBitIdentical is the determinism regression test of the
// persistence layer: tuning N rounds fresh vs. tuning k rounds,
// checkpointing (the tuning log IS the checkpoint), resuming, and tuning
// N−k more must produce bit-identical best signature, best time, history
// curve — and even the retrained cost-model ensemble — at any worker
// count. The resumed run must not re-measure logged programs.
func TestResumeBitIdentical(t *testing.T) {
	const full, partial = 48, 32
	dir := t.TempDir()
	fileA := filepath.Join(dir, "full.json")
	fileB := filepath.Join(dir, "partial.json")

	uninterrupted := runPersistTune(t, full, 0, fileA, "")
	part := runPersistTune(t, partial, 0, fileB, "")
	resumed := runPersistTune(t, full, 0, fileB, fileB)

	if resumed.sig != uninterrupted.sig {
		t.Errorf("best-program signature diverged:\nresumed: %s\nfresh:   %s", resumed.sig, uninterrupted.sig)
	}
	if resumed.seconds != uninterrupted.seconds {
		t.Errorf("best time diverged: %g vs %g", resumed.seconds, uninterrupted.seconds)
	}
	if resumed.modelFP != uninterrupted.modelFP {
		t.Errorf("resumed cost model diverged: %x vs %x", resumed.modelFP, uninterrupted.modelFP)
	}
	if len(resumed.history) != len(uninterrupted.history) {
		t.Fatalf("history length diverged: %d vs %d", len(resumed.history), len(uninterrupted.history))
	}
	for i := range resumed.history {
		if resumed.history[i] != uninterrupted.history[i] {
			t.Errorf("history[%d] diverged: %+v vs %+v", i, resumed.history[i], uninterrupted.history[i])
		}
	}
	// The resumed run replays rounds 1..k from the log: it spends fresh
	// measurements only on the continuation.
	if want := uninterrupted.measured - part.measured; resumed.measured != want {
		t.Errorf("resumed run spent %d fresh trials, want %d (continuation only)", resumed.measured, want)
	}

	// After the resumed run, fileB holds the full log: replaying the
	// whole run — at a different worker count — reproduces everything
	// without a single fresh successful measurement.
	for _, workers := range []int{1, 8} {
		replay := runPersistTune(t, full, workers, "", fileB)
		if replay.sig != uninterrupted.sig || replay.seconds != uninterrupted.seconds ||
			replay.modelFP != uninterrupted.modelFP {
			t.Errorf("workers=%d: full replay diverged from the uninterrupted run", workers)
		}
		if replay.measured != 0 {
			t.Errorf("workers=%d: full replay spent %d fresh trials, want 0", workers, replay.measured)
		}
	}

	// The two logs agree on their common prefix: fileB (partial+resumed)
	// and fileA (uninterrupted) record the same programs.
	logA, err := measure.LoadFile(fileA)
	if err != nil {
		t.Fatal(err)
	}
	logB, err := measure.LoadFile(fileB)
	if err != nil {
		t.Fatal(err)
	}
	if len(logA.Records) != len(logB.Records) {
		t.Fatalf("log sizes diverged: %d vs %d", len(logA.Records), len(logB.Records))
	}
	for i := range logA.Records {
		if logA.Records[i].Sig != logB.Records[i].Sig || logA.Records[i].Seconds != logB.Records[i].Seconds {
			t.Errorf("record %d diverged between interrupted and uninterrupted logs", i)
		}
	}
}

// TestApplyHistoryBestZeroTrials: the registry's best schedule replays
// without any measurement.
func TestApplyHistoryBestZeroTrials(t *testing.T) {
	dir := t.TempDir()
	logFile := filepath.Join(dir, "log.json")
	tuned := runPersistTune(t, 32, 0, logFile, "")

	tuner, err := NewTuner(NewTask("mm", persistDAG(t), TargetIntelCPU(true)), TuningOptions{
		Trials: 1000, Seed: 99, ApplyHistoryBest: logFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	best, err := tuner.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if tuner.Trials() != 0 {
		t.Errorf("apply-history-best spent %d trials, want 0", tuner.Trials())
	}
	if best.State.Signature() != tuned.sig || best.Seconds != tuned.seconds {
		t.Errorf("served schedule (%g) is not the recorded best (%g)", best.Seconds, tuned.seconds)
	}
	if best.GFLOPS <= 0 {
		t.Error("served program should report throughput")
	}

	// Unknown task fails loudly instead of silently searching.
	miss, err := NewTuner(NewTask("unknown-task", persistDAG(t), TargetIntelCPU(true)), TuningOptions{
		ApplyHistoryBest: logFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := miss.Tune(); err == nil {
		t.Error("apply-history-best for an unrecorded task must error")
	}
}

// TestWarmStartImprovesStart: a warm-started tuner begins from the
// recorded best instead of from scratch and keeps improving from there.
func TestWarmStartImprovesStart(t *testing.T) {
	dir := t.TempDir()
	logFile := filepath.Join(dir, "log.json")
	tuned := runPersistTune(t, 32, 0, logFile, "")

	o, sink := memObserver()
	task := NewTask("mm", persistDAG(t), TargetIntelCPU(true))
	warmLog := filepath.Join(dir, "warm.json")
	tuner, err := NewTuner(task, TuningOptions{
		Trials: 16, MeasuresPerRound: 16, Seed: 11, WarmStartFrom: logFile, RecordTo: warmLog, Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	best, err := tuner.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.Close(); err != nil {
		t.Fatal(err)
	}
	if best.Seconds > tuned.seconds {
		t.Errorf("warm-started search (%g) regressed below the recorded best (%g)", best.Seconds, tuned.seconds)
	}
	if checkBestImproved(t, sink, map[string]*DAG{task.Name: task.DAG}, logFile, warmLog) == 0 {
		t.Error("no best program was compared with the naive one")
	}
}

// TestTuneNetworkResume extends record/resume to the task scheduler: a
// killed network tuning job resumed from its log matches the
// uninterrupted run and re-measures nothing it logged.
func TestTuneNetworkResume(t *testing.T) {
	run := func(trials int, record, resume string) NetworkResult {
		net, err := BuiltinNetwork("dcgan", 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := TuneNetwork(net, TargetIntelCPU(true), TuningOptions{
			Trials: trials, MeasuresPerRound: 8, Seed: 3,
			RecordTo: record, ResumeFrom: resume,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dir := t.TempDir()
	fileA := filepath.Join(dir, "full.json")
	fileB := filepath.Join(dir, "partial.json")

	uninterrupted := run(16, fileA, "")
	part := run(8, fileB, "")
	resumed := run(16, fileB, fileB)

	if resumed.Latency != uninterrupted.Latency {
		t.Errorf("resumed network latency %g, uninterrupted %g", resumed.Latency, uninterrupted.Latency)
	}
	for name, lat := range uninterrupted.TaskLatencies {
		if got := resumed.TaskLatencies[name]; got != lat {
			t.Errorf("task %s: resumed %g, uninterrupted %g", name, got, lat)
		}
	}
	if want := uninterrupted.Trials - part.Trials; resumed.Trials != want {
		t.Errorf("resumed network spent %d fresh trials, want %d", resumed.Trials, want)
	}

	// And the registry can serve the whole network with zero trials.
	net, err := BuiltinNetwork("dcgan", 1)
	if err != nil {
		t.Fatal(err)
	}
	served, err := TuneNetwork(net, TargetIntelCPU(true), TuningOptions{ApplyHistoryBest: fileA})
	if err != nil {
		t.Fatal(err)
	}
	if served.Trials != 0 {
		t.Errorf("apply-history-best network spent %d trials, want 0", served.Trials)
	}
	if served.Latency <= 0 || served.Latency > uninterrupted.Latency {
		t.Errorf("served latency %g, want (0, %g]", served.Latency, uninterrupted.Latency)
	}
}

// TestApplyHistoryBestRejectsOtherShape: records are keyed by the exact
// computation, so a log tuned for one shape never serves another shape
// under the same task name (batch-1 split factors would replay onto a
// batch-16 DAG without error and report the wrong latency).
func TestApplyHistoryBestRejectsOtherShape(t *testing.T) {
	dir := t.TempDir()
	logFile := filepath.Join(dir, "log.json")
	runPersistTune(t, 16, 0, logFile, "")

	b := NewComputeBuilder("matmul_relu")
	a := b.Input("A", 256, 256)
	c := b.Matmul(a, 256, true)
	b.ReLU(c)
	other, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Same task name "mm", different shape.
	tuner, err := NewTuner(NewTask("mm", other, TargetIntelCPU(true)), TuningOptions{
		ApplyHistoryBest: logFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.Tune(); err == nil {
		t.Fatal("apply-history-best must not serve a record tuned for a different shape")
	}
}
