package ansor

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/measure"
	"repro/internal/regserver"
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

// TestApplyHistoryBestRegistryLiteral: ApplyHistoryBest "registry"
// names the RegistryURL server, for one tuner and for a network, and
// serves what the server's URL serves; without a RegistryURL it is an
// error that names the field.
func TestApplyHistoryBestRegistryLiteral(t *testing.T) {
	dir := t.TempDir()
	taskLog := filepath.Join(dir, "task.json")
	runPersistTune(t, 32, 0, taskLog, "")
	net, err := BuiltinNetwork("dcgan", 1)
	if err != nil {
		t.Fatal(err)
	}
	net.Tasks = net.Tasks[:2]
	netLog := filepath.Join(dir, "net.json")
	if _, err := TuneNetwork(net, TargetIntelCPU(true), TuningOptions{
		Trials: 16, MeasuresPerRound: 8, RecordTo: netLog,
	}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(regserver.New(nil).Handler())
	defer hs.Close()
	for _, f := range []string{taskLog, netLog} {
		l, err := measure.LoadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := regserver.NewClient(hs.URL).AddLog(l); err != nil {
			t.Fatal(err)
		}
	}

	applyTask := func(opts TuningOptions) (Program, error) {
		tuner, err := NewTuner(NewTask("mm", persistDAG(t), TargetIntelCPU(true)), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer tuner.Close()
		return tuner.Tune()
	}
	byURL, err := applyTask(TuningOptions{ApplyHistoryBest: hs.URL})
	if err != nil {
		t.Fatal(err)
	}
	byName, err := applyTask(TuningOptions{ApplyHistoryBest: "registry", RegistryURL: hs.URL})
	if err != nil {
		t.Fatal(err)
	}
	if byName.State.Signature() != byURL.State.Signature() || byName.Seconds != byURL.Seconds {
		t.Errorf("task served from \"registry\" (%g) differs from the server URL's (%g)", byName.Seconds, byURL.Seconds)
	}
	netByURL, err := TuneNetwork(net, TargetIntelCPU(true), TuningOptions{ApplyHistoryBest: hs.URL})
	if err != nil {
		t.Fatal(err)
	}
	netByName, err := TuneNetwork(net, TargetIntelCPU(true), TuningOptions{ApplyHistoryBest: "registry", RegistryURL: hs.URL})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(netByName, netByURL) || len(netByName.TaskLatencies) != 2 {
		t.Errorf("network served from \"registry\" %+v differs from the server URL's %+v", netByName, netByURL)
	}

	if _, err := applyTask(TuningOptions{ApplyHistoryBest: "registry"}); err == nil || !strings.Contains(err.Error(), "RegistryURL") {
		t.Errorf("task: \"registry\" without a RegistryURL: %v, want an error naming RegistryURL", err)
	}
	if _, err := TuneNetwork(net, TargetIntelCPU(true), TuningOptions{ApplyHistoryBest: "registry"}); err == nil || !strings.Contains(err.Error(), "RegistryURL") {
		t.Errorf("network: \"registry\" without a RegistryURL: %v, want an error naming RegistryURL", err)
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

// tuneTwoDCGANTasks tunes dcgan's first two tasks (Trials 8,
// MeasuresPerRound 4) with the given seed, recording to record and
// resuming from resume.
func tuneTwoDCGANTasks(seed int64, record, resume string) error {
	net, err := BuiltinNetwork("dcgan", 1)
	if err != nil {
		return err
	}
	net.Tasks = net.Tasks[:2]
	_, err = TuneNetwork(net, TargetIntelCPU(true), TuningOptions{
		Trials: 8, MeasuresPerRound: 4, Seed: seed, RecordTo: record, ResumeFrom: resume,
	})
	return err
}

// TestTuneNetworkWritesCheckpoint: a network run with RecordTo leaves
// the scheduler checkpoint at <RecordTo>.ckpt, and a resume whose seed
// drifted from it is refused before it tunes, naming the seed.
func TestTuneNetworkWritesCheckpoint(t *testing.T) {
	logFile := filepath.Join(t.TempDir(), "net.json")
	if err := tuneTwoDCGANTasks(1, logFile, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(logFile + ".ckpt"); err != nil {
		t.Fatalf("a network run with RecordTo should leave <RecordTo>.ckpt: %v", err)
	}
	err := tuneTwoDCGANTasks(2, logFile, logFile)
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("a resume with another seed should fail naming the seed, got %v", err)
	}
}

// TestGoldenCheckpoint: testdata/dcgan2.ckpt, written by an earlier
// build for tuneTwoDCGANTasks(1, …), loads and rewrites byte for byte,
// the same run writes exactly it again, and a resume of that run passes
// its replay check against it.
func TestGoldenCheckpoint(t *testing.T) {
	const golden = "testdata/dcgan2.ckpt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadCheckpoint(golden)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := json.Marshal(c); err != nil || string(again)+"\n" != string(want) {
		t.Errorf("the golden checkpoint rewrites as\n%s (%v)\nwant\n%s", again, err, want)
	}

	logFile := filepath.Join(t.TempDir(), "net.json")
	if err := tuneTwoDCGANTasks(1, logFile, ""); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(logFile + ".ckpt"); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the run wrote\n%s (%v)\nwant the golden\n%s", got, err, want)
	}
	if err := os.WriteFile(logFile+".ckpt", want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := tuneTwoDCGANTasks(1, logFile, logFile); err != nil {
		t.Errorf("a resume of the golden's run fails its check: %v", err)
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
