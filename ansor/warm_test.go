package ansor

import (
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/regserver"
)

// warmOutcome is everything the determinism contract compares.
type warmOutcome struct {
	preFP   uint64 // model fingerprint right after warm start, before round 1
	outcome tuneOutcome
}

// runWarmTune tunes the persistence tests' task on target under opts, 16
// programs a round.
func runWarmTune(t *testing.T, target Target, opts TuningOptions) warmOutcome {
	t.Helper()
	opts.MeasuresPerRound = 16
	tuner, err := NewTuner(NewTask("mm", persistDAG(t), target), opts)
	if err != nil {
		t.Fatal(err)
	}
	out := warmOutcome{preFP: tuner.ModelFingerprint()}
	best, err := tuner.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.Close(); err != nil {
		t.Fatal(err)
	}
	out.outcome = tuneOutcome{
		sig:      best.State.Signature(),
		seconds:  best.Seconds,
		modelFP:  tuner.ModelFingerprint(),
		measured: tuner.Trials(),
	}
	for _, h := range tuner.History() {
		out.outcome.history = append(out.outcome.history, struct {
			trials int
			best   float64
		}{h.Trials, h.BestTime})
	}
	return out
}

// recordHistory tunes the task on target and returns the tuning log.
func recordHistory(t *testing.T, path string, target Target, seed int64) *measure.Log {
	t.Helper()
	tuner, err := NewTuner(NewTask("mm", persistDAG(t), target), TuningOptions{
		Trials: 32, MeasuresPerRound: 16, Seed: seed, RecordTo: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.Tune(); err != nil {
		t.Fatal(err)
	}
	if err := tuner.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := measure.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// serveSnapshot uploads logs to a fresh registry server and saves its
// best set to a file: the same record set the server's query serves.
func serveSnapshot(t *testing.T, file string, logs ...*measure.Log) string {
	t.Helper()
	hs := httptest.NewServer(regserver.New(nil).Handler())
	t.Cleanup(hs.Close)
	cl := regserver.NewClient(hs.URL)
	for _, l := range logs {
		if _, err := cl.AddLog(l); err != nil {
			t.Fatal(err)
		}
	}
	reg, err := regserver.LoadRegistry(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveFile(file); err != nil {
		t.Fatal(err)
	}
	return hs.URL
}

// TestWarmFileVsServerBitIdentical is the tentpole determinism proof:
// warm-starting from a file and from a registry server holding the very
// same records yields bit-identical tuning runs — equal model
// fingerprints before round one, equal history curves, equal bests —
// at any worker count. It holds under -warm-start-limit over
// mixed-target history too, because both sources filter on the target
// before the limit: the limited runs equal the unlimited native one.
func TestWarmFileVsServerBitIdentical(t *testing.T) {
	dir := t.TempDir()
	seedLog := filepath.Join(dir, "seed.json")
	target := TargetIntelCPU(true)
	runPersistTune(t, 32, 0, seedLog, "")
	native, err := measure.LoadFile(seedLog)
	if err != nil {
		t.Fatal(err)
	}
	snapFile := filepath.Join(dir, "snapshot.json")
	url := serveSnapshot(t, snapFile, native)

	fromFile := runWarmTune(t, target, TuningOptions{Trials: 32, Seed: 11, WarmStartFrom: snapFile})
	for _, workers := range []int{0, 1, 8} {
		fromServer := runWarmTune(t, target, TuningOptions{Trials: 32, Seed: 11, Workers: workers, WarmStartFrom: url})
		if fromServer.preFP != fromFile.preFP {
			t.Errorf("workers=%d: warm-started models diverged before round 1: %x vs %x",
				workers, fromServer.preFP, fromFile.preFP)
		}
		if !reflect.DeepEqual(fromServer.outcome, fromFile.outcome) {
			t.Errorf("workers=%d: warm-from-server run diverged from warm-from-file", workers)
		}
	}

	// The warm start absorbed real history: the model is trained before
	// the first round (a cold tuner's pre-tune fingerprint differs).
	cold := runWarmTune(t, target, TuningOptions{Trials: 32, Seed: 11})
	if cold.preFP == fromFile.preFP {
		t.Error("warm-started pre-tune model should differ from the cold untrained model")
	}

	// Mixed-target history, limited to one record a source: avx2 keys sort
	// first on the server, yet neither source spends its limit on them.
	avx2 := recordHistory(t, filepath.Join(dir, "avx2.json"), TargetIntelCPU(false), 5)
	mixedFile := filepath.Join(dir, "mixed-snapshot.json")
	mixedURL := serveSnapshot(t, mixedFile, avx2, native)
	for _, src := range []string{mixedFile, mixedURL} {
		got := runWarmTune(t, target, TuningOptions{Trials: 32, Seed: 11, WarmStartFrom: src, WarmStartLimit: 1})
		if !reflect.DeepEqual(got, fromFile) {
			t.Errorf("limited warm start from mixed-target %s diverged from the native-only one", src)
		}
	}
}

// TestCrossTargetWarmStart: a time is only ever used on the target that
// measured it. An avx512 job warm-started from avx2-only history absorbs
// nothing — its warm_start event counts 0 — and is bit-identical to the
// cold run: history, best time, signature and model fingerprint. A
// mixed-target log warm-starts exactly as its avx512 slice alone.
func TestCrossTargetWarmStart(t *testing.T) {
	dir := t.TempDir()
	avx2Log := filepath.Join(dir, "avx2.json")
	avx512Log := filepath.Join(dir, "avx512.json")
	avx2 := recordHistory(t, avx2Log, TargetIntelCPU(false), 5)
	avx512 := recordHistory(t, avx512Log, TargetIntelCPU(true), 6)
	target := TargetIntelCPU(true)

	cold := runWarmTune(t, target, TuningOptions{Trials: 32, Seed: 21})
	sink := &obs.MemorySink{}
	fromAVX2 := runWarmTune(t, target, TuningOptions{Trials: 32, Seed: 21, WarmStartFrom: avx2Log,
		Observer: obs.New(sink, obs.NewRegistry())})
	if !reflect.DeepEqual(fromAVX2, cold) {
		t.Errorf("warm start from avx2-only history diverged from the cold run:\ncold %+v\nwarm %+v", cold, fromAVX2)
	}
	if ws := sink.ByType(obs.EvWarmStart); len(ws) != 1 || ws[0].Count != 0 {
		t.Errorf("warm_start events = %+v, want one absorbing 0 records", ws)
	}

	// The two logs interleaved, line by line.
	var mixed measure.Log
	for i := 0; i < max(len(avx2.Records), len(avx512.Records)); i++ {
		for _, l := range []*measure.Log{avx2, avx512} {
			if i < len(l.Records) {
				mixed.Records = append(mixed.Records, l.Records[i])
			}
		}
	}
	mixedLog := filepath.Join(dir, "mixed.json")
	if err := mixed.SaveFile(mixedLog); err != nil {
		t.Fatal(err)
	}
	native := runWarmTune(t, target, TuningOptions{Trials: 32, Seed: 21, WarmStartFrom: avx512Log})
	if native.preFP == cold.preFP {
		t.Fatal("the avx512 log absorbed nothing")
	}
	if got := runWarmTune(t, target, TuningOptions{Trials: 32, Seed: 21, WarmStartFrom: mixedLog}); !reflect.DeepEqual(got, native) {
		t.Errorf("mixed-target log diverged from its avx512 slice:\nslice %+v\nmixed %+v", native, got)
	}
}
