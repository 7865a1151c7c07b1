package ansor

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/measure"
	"repro/internal/obs"
)

// TestTuningDeterministicAcrossWorkers enforces the repository's
// concurrency contract (DESIGN.md): with one seed, the tuning outcome —
// best program signature, best time, trial accounting, and the full
// History curve — is bit-identical for any Workers value. Parallelism may
// only change wall-clock time, never results.
func TestTuningDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name   string
		target Target
	}{
		{"intel-cpu", TargetIntelCPU(true)},
		{"nvidia-gpu", TargetNVIDIAGPU()},
	}
	type outcome struct {
		sig     string
		seconds float64
		trials  int
		history []struct {
			trials int
			best   float64
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) outcome {
				b := NewComputeBuilder("matmul_relu")
				a := b.Input("A", 512, 512)
				c := b.Matmul(a, 512, true)
				b.ReLU(c)
				dag, err := b.Finish()
				if err != nil {
					t.Fatal(err)
				}
				tuner, err := NewTuner(NewTask("mm", dag, tc.target), TuningOptions{
					Trials: 48, MeasuresPerRound: 16, Seed: 7, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				best, err := tuner.Tune()
				if err != nil {
					t.Fatal(err)
				}
				out := outcome{
					sig:     best.State.Signature(),
					seconds: best.Seconds,
					trials:  tuner.Trials(),
				}
				for _, h := range tuner.History() {
					out.history = append(out.history, struct {
						trials int
						best   float64
					}{h.Trials, h.BestTime})
				}
				return out
			}
			serial := run(1)
			parallel := run(8)
			if serial.sig != parallel.sig {
				t.Errorf("best-program signature diverged:\nworkers=1: %s\nworkers=8: %s", serial.sig, parallel.sig)
			}
			if serial.seconds != parallel.seconds {
				t.Errorf("best time diverged: %g vs %g", serial.seconds, parallel.seconds)
			}
			if serial.trials != parallel.trials {
				t.Errorf("trial count diverged: %d vs %d", serial.trials, parallel.trials)
			}
			if len(serial.history) != len(parallel.history) {
				t.Fatalf("history length diverged: %d vs %d", len(serial.history), len(parallel.history))
			}
			for i := range serial.history {
				if serial.history[i] != parallel.history[i] {
					t.Errorf("history[%d] diverged: %+v vs %+v", i, serial.history[i], parallel.history[i])
				}
			}
		})
	}
}

// TestTuneNetworkDeterministicAcrossWorkers extends the contract to the
// task scheduler: concurrent warm-up rounds over a shared measurer must
// not perturb latencies or total trial accounting.
func TestTuneNetworkDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) NetworkResult {
		net, err := BuiltinNetwork("dcgan", 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := TuneNetwork(net, TargetIntelCPU(true), TuningOptions{
			Trials: 16, MeasuresPerRound: 8, Seed: 3, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(8)
	if serial.Latency != parallel.Latency {
		t.Errorf("network latency diverged: %g vs %g", serial.Latency, parallel.Latency)
	}
	if serial.Trials != parallel.Trials {
		t.Errorf("trials diverged: %d vs %d", serial.Trials, parallel.Trials)
	}
	for name, lat := range serial.TaskLatencies {
		if plat := parallel.TaskLatencies[name]; plat != lat {
			t.Errorf("task %s latency diverged: %g vs %g", name, lat, plat)
		}
	}
}

// TestTuneNetworkRecordLogsEqualAcrossWorkers: at Workers 2 the scheduler
// prepares tasks ahead of its picks (sched.Tuner.Prepare), at Workers 1
// it never does. A proposal is the same whenever it is computed, so what
// each task measured, in what order, with what result — its slice of the
// record log, byte for byte — must not depend on it. (Tasks of one
// warm-up wave measure concurrently, so only the per-task order is
// defined.) The narration must also close: every round_start has its
// round_end, an unused proposal included, and the proposal counters add
// up.
func TestTuneNetworkRecordLogsEqualAcrossWorkers(t *testing.T) {
	net, err := BuiltinNetwork("dcgan", 1)
	if err != nil {
		t.Fatal(err)
	}
	const trials, perRound = 24, 8
	run := func(workers int) (map[string][]string, *obs.MemorySink, obs.Snapshot) {
		o, sink := memObserver()
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if _, err := TuneNetwork(net, TargetIntelCPU(true), TuningOptions{
			Trials: trials, MeasuresPerRound: perRound, Seed: 3, Workers: workers, RecordTo: path, Observer: o,
		}); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			dags := map[string]*DAG{}
			for _, task := range net.Tasks {
				dags[task.Name] = task.Build()
			}
			checkBestImproved(t, sink, dags, path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		perTask := map[string][]string{}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var rec measure.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("record line %q: %v", line, err)
			}
			perTask[rec.Task] = append(perTask[rec.Task], string(line))
		}
		return perTask, sink, o.Metrics.Snapshot()
	}
	serial, _, _ := run(1)
	ahead, sink, snap := run(2)
	if len(serial) != len(net.Tasks) {
		t.Fatalf("log covers %d tasks, network has %d", len(serial), len(net.Tasks))
	}
	for task, want := range serial {
		if got := ahead[task]; !reflect.DeepEqual(got, want) {
			t.Errorf("task %s: record log at Workers 2 (%d records) differs from Workers 1 (%d)", task, len(got), len(want))
		}
	}

	units := trials * len(net.Tasks) / perRound
	c := snap.Counters
	if c["proposals_committed"] != int64(units) || c["proposals_prepared"] != c["proposals_committed"]+c["proposals_unused"] {
		t.Errorf("proposals prepared/committed/unused = %d/%d/%d over %d units",
			c["proposals_prepared"], c["proposals_committed"], c["proposals_unused"], units)
	}
	if c["feat_cache_misses"] == 0 || c["feat_cache_hits"] == 0 {
		t.Errorf("feature cache traffic of the proposals: %d hits, %d misses", c["feat_cache_hits"], c["feat_cache_misses"])
	}
	if c["score_memo_misses"] == 0 || c["score_memo_hits"] == 0 {
		t.Errorf("score memo traffic of the proposals: %d hits, %d misses", c["score_memo_hits"], c["score_memo_misses"])
	}
	if starts, ends := len(sink.ByType(obs.EvRoundStart)), len(sink.ByType(obs.EvRoundEnd)); starts != ends || starts != int(c["proposals_prepared"]) {
		t.Errorf("%d round_start, %d round_end, %d proposals: a round stays open", starts, ends, c["proposals_prepared"])
	}
	guesses := 0
	for _, e := range sink.ByType(obs.EvProposalsPrepared) {
		guesses += e.Count - 1
	}
	if guesses == 0 {
		t.Error("no proposals_prepared event carried a second task: nothing ran ahead at Workers 2")
	}
	if waves := len(sink.ByType(obs.EvWaveScheduled)); waves != 1+units-len(net.Tasks) {
		t.Errorf("%d wave_scheduled events, want one warm-up wave and one per gradient unit (%d)", waves, 1+units-len(net.Tasks))
	}
}
