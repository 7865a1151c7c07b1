package ansor

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

func matmulDAG(t *testing.T) *DAG {
	t.Helper()
	b := NewComputeBuilder("matmul_relu")
	a := b.Input("A", 512, 512)
	c := b.Matmul(a, 512, true)
	b.ReLU(c)
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTunerEndToEnd(t *testing.T) {
	task := NewTask("matmul", matmulDAG(t), TargetIntelCPU(false))
	tuner, err := NewTuner(task, TuningOptions{Trials: 64, MeasuresPerRound: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(tuner.Sketches()) == 0 {
		t.Fatal("no sketches")
	}
	best, err := tuner.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if best.Seconds <= 0 || best.GFLOPS <= 0 {
		t.Fatalf("bad result: %+v", best)
	}
	if tuner.Trials() != 64 {
		t.Errorf("trials = %d, want 64", tuner.Trials())
	}
	out := best.Print()
	if !strings.Contains(out, "parallel") && !strings.Contains(out, "vectorize") {
		t.Errorf("best program lacks annotations:\n%s", out)
	}
}

func TestTunerRejectsEmptyDAG(t *testing.T) {
	b := NewComputeBuilder("empty")
	if _, err := b.Finish(); err == nil {
		t.Fatal("empty dag accepted")
	}
}

func TestBuiltinNetworks(t *testing.T) {
	for _, name := range []string{"resnet-50", "mobilenet-v2", "3d-resnet-18", "dcgan", "bert"} {
		n, err := BuiltinNetwork(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.Tasks) == 0 {
			t.Errorf("%s: no tasks", name)
		}
	}
	if _, err := BuiltinNetwork("nope", 1); err == nil {
		t.Error("unknown network accepted")
	}
}

func TestTuneNetworkSmall(t *testing.T) {
	net, err := BuiltinNetwork("dcgan", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := TuneNetwork(net, TargetIntelCPU(true), TuningOptions{
		Trials: 16, MeasuresPerRound: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 {
		t.Fatalf("latency %g", res.Latency)
	}
	if len(res.TaskLatencies) != len(net.Tasks) {
		t.Errorf("task latencies %d, want %d", len(res.TaskLatencies), len(net.Tasks))
	}
}

// TestSchedulerSeedIsNotWired characterises a defect, it does not bless
// it: TuneNetwork never carries TuningOptions.Seed into the task
// scheduler, so the scheduler's ε-greedy stream is seed 1 whatever the
// user's seed (exp.TuneNetworks does set it). Wiring it moves every
// network trajectory with Seed != 1, so the repair waits for the window
// that moves them anyway (ROADMAP item 2); this test flips with it.
func TestSchedulerSeedIsNotWired(t *testing.T) {
	opts := TuningOptions{Seed: 7, Workers: 3}
	opts.defaults()
	if got := schedOptions(opts); got.Seed != 1 || got.Workers != 3 {
		t.Errorf("scheduler options for user seed 7: Seed %d Workers %d, pinned at Seed 1 Workers 3", got.Seed, got.Workers)
	}
}

func TestTargets(t *testing.T) {
	for _, tgt := range []Target{TargetIntelCPU(false), TargetIntelCPU(true), TargetARMCPU(), TargetNVIDIAGPU()} {
		if tgt.Machine == nil || tgt.Name == "" {
			t.Errorf("bad target %+v", tgt)
		}
	}
	if TargetIntelCPU(true).Machine.VectorLanes != 16 {
		t.Error("avx512 target should have 16 lanes")
	}
	if !TargetNVIDIAGPU().Space.GPU {
		t.Error("gpu target should use gpu sketch rules")
	}
}

// TestTuneAfterCloseFails: Close gives the search's feature memory back,
// so a later Tune returns an error before it proposes anything, while what
// the tuner reports stays readable — the model fingerprint fitted after
// Close included, which must equal that of a tuner never closed.
func TestTuneAfterCloseFails(t *testing.T) {
	task := NewTask("matmul", matmulDAG(t), TargetIntelCPU(false))
	open := func() (*Tuner, *obs.Observer) {
		o, _ := memObserver()
		tuner, err := NewTuner(task, TuningOptions{Trials: 32, MeasuresPerRound: 16, Seed: 2, Observer: o})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tuner.Tune(); err != nil {
			t.Fatal(err)
		}
		return tuner, o
	}
	kept, _ := open()
	tuner, o := open()
	best, _ := tuner.Best()
	if err := tuner.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := tuner.ModelFingerprint(), kept.ModelFingerprint(); got != want {
		t.Errorf("fingerprint after Close %016x, of a tuner not closed %016x", got, want)
	}
	prepared := o.Metrics.Snapshot().Counters["proposals_prepared"]
	if _, err := tuner.Tune(); err == nil {
		t.Fatal("Tune after Close returned no error")
	}
	if got := o.Metrics.Snapshot().Counters["proposals_prepared"]; got != prepared {
		t.Errorf("Tune after Close prepared %d proposals", got-prepared)
	}
	if again, err := tuner.Best(); err != nil || again.State != best.State || again.Seconds != best.Seconds {
		t.Errorf("Best after Close: %v, %v; before: %v", again, err, best)
	}
	if err := tuner.Close(); err != nil {
		t.Errorf("a second Close: %v", err)
	}
	kept.Close()
}
