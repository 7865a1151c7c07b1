package evo_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/ansor"
	"repro/internal/evo"
)

// TestReusedTablesMatchFresh is invariant T end to end, in the style of
// feat's TestReusedChunksMatchFresh: two TuneNetwork runs and two tuners
// (the second warm-started from the first's log) run once with the free
// list emptied before each, and once with every set that goes back to
// it refilled with stale signatures, NaN scores and a state of another
// DAG, so every proposal after the first borrows a poisoned set.
// Latencies, results, record logs and model fingerprints must be
// bit-equal: a borrowed set is empty whatever the list holds.
func TestReusedTablesMatchFresh(t *testing.T) {
	fresh := tuneTwice(t, evo.FreeTables.Drain)
	stop := evo.PoisonReturnedTables()
	reused := tuneTwice(t, func() {})
	if stop() == 0 {
		t.Fatal("no set went back to the free list: nothing was reused")
	}
	if err := evo.FreeTables.Check(); err != nil {
		t.Fatal(err)
	}
	if reused != fresh {
		t.Errorf("on poisoned tables the runs returned\n%s\non fresh ones\n%s", reused, fresh)
	}
}

// tuneTwice runs two dcgan TuneNetworks and two matmul tuners, the
// second warm-started from the first's record log, calling between
// before each, and returns everything they report, bit for bit.
func tuneTwice(t *testing.T, between func()) string {
	t.Helper()
	net, err := ansor.BuiltinNetwork("dcgan", 1)
	if err != nil {
		t.Fatal(err)
	}
	b := ansor.NewComputeBuilder("matmul_relu")
	b.ReLU(b.Matmul(b.Input("A", 128, 128), 128, true))
	dag, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	task := ansor.NewTask("matmul", dag, ansor.TargetIntelCPU(false))
	out := ""
	for _, seed := range []int64{3, 4} {
		between()
		res, err := ansor.TuneNetwork(net, ansor.TargetIntelCPU(true), ansor.TuningOptions{
			Trials: 16, MeasuresPerRound: 8, Seed: seed, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("network seed %d latency %016x trials %d\n", seed, math.Float64bits(res.Latency), res.Trials)
		for _, task := range net.Tasks {
			out += fmt.Sprintf(" %s %016x\n", task.Name, math.Float64bits(res.TaskLatencies[task.Name]))
		}
	}
	dir, from := t.TempDir(), ""
	for i := 0; i < 2; i++ {
		between()
		to := filepath.Join(dir, fmt.Sprintf("rec%d.jsonl", i))
		tuner, err := ansor.NewTuner(task, ansor.TuningOptions{Trials: 32, MeasuresPerRound: 16, Workers: 2,
			Seed: int64(5 + i), WarmStartFrom: from, RecordTo: to})
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
		log, err := os.ReadFile(to)
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("tuner %d best %016x %s trials %d model %016x history %v\n%s", i,
			math.Float64bits(best.Seconds), best.State.Signature(), tuner.Trials(), tuner.ModelFingerprint(),
			tuner.History(), log)
		from = to
	}
	return out
}
