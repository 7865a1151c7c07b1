package feat_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/ansor"
	"repro/internal/feat"
)

// TestReusedChunksMatchFresh is invariant F end to end, in the style of
// xgb's TestReusedTrainersMatchFresh: two TuneNetwork runs and two tuners
// (the second warm-started from the first's log) run once with the free
// list emptied before each, as in a fresh process, and once with every
// free chunk filled with NaN before each, so each borrows the chunks the
// one before gave back. Latencies, results, record logs and model
// fingerprints, read after each run has released its memory, must be
// bit-equal: carved rows are zeroed, nothing reads a row after its
// cache's Release, and training data never points into a chunk.
func TestReusedChunksMatchFresh(t *testing.T) {
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
	poisoned := 0
	run := func(between func()) string {
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
			// The fit this fingerprint runs reads the training data after
			// the chunks the tuner gave back have been scribbled over.
			between()
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
	fresh := run(feat.DrainFreeChunks)
	reused := run(func() { poisoned += feat.PoisonFreeChunks() })
	if poisoned == 0 {
		t.Fatal("no chunk was on the free list between runs: nothing was reused")
	}
	if reused != fresh {
		t.Errorf("on reused chunks the runs returned\n%s\non fresh ones\n%s", reused, fresh)
	}
}
