package repro

import (
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/ansor"
	"repro/internal/measure"
	"repro/internal/policy"
	"repro/internal/regserver"
)

// warmBenchDAG is the fixed workload of the warm-start convergence
// benchmark.
func warmBenchDAG(b *testing.B) *ansor.DAG {
	b.Helper()
	bd := ansor.NewComputeBuilder("matmul_relu")
	a := bd.Input("A", 128, 128)
	c := bd.Matmul(a, 128, true)
	bd.ReLU(c)
	dag, err := bd.Finish()
	if err != nil {
		b.Fatal(err)
	}
	return dag
}

// BenchmarkWarmStartConvergence measures how many policy-local trials a
// warm-started job needs to reach the cold run's final best — the
// fleet-warm-start payoff. Three
// variants: cold (baseline, reports its full budget), warm from a local
// log file, and warm from a registry server (task-filtered query). Runs
// are deterministic, so ns/op is dominated by the tuning itself; the
// interesting number is the trials_to_cold_best metric.
func BenchmarkWarmStartConvergence(b *testing.B) {
	const trials, perRound, seed = 64, 16, 3
	dir := b.TempDir()
	target := ansor.TargetIntelCPU(true)

	// Build history once: a native avx512 log, and the same log on a
	// server.
	nativeLog := filepath.Join(dir, "native.json")
	tuner, err := ansor.NewTuner(ansor.NewTask("mm", warmBenchDAG(b), target), ansor.TuningOptions{
		Trials: trials, MeasuresPerRound: perRound, Seed: seed, RecordTo: nativeLog,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tuner.Tune(); err != nil {
		b.Fatal(err)
	}
	if err := tuner.Close(); err != nil {
		b.Fatal(err)
	}

	srv := regserver.New(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	l, err := measure.LoadFile(nativeLog)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := regserver.NewClient(hs.URL).AddLog(l); err != nil {
		b.Fatal(err)
	}

	// The cold baseline everyone must reach.
	runOnce := func(warmFrom string) (float64, []policy.HistoryPoint) {
		tuner, err := ansor.NewTuner(ansor.NewTask("mm", warmBenchDAG(b), target), ansor.TuningOptions{
			Trials: trials, MeasuresPerRound: perRound, Seed: seed + 1, WarmStartFrom: warmFrom,
		})
		if err != nil {
			b.Fatal(err)
		}
		best, err := tuner.Tune()
		if err != nil {
			b.Fatal(err)
		}
		tuner.Close()
		return best.Seconds, tuner.History()
	}
	coldBest, _ := runOnce("")

	for _, bc := range []struct {
		name, warmFrom string
	}{
		{"cold", ""},
		{"file", nativeLog},
		{"server", hs.URL},
	} {
		b.Run("source="+bc.name, func(b *testing.B) {
			var reached int
			for i := 0; i < b.N; i++ {
				_, history := runOnce(bc.warmFrom)
				reached = trials + perRound // sentinel: never reached
				for _, h := range history {
					if h.BestTime <= coldBest {
						reached = h.Trials
						break
					}
				}
			}
			b.ReportMetric(float64(reached), "trials_to_cold_best")
		})
	}
}
