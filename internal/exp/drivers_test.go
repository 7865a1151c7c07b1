package exp

import (
	"math"
	"testing"

	"repro/ansor"
	"repro/internal/workloads"
)

// TestLibraryAndFigureDriversAgree: ansor.TuneNetwork and TuneNetworks
// run one scheduler loop, so with the same network, budget, seeds and
// measurer they must end on the same latency bits and the same fresh
// trials, at any worker count. The seed is 1 because the library pins
// the scheduler's ε-greedy stream at seed 1 for every TuningOptions.Seed
// (ROADMAP 3(e)) while the figures seed it with Config.Seed; at any
// other seed the two differ in that one argument.
func TestLibraryAndFigureDriversAgree(t *testing.T) {
	for _, w := range []int{1, 2} {
		lib, err := ansor.TuneNetwork(workloads.DCGAN(1), ansor.TargetIntelCPU(false), ansor.TuningOptions{
			Trials: 16, MeasuresPerRound: 8, Seed: 1, Workers: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Trials: 16, PerRound: 8, Seed: 1, Workers: w}
		fig := TuneNetworks([]workloads.Network{workloads.DCGAN(1)}, IntelPlatform(false), cfg, VariantAnsor, 16)
		if len(fig.Latencies) != 1 {
			t.Fatalf("workers %d: %d figure latencies, want 1", w, len(fig.Latencies))
		}
		if a, b := math.Float64bits(lib.Latency), math.Float64bits(fig.Latencies[0]); a != b {
			t.Errorf("workers %d: library latency %#x (%g), figure latency %#x (%g)", w, a, lib.Latency, b, fig.Latencies[0])
		}
		if lib.Trials != fig.Trials {
			t.Errorf("workers %d: library spent %d fresh trials, figure %d", w, lib.Trials, fig.Trials)
		}
	}
}
