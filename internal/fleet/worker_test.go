package fleet

import (
	"errors"
	"testing"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
)

// NoiselessTime is the worker-side measurement as a plain function:
// replay steps on a DAG and time the lowered program on a machine, for
// tests asserting worker/measurer equivalence directly.
func NoiselessTime(m *sim.Machine, dag *te.DAG, encSteps []byte) (float64, error) {
	w := Worker{Machine: m}
	r := w.measureOne(dag, 0, encSteps)
	if r.Err != "" {
		return 0, errors.New(r.Err)
	}
	return r.Noiseless, nil
}

// TestMeasureOneAllocationCeiling pins what a worker's measurement costs
// the heap on the shape fleet-batch measures (C2D.s1, CPU target): the
// decode and the replay, and nothing for the lowering and its timing —
// the lowering is borrowed and handed back, and Time allocates nothing.
// Lowering to size cost 8 objects more per program, and Time 20: 60 in all
// where 32 are left.
func TestMeasureOneAllocationCeiling(t *testing.T) {
	var dag *te.DAG
	for _, w := range workloads.SingleOps(1) {
		if w.Key == "C2D.s1" {
			dag = w.Build()
		}
	}
	sks, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(dag)
	if err != nil {
		t.Fatal(err)
	}
	const programs = 50
	pop := anno.NewSampler(sketch.CPUTarget(), 1).SamplePopulation(sks, programs)
	if len(pop) != programs {
		t.Fatalf("sampled %d of %d programs", len(pop), programs)
	}
	encoded := make([][]byte, programs)
	for k, s := range pop {
		encoded[k], _ = ir.EncodeSteps(s.Steps)
	}
	w := Worker{Machine: sim.IntelXeon()}
	// AllocsPerRun calls fn once more than runs: a multiple of programs
	// after that first call has both rows average the same programs.
	const runs = 4 * programs
	i := 0
	frontHalf := func() {
		steps, _ := ir.DecodeSteps(encoded[i%programs])
		_, _ = ir.Replay(dag, steps)
		i++
	}
	measureOne := func() {
		if r := w.measureOne(dag, 0, encoded[i%programs]); r.Err != "" {
			t.Fatal(r.Err)
		}
		i++
	}
	i = 0
	front := testing.AllocsPerRun(runs, frontHalf)
	i = 0
	got := testing.AllocsPerRun(runs, measureOne)
	t.Logf("decode and replay: %.1f allocations; measureOne: %.1f", front, got)
	// Under the race detector sync.Pool drops a quarter of what it is
	// handed, so a borrowed lowering's scratch is rebuilt that often.
	if raceDetector {
		return
	}
	if got > front {
		t.Errorf("measureOne allocates %.1f objects per program, %.1f more than its decode and replay", got, got-front)
	}
	const ceiling = 35 // 32 measured
	if got > ceiling {
		t.Errorf("measureOne allocates %.1f objects per program, ceiling %d", got, ceiling)
	}
}
