package fleet

import (
	"errors"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/te"
)

// NoiselessTime is the worker-side measurement as a plain function:
// replay steps on a DAG and time the lowered program on a machine, for
// tests asserting worker/measurer equivalence directly.
func NoiselessTime(m *sim.Machine, dag *te.DAG, encSteps []byte) (float64, error) {
	w := Worker{Machine: m}
	r := w.measureOne(nil, dag, 0, encSteps)
	if r.Err != "" {
		return 0, errors.New(r.Err)
	}
	return r.Noiseless, nil
}

// TestMeasureOneAllocationCeiling pins what a worker's measurement costs
// the heap on the shape fleet-batch measures (C2D.s1, CPU target): the
// state is the lease arena's, applied to as the bytes are parsed, and so
// are the values of the steps it parses and their factor lists; the
// lowering is borrowed and handed back, and Time allocates nothing.
// Decoding the list first and replaying it onto the heap cost 32 objects
// a program, and 17 while the parsed steps were the heap's; 1 is left,
// the tiling structure's string, which names no node of the DAG.
func TestMeasureOneAllocationCeiling(t *testing.T) {
	const programs = 50
	dag, encoded := c2dPrograms(t, programs)
	w := Worker{Machine: sim.IntelXeon()}
	a := ir.BorrowArena()
	defer a.Release()
	// AllocsPerRun calls fn once more than runs: a multiple of programs
	// after that first call has both rows average the same programs.
	const runs = 4 * programs
	i := 0
	decodeThenReplay := func() {
		steps, _ := ir.DecodeSteps(encoded[i%programs])
		_, _ = ir.Replay(dag, steps)
		i++
	}
	measureOne := func() {
		if r := w.measureOne(a, dag, 0, encoded[i%programs]); r.Err != "" {
			t.Fatal(r.Err)
		}
		i++
	}
	i = 0
	front := testing.AllocsPerRun(runs, decodeThenReplay)
	i = 0
	got := testing.AllocsPerRun(runs, measureOne)
	t.Logf("decode then replay: %.1f allocations; measureOne: %.1f", front, got)
	// Under the race detector sync.Pool drops a quarter of what it is
	// handed, so a borrowed lowering's scratch is rebuilt that often.
	if raceDetector {
		return
	}
	if got >= front {
		t.Errorf("measureOne allocates %.1f objects per program, decoding then replaying %.1f", got, front)
	}
	const ceiling = 2 // 1 measured
	if got > ceiling {
		t.Errorf("measureOne allocates %.1f objects per program, ceiling %d", got, ceiling)
	}
}
