package sim

import (
	"math"
	"testing"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
)

// TestTimeAllocationCeiling pins what timing a program costs the heap on
// fused convolutions (C2D.s1: conv2d with its ReLU, both sketch targets)
// on every model: nothing. A Time call keeps its working memory in stack
// buffers and looks residency up by statement index; the maps, the
// per-access rows and the unroll flags it replaced cost 20 objects a call
// here.
func TestTimeAllocationCeiling(t *testing.T) {
	var dag *te.DAG
	for _, w := range workloads.SingleOps(1) {
		if w.Key == "C2D.s1" {
			dag = w.Build()
		}
	}
	var lows []*ir.Lowered
	for _, target := range []sketch.Target{sketch.CPUTarget(), sketch.GPUTarget()} {
		sks, err := sketch.NewGenerator(target).Generate(dag)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range anno.NewSampler(target, 1).SamplePopulation(sks, 16) {
			low, err := ir.Lower(s)
			if err != nil {
				t.Fatal(err)
			}
			lows = append(lows, low)
		}
	}
	for _, m := range []*Machine{IntelXeon(), IntelXeonAVX512(), ARMCortexA53(), NVIDIAV100()} {
		i := 0
		got := testing.AllocsPerRun(4*len(lows), func() {
			m.Time(lows[i%len(lows)])
			i++
		})
		t.Logf("%s: %.2f allocations per Time call", m.Name, got)
		if ceiling := 0.0; got > ceiling && !raceDetector {
			t.Errorf("%s: Time allocates %.2f objects per call, ceiling %.0f", m.Name, got, ceiling)
		}
	}
}

// TestTimePastStackBuffers times a program past every stack buffer Time
// keeps — 17 statements, rank 9, a statement of 140 loops — and holds it
// to the oracle: a large program takes heap memory, it is not refused.
func TestTimePastStackBuffers(t *testing.T) {
	b := te.NewBuilder("deep")
	x := b.Input("X", 2, 2, 2, 2, 2, 2, 2, 2, 2)
	for range 17 {
		x = b.ReLU(x)
	}
	s := ir.NewState(b.MustFinish())
	ones := make([]int, 131)
	for i := range ones {
		ones[i] = 1
	}
	last := s.Stages[len(s.Stages)-1].Name
	s.MustApply(&ir.SplitStep{Stage: last, IterIdx: 0, Factors: ones})
	low, err := ir.Lower(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(low.Stmts[len(low.Stmts)-1].Loops); len(low.Stmts) != 17 || n != 140 {
		t.Fatalf("%d statements, the last of %d loops", len(low.Stmts), n)
	}
	for _, m := range []*Machine{IntelXeon(), NVIDIAV100()} {
		if got, want := m.Time(low), oracleTime(m, low); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Time %v, oracle %v", m.Name, got, want)
		}
		if testing.AllocsPerRun(10, func() { m.Time(low) }) < 4 {
			t.Errorf("%s: a buffer was not outgrown", m.Name)
		}
	}
}
