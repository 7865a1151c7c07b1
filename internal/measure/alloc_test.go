package measure

import (
	"bytes"
	"io"
	"testing"
	"unsafe"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
)

// c2dBatch samples n programs of C2D.s1 (conv2d with its ReLU, the shape
// fleet-batch measures) for the CPU target.
func c2dBatch(t testing.TB, n int) []*ir.State {
	t.Helper()
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
	pop := anno.NewSampler(sketch.CPUTarget(), 1).SamplePopulation(sks, n)
	if len(pop) != n {
		t.Fatalf("sampled %d of %d programs", len(pop), n)
	}
	return pop
}

// TestMeasureAllocationCeiling pins what measuring a 64-program batch
// costs the heap per program, beside the batch's own result slice and
// index list. In process: nothing — the lowering Time reads is borrowed
// and handed back, and Time allocates nothing. Under a Backend without
// a cache: nothing either — no lowering, and no step bytes, which the
// backend encodes where it ships them.
func TestMeasureAllocationCeiling(t *testing.T) {
	const programs = 64
	batch := c2dBatch(t, programs)
	inProcess := New(sim.IntelXeon(), 0.02, 1)
	backed := New(sim.IntelXeon(), 0.02, 1)
	backed.Backend = func(_ string, out []Result, fresh []int) {
		for _, i := range fresh {
			out[i].NoiselessSeconds = 1e-3
		}
	}
	for _, c := range []struct {
		name    string
		ms      *Measurer
		ceiling float64
	}{{"in process", inProcess, 0}, {"stub backend", backed, 0}} {
		c.ms.Workers = 1
		got := testing.AllocsPerRun(10, func() { c.ms.MeasureTask("c2d", batch) }) / programs
		t.Logf("%s: %.2f allocations per program", c.name, got)
		// The batch's own allocations (result slice, index list) stay under
		// one program's worth, so the ceiling is on whole allocations per
		// program. Under the race detector sync.Pool drops a quarter of what
		// it is handed, so a borrowed lowering's scratch is rebuilt that often.
		if got >= c.ceiling+1 && !raceDetector {
			t.Errorf("%s: %.2f allocations per program, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// TestRecorderAllocationCeiling pins what recording costs the heap per
// record once the recorder's line buffer has grown: the dedupe key's
// string and a share of the dedupe map's growth. The line is encoded
// into the recorder's own buffer.
func TestRecorderAllocationCeiling(t *testing.T) {
	ms := New(sim.IntelXeon(), 0.02, 1)
	var l Log
	if _, err := l.AddAll("c2d", ms.Machine.Name, ms.Measure(c2dBatch(t, 64))); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		r := NewRecorder(io.Discard)
		for _, rec := range l.Records {
			if _, err := r.Record(rec); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(l.Records))
	t.Logf("%.2f allocations per record", got)
	if got >= 2 {
		t.Errorf("%.2f allocations per record, ceiling: the dedupe key and a share of the map's growth", got)
	}
}

// TestLoadAllocationCeiling pins what loading a one-task log costs the
// heap per record: its Steps bytes and a share of the record slice's
// growth. Every line is read on a Reader on Load's stack, and a Task,
// Target or DAG equal to the line before's shares that string, so all of
// them share the first record's.
func TestLoadAllocationCeiling(t *testing.T) {
	ms := New(sim.IntelXeon(), 0.02, 1)
	var l Log
	if _, err := l.AddAll("C2D.s1", ms.Machine.Name, ms.Measure(c2dBatch(t, 256))); err != nil {
		t.Fatal(err)
	}
	for i := range l.Records {
		l.Records[i].Sig = "" // one string per program: what is pinned here is what they share
	}
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var loaded *Log
	got := testing.AllocsPerRun(10, func() {
		var err error
		if loaded, err = Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(l.Records))
	t.Logf("%.3f allocations per record", got)
	if got > 1.1 && !raceDetector {
		t.Errorf("%.3f allocations per record, ceiling 1.1: the Steps bytes and a share of the slice's growth", got)
	}
	if len(loaded.Records) != len(l.Records) {
		t.Fatalf("loaded %d of %d records", len(loaded.Records), len(l.Records))
	}
	first := loaded.Records[0]
	for i, rec := range loaded.Records {
		if unsafe.StringData(rec.Task) != unsafe.StringData(first.Task) || unsafe.StringData(rec.Target) != unsafe.StringData(first.Target) ||
			unsafe.StringData(rec.DAG) != unsafe.StringData(first.DAG) {
			t.Fatalf("record %d: Task, Target and DAG do not share the first record's strings", i)
		}
	}
}
