package registry

import (
	"path/filepath"
	"testing"

	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/te"
)

func mmDAG(t *testing.T) *te.DAG {
	t.Helper()
	b := te.NewBuilder("mm")
	a := b.Input("A", 64, 64)
	b.Matmul(a, 64, true)
	return b.MustFinish()
}

// measuredLog returns a log with two distinct programs of task "mm".
func measuredLog(t *testing.T, dag *te.DAG) *measure.Log {
	t.Helper()
	s1 := ir.NewState(dag)
	s2 := ir.NewState(dag)
	s2.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: 0, Ann: ir.AnnParallel})
	ms := measure.New(sim.IntelXeon(), 0, 1)
	var l measure.Log
	for _, r := range ms.Measure([]*ir.State{s1, s2}) {
		if err := l.Add("mm", ms.Machine.Name, r); err != nil {
			t.Fatal(err)
		}
	}
	return &l
}

func TestRegistryKeepsPerKeyMinimum(t *testing.T) {
	dag := mmDAG(t)
	l := measuredLog(t, dag)
	r := New()
	if n := r.AddLog(l); n == 0 {
		t.Fatal("no records registered")
	}
	if r.Len() != 1 {
		t.Fatalf("keys = %d, want 1 (same workload+target)", r.Len())
	}
	best, ok := r.Best("mm", l.Records[0].Target, l.Records[0].DAG)
	if !ok {
		t.Fatal("best missing")
	}
	for _, rec := range l.Records {
		if rec.Seconds < best.Seconds {
			t.Errorf("registry kept %g, log has faster %g", best.Seconds, rec.Seconds)
		}
	}
	// Re-adding a slower duplicate does not improve.
	slow := best
	slow.Seconds *= 2
	if r.Add(slow) {
		t.Error("slower record should not improve the registry")
	}
}

func TestRegistryApplyBestReplays(t *testing.T) {
	dag := mmDAG(t)
	l := measuredLog(t, dag)
	r := New()
	r.AddLog(l)
	rec, ok := r.BestFor("mm", l.Records[0].Target, dag)
	if !ok {
		t.Fatal("no best record for a logged workload")
	}
	s, err := rec.Replay(dag)
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || rec.Seconds <= 0 {
		t.Fatal("bad replayed best")
	}
	// Replayed program re-measures to the recorded time (noise-free).
	got := measure.New(sim.IntelXeon(), 0, 1).Measure([]*ir.State{s})[0]
	if got.Seconds != rec.Seconds {
		t.Errorf("replayed best measures %g, recorded %g", got.Seconds, rec.Seconds)
	}
	if _, ok := r.BestFor("absent", "x", dag); ok {
		t.Error("missing workload has a best record")
	}
}

func TestRegistrySaveLoadMerge(t *testing.T) {
	dag := mmDAG(t)
	l := measuredLog(t, dag)
	r := New()
	r.AddLog(l)
	path := filepath.Join(t.TempDir(), "reg.json")
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != r.Len() {
		t.Fatalf("round trip lost keys: %d vs %d", r2.Len(), r.Len())
	}
	b1, _ := r.Best("mm", l.Records[0].Target, l.Records[0].DAG)
	b2, _ := r2.Best("mm", l.Records[0].Target, l.Records[0].DAG)
	if b1.Seconds != b2.Seconds || b1.Sig != b2.Sig {
		t.Error("round trip changed the best record")
	}
	// Merging an identical registry's log improves nothing; a faster one
	// wins.
	if n := r.AddLog(r2.Log()); n != 0 {
		t.Errorf("self-merge improved %d keys, want 0", n)
	}
	faster := b1
	faster.Seconds /= 2
	r3 := New()
	r3.Add(faster)
	if n := r.AddLog(r3.Log()); n != 1 {
		t.Errorf("merge of faster record improved %d keys, want 1", n)
	}
	// Missing file loads as empty.
	empty, err := LoadFile(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil || empty.Len() != 0 {
		t.Errorf("missing file should load empty, got len=%d err=%v", empty.Len(), err)
	}
}
