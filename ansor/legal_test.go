package ansor

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/obs"
)

// naiveLimit bounds the iterations VerifyAgainstNaive enumerates per
// program: a 128³ matmul is in, a network's convolutions are not.
const naiveLimit = 1 << 22

// checkBestImproved holds every program a run narrated as best_improved
// to what the search must only ever emit: it lowers, every access stays
// inside its tensor, and, where its iterations and the naive program's
// fit naiveLimit, it writes what the naive program writes. The programs
// are found by task and signature in the given record logs: the run's
// own, and the history it warm-started from. dags maps task names to
// their DAGs. It returns how many programs VerifyAgainstNaive saw.
func checkBestImproved(t *testing.T, sink *obs.MemorySink, dags map[string]*DAG, logs ...string) int {
	t.Helper()
	type key struct{ task, sig string }
	progs := map[key]*ir.State{}
	for _, path := range logs {
		l, err := measure.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range l.Records {
			if dag := dags[rec.Task]; dag != nil {
				if s, err := rec.Replay(dag); err == nil {
					progs[key{rec.Task, s.Signature()}] = s
				}
			}
		}
	}
	events := sink.ByType(obs.EvBestImproved)
	if len(events) == 0 {
		t.Fatal("the run narrated no best_improved")
	}
	verified := 0
	for _, e := range events {
		s := progs[key{e.Task, e.Signature}]
		if s == nil {
			t.Fatalf("best_improved %s of task %s is in no record log", e.Signature, e.Task)
		}
		low, err := ir.Lower(s)
		if err != nil {
			t.Fatalf("best_improved %s of task %s does not lower: %v", e.Signature, e.Task, err)
		}
		if err := low.CheckBounds(); err != nil {
			t.Errorf("best_improved of task %s: %v\n%s", e.Task, err, s.Print())
		}
		naive, err := ir.Lower(ir.NewState(s.DAG))
		if err != nil {
			t.Fatal(err)
		}
		if iterations(low) > naiveLimit || iterations(naive) > naiveLimit {
			continue
		}
		if err := ir.VerifyAgainstNaive(s, naiveLimit); err != nil {
			t.Errorf("best_improved of task %s: %v\n%s", e.Task, err, s.Print())
		}
		verified++
	}
	t.Logf("%d best_improved programs in bounds, %d of them checked against the naive program", len(events), verified)
	return verified
}

func iterations(low *ir.Lowered) int64 {
	var n int64
	for i := range low.Stmts {
		n += low.Stmts[i].IterCount()
	}
	return n
}
