package warm

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/measure"
	"repro/internal/regserver"
)

// wrec builds a synthetic record (the warm package never replays).
func wrec(task, target, dag string, sec float64, id int) measure.Record {
	return measure.Record{
		Task: task, Target: target, DAG: dag,
		Steps:     json.RawMessage(fmt.Sprintf(`[{"id":%d}]`, id)),
		Seconds:   sec,
		Noiseless: sec,
	}
}

// sliceSource serves fixed records in a fixed order, filtering like the
// real sources do.
type sliceSource []measure.Record

func (s sliceSource) Name() string { return "slice" }

func (s sliceSource) Fetch(workload, target string) (*measure.Log, error) {
	out := &measure.Log{}
	for _, rec := range s {
		if rec.Task == workload && rec.Target == target {
			out.Records = append(out.Records, rec)
		}
	}
	return out, nil
}

// TestRecordsOrderCanonical: Records is a pure function of record
// contents — file append order, server key order, or any shuffle yield
// identical output. This is what makes warm-from-file and
// warm-from-server bit-identical downstream.
func TestRecordsOrderCanonical(t *testing.T) {
	target := "intel-20c-avx512"
	var recs []measure.Record
	for i := 0; i < 20; i++ {
		recs = append(recs, wrec("t", target, fmt.Sprintf("d%d", i%3), float64(1+i%7), i))
		recs = append(recs, wrec("t", "intel-20c-avx2", fmt.Sprintf("d%d", i%3), float64(2+i), 100+i))
	}
	want, err := Records(sliceSource(recs), "t", target)
	if err != nil || len(want) != 20 {
		t.Fatalf("got %d records err=%v, want the target's 20", len(want), err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]measure.Record(nil), recs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got, _ := Records(sliceSource(shuffled), "t", target)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shuffled input came back in another order", trial)
		}
	}
}

func TestOpenSpecForms(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.json")
	l := &measure.Log{Records: []measure.Record{
		wrec("t", "m", "d", 1.0, 0),
		wrec("u", "m", "d", 2.0, 1),
	}}
	if err := l.SaveFile(logPath); err != nil {
		t.Fatal(err)
	}
	srv := regserver.New(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if _, err := regserver.NewClient(hs.URL).AddLog(l); err != nil {
		t.Fatal(err)
	}

	// File source: per-task slices.
	fsrc, err := Open(logPath, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := fsrc.Fetch("t", "m"); len(got.Records) != 1 || got.Records[0].Task != "t" {
		t.Fatalf("file fetch: %+v", got)
	}

	// Server source (explicit URL and via the "registry" literal).
	for _, spec := range []string{hs.URL, "registry"} {
		ssrc, err := Open(spec, hs.URL, 0)
		if err != nil {
			t.Fatalf("open %q: %v", spec, err)
		}
		if got, err := ssrc.Fetch("u", "m"); err != nil || len(got.Records) != 1 || got.Records[0].Task != "u" {
			t.Fatalf("server fetch via %q: %+v err=%v", spec, got, err)
		}
	}

	// Merged source concatenates.
	msrc, err := Open(logPath+","+hs.URL, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := msrc.Fetch("t", "m"); len(got.Records) != 2 {
		t.Fatalf("multi fetch: %d records, want 2 (file + server)", len(got.Records))
	}

	// Error forms.
	if _, err := Open("registry", "", 0); err == nil {
		t.Error("'registry' without a registry URL must fail")
	}
	if _, err := Open("", "", 0); err == nil {
		t.Error("empty spec must fail")
	}
	if _, err := Open("http://127.0.0.1:1", "", 0); err == nil {
		t.Error("unreachable server must fail at Open (eager ping)")
	}
	// A missing file behaves like an empty log (cold-start degrade), the
	// same contract as -resume.
	coldSrc, err := Open(filepath.Join(dir, "absent.json"), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := coldSrc.Fetch("t", "m"); err != nil || len(got.Records) != 0 {
		t.Fatalf("missing file should fetch empty: %+v err=%v", got, err)
	}
}

// TestRecordsEndToEnd: file and server sources over the same mixed-target
// history return exactly the target's records — never another target's,
// never a record without one — in the same order.
func TestRecordsEndToEnd(t *testing.T) {
	const target = "intel-20c-avx512"
	l := &measure.Log{Records: []measure.Record{
		wrec("t", "intel-20c-avx2", "d1", 2.0, 1),
		wrec("t", target, "d2", 3.0, 3),
		wrec("t", "nvidia-v100", "d1", 0.5, 2),
		wrec("t", "", "d1", 1.5, 4),
		wrec("t", target, "d1", 1.0, 0),
		wrec("u", target, "d1", 1.0, 5),
	}}
	logPath := filepath.Join(t.TempDir(), "log.json")
	if err := l.SaveFile(logPath); err != nil {
		t.Fatal(err)
	}
	srv := regserver.New(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if _, err := regserver.NewClient(hs.URL).AddLog(l); err != nil {
		t.Fatal(err)
	}
	want := []measure.Record{l.Records[4], l.Records[1]}
	for _, spec := range []string{logPath, hs.URL} {
		src, err := Open(spec, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := Records(src, "t", target)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(recs, want) {
			t.Errorf("%s: got %+v, want the target's two records in canonical order", spec, recs)
		}
	}
}

// TestSubsample pins the -warm-start-limit sampler: deterministic,
// bounded, and training-representative (fastest records plus a slow
// tail survive, per group).
func TestSubsample(t *testing.T) {
	var l measure.Log
	// Two groups (two DAG shapes) of 20 records each, times 1..20.
	for g, dag := range []string{"d1", "d2"} {
		for i := 0; i < 20; i++ {
			l.Records = append(l.Records, wrec("t", "m", dag, float64(i+1), g*100+i))
		}
	}
	// No-op cases.
	if got := Subsample(&l, 0); got != &l {
		t.Error("limit 0 must be a no-op")
	}
	if got := Subsample(&l, 40); got != &l {
		t.Error("limit >= len must be a no-op")
	}
	for _, limit := range []int{1, 3, 8, 17, 39} {
		got := Subsample(&l, limit)
		if len(got.Records) > limit {
			t.Fatalf("limit %d: %d records", limit, len(got.Records))
		}
		again := Subsample(&l, limit)
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("limit %d: subsample not deterministic", limit)
		}
	}
	// A roomy limit keeps each group's fastest AND some of its slow
	// tail — the Compact shape that keeps warm-started models honest.
	got := Subsample(&l, 12)
	var fastest, slowest [2]bool
	for _, r := range got.Records {
		g := 0
		if r.DAG == "d2" {
			g = 1
		}
		if r.Seconds == 1 {
			fastest[g] = true
		}
		if r.Seconds == 20 {
			slowest[g] = true
		}
	}
	if fastest != [2]bool{true, true} || slowest != [2]bool{true, true} {
		t.Errorf("subsample lost a group's best or slow tail: fastest=%v slowest=%v", fastest, slowest)
	}
}

// TestOpenLimitBoundsSources: the limit applies per source, for file
// and server forms alike, and counts only the target's records — another
// target's history, here sorting first, never takes a place — and limited
// warm starts stay deterministic.
func TestOpenLimitBoundsSources(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "big.json")
	var l measure.Log
	for i := 0; i < 30; i++ {
		l.Records = append(l.Records, wrec("t", "a", "d", float64(i+1), 100+i), wrec("t", "m", "d", float64(i+1), i))
	}
	if err := l.SaveFile(logPath); err != nil {
		t.Fatal(err)
	}
	fsrc, err := Open(logPath, "", 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fsrc.Fetch("t", "m")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) > 5 || len(got.Records) == 0 || !onTarget(got, "m") {
		t.Fatalf("file source fetched %+v under limit 5, want up to 5 of target m", got.Records)
	}
	fsrc2, _ := Open(logPath, "", 5)
	got2, _ := fsrc2.Fetch("t", "m")
	if !reflect.DeepEqual(got, got2) {
		t.Error("limited file fetch not deterministic")
	}

	// Server source: the limit rides the query.
	srv := regserver.New(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	// Distinct DAGs so the registry keeps 30 separate keys.
	var sl measure.Log
	for i := 0; i < 30; i++ {
		dag := fmt.Sprintf("d%02d", i)
		sl.Records = append(sl.Records, wrec("t", "a", dag, float64(i+1), 100+i), wrec("t", "m", dag, float64(i+1), i))
	}
	if _, err := regserver.NewClient(hs.URL).AddLog(&sl); err != nil {
		t.Fatal(err)
	}
	ssrc, err := Open(hs.URL, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	sgot, err := ssrc.Fetch("t", "m")
	if err != nil {
		t.Fatal(err)
	}
	if len(sgot.Records) != 4 || !onTarget(sgot, "m") {
		t.Fatalf("server source fetched %+v under limit 4, want 4 of target m", sgot.Records)
	}
}

func onTarget(l *measure.Log, target string) bool {
	for _, rec := range l.Records {
		if rec.Target != target {
			return false
		}
	}
	return true
}
