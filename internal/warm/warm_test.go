package warm

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/measure"
	"repro/internal/policy"
	"repro/internal/regserver"
)

func TestTargetDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"intel-20c-avx2", "intel-20c-avx2", 0},
		{"intel-20c-avx2", "intel-20c-avx512", 1},
		{"intel-20c-avx512", "intel-20c-avx2", 1},
		{"intel-20c-avx2", "arm-cortex-a53", 2},
		{"arm-cortex-a53", "intel-20c-avx512", 2},
		{"intel-20c-avx2", "nvidia-v100", 3},
		{"nvidia-v100", "arm-cortex-a53", 3},
		{"nvidia-v100", "nvidia-v100", 0},
	}
	for _, c := range cases {
		if got := measure.TargetDistance(c.a, c.b); got != c.want {
			t.Errorf("measure.TargetDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// wrec builds a synthetic record (warm preparation never replays).
func wrec(task, target, dag string, sec float64, id int) measure.Record {
	return measure.Record{
		Task: task, Target: target, DAG: dag,
		Steps:     json.RawMessage(fmt.Sprintf(`[{"id":%d}]`, id)),
		Seconds:   sec,
		Noiseless: sec,
	}
}

func TestFitCalibration(t *testing.T) {
	// avx512 runs exactly 2x faster than avx2 on two overlapping pairs.
	refs := []measure.Record{
		wrec("a", "intel-20c-avx512", "d1", 1.0, 0),
		wrec("a", "intel-20c-avx2", "d1", 2.0, 1),
		wrec("b", "intel-20c-avx512", "d2", 3.0, 2),
		wrec("b", "intel-20c-avx2", "d2", 6.0, 3),
		wrec("c", "intel-20c-avx2", "d3", 9.0, 4), // no native partner
		wrec("d", "arm-cortex-a53", "d4", 5.0, 5), // no overlap at all
	}
	cal := measure.FitCalibration(refs, "intel-20c-avx512")
	s, ok := cal.Scale("intel-20c-avx2")
	if !ok {
		t.Fatal("avx2 should calibrate from 2 overlapping pairs")
	}
	if math.Abs(s-0.5) > 1e-12 {
		t.Errorf("scale = %g, want 0.5", s)
	}
	if _, ok := cal.Scale("arm-cortex-a53"); ok {
		t.Error("arm has no overlap and must not calibrate")
	}
}

func TestPrepareWeightsAndPartitions(t *testing.T) {
	target := "intel-20c-avx512"
	recs := []measure.Record{
		wrec("t", target, "d1", 1.0, 0),               // native
		wrec("t", "", "d1", 1.5, 1),                   // no target: a foreign clock like any other, never native
		wrec("t", "intel-20c-avx2", "d1", 2.0, 2),     // sibling, calibrated via the d1 overlap
		wrec("t", "arm-cortex-a53", "d9", 8.0, 3),     // same class, no overlap: floor weight
		wrec("t", "nvidia-v100", "d1", 0.1, 4),        // different class: dropped
		wrec("other", "intel-20c-avx2", "d1", 2.0, 5), // other workload: dropped
		wrec("t", target, "d1", -1, 6),                // invalid
	}
	out := Prepare(recs, "t", target, "src")
	if len(out) != 4 {
		t.Fatalf("prepared %d records, want 4", len(out))
	}
	// Native partition first, full weight, pool-eligible.
	if wr := out[0]; wr.Target != target || wr.Weight != 1 || wr.TrainOnly {
		t.Errorf("native record %q got weight %g trainOnly=%v", wr.Target, wr.Weight, wr.TrainOnly)
	}
	for _, wr := range out {
		if wr.Source != "src" {
			t.Errorf("record lost source tag: %q", wr.Source)
		}
	}
	// Siblings: train-only, discounted, times calibrated by the d1
	// overlap (avx2 scale = 1.0/2.0 = 0.5).
	byTarget := map[string]policy.WarmRecord{}
	for _, wr := range out[1:] {
		if !wr.TrainOnly || wr.Weight >= 1 {
			t.Errorf("record of target %q must be train-only and discounted, got weight %g trainOnly=%v", wr.Target, wr.Weight, wr.TrainOnly)
		}
		byTarget[wr.Target] = wr
	}
	if _, ok := byTarget[""]; !ok {
		t.Error("target-less record missing from the transfer partition")
	}
	avx2, ok := byTarget["intel-20c-avx2"]
	if !ok || avx2.Weight != measure.WeightSibling {
		t.Errorf("sibling avx2: %+v", avx2)
	}
	if avx2.Seconds != 1.0 { // 2.0 * 0.5
		t.Errorf("sibling seconds not calibrated: %g, want 1", avx2.Seconds)
	}
	arm, ok := byTarget["arm-cortex-a53"]
	if !ok || arm.Weight != measure.WeightSameClass*measure.UncalibratedFactor {
		t.Errorf("uncalibrated arm: weight %g, want %g", arm.Weight, measure.WeightSameClass*measure.UncalibratedFactor)
	}
	if arm.Seconds != 8.0 {
		t.Errorf("uncalibrated times must pass through, got %g", arm.Seconds)
	}
}

// TestPrepareOrderCanonical: preparation is a pure function of record
// contents — file append order, server key order, or any shuffle yield
// identical output. This is what makes warm-from-file and
// warm-from-server bit-identical downstream.
func TestPrepareOrderCanonical(t *testing.T) {
	target := "intel-20c-avx512"
	var recs []measure.Record
	for i := 0; i < 20; i++ {
		recs = append(recs, wrec("t", target, fmt.Sprintf("d%d", i%3), float64(1+i), i))
		recs = append(recs, wrec("t", "intel-20c-avx2", fmt.Sprintf("d%d", i%3), float64(2+i), 100+i))
	}
	want := Prepare(recs, "t", target, "src")
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]measure.Record(nil), recs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := Prepare(shuffled, "t", target, "src")
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shuffled input prepared differently", trial)
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
	if got, _ := fsrc.Fetch("t"); len(got.Records) != 1 || got.Records[0].Task != "t" {
		t.Fatalf("file fetch: %+v", got)
	}

	// Server source (explicit URL and via the "registry" literal).
	for _, spec := range []string{hs.URL, "registry"} {
		ssrc, err := Open(spec, hs.URL, 0)
		if err != nil {
			t.Fatalf("open %q: %v", spec, err)
		}
		if got, err := ssrc.Fetch("u"); err != nil || len(got.Records) != 1 || got.Records[0].Task != "u" {
			t.Fatalf("server fetch via %q: %+v err=%v", spec, got, err)
		}
	}

	// Merged source concatenates.
	msrc, err := Open(logPath+","+hs.URL, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := msrc.Fetch("t"); len(got.Records) != 2 {
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
	if got, err := coldSrc.Fetch("t"); err != nil || len(got.Records) != 0 {
		t.Fatalf("missing file should fetch empty: %+v err=%v", got, err)
	}
}

// TestRecordsEndToEnd: the fetch→filter→weight pipeline through a real
// server, feeding a policy-shaped result.
func TestRecordsEndToEnd(t *testing.T) {
	srv := regserver.New(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := regserver.NewClient(hs.URL)
	l := &measure.Log{Records: []measure.Record{
		wrec("t", "intel-20c-avx512", "d1", 1.0, 0),
		wrec("t", "intel-20c-avx2", "d1", 2.0, 1),
		wrec("t", "nvidia-v100", "d1", 0.5, 2),
	}}
	if _, err := cl.AddLog(l); err != nil {
		t.Fatal(err)
	}
	src, err := Open(hs.URL, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Records(src, "t", "intel-20c-avx512")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (native + avx2 sibling; GPU dropped)", len(recs))
	}
	var _ []policy.WarmRecord = recs
	if recs[0].Target != "intel-20c-avx512" || recs[0].Weight != 1 {
		t.Errorf("native first: %+v", recs[0])
	}
	if recs[1].Target != "intel-20c-avx2" || !recs[1].TrainOnly {
		t.Errorf("sibling second: %+v", recs[1])
	}
	if recs[1].Seconds != 1.0 { // calibrated 2.0 * (1.0/2.0)
		t.Errorf("sibling not calibrated: %g", recs[1].Seconds)
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
// and server forms alike, and limited warm starts stay deterministic.
func TestOpenLimitBoundsSources(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "big.json")
	var l measure.Log
	for i := 0; i < 30; i++ {
		l.Records = append(l.Records, wrec("t", "m", "d", float64(i+1), i))
	}
	if err := l.SaveFile(logPath); err != nil {
		t.Fatal(err)
	}
	fsrc, err := Open(logPath, "", 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fsrc.Fetch("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) > 5 || len(got.Records) == 0 {
		t.Fatalf("file source fetched %d records under limit 5", len(got.Records))
	}
	fsrc2, _ := Open(logPath, "", 5)
	got2, _ := fsrc2.Fetch("t")
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
		sl.Records = append(sl.Records, wrec("t", "m", fmt.Sprintf("d%02d", i), float64(i+1), i))
	}
	if _, err := regserver.NewClient(hs.URL).AddLog(&sl); err != nil {
		t.Fatal(err)
	}
	ssrc, err := Open(hs.URL, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	sgot, err := ssrc.Fetch("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(sgot.Records) != 4 {
		t.Fatalf("server source fetched %d records under limit 4", len(sgot.Records))
	}
}
