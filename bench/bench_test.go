package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAndQuartiles(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {95, 4.8}, {100, 5}} {
		if got := percentile(vals, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || median([]float64{7}) != 7 {
		t.Error("empty and single-value percentiles")
	}
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(ten)
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread(ten); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean = %v", got)
	}
}

func TestBlockStats(t *testing.T) {
	// Five stretches of 100 ops, 10 ms apart, 2 work items each. The
	// third stretch stalls: its ops take 50 ms and come 60 ms apart. The
	// best stretch is reported, so the stall does not show.
	var samples []sample
	var now time.Duration
	for g := 0; g < 5; g++ {
		gap, ms := 10*time.Millisecond, 1.0
		if g == 2 {
			gap, ms = 60*time.Millisecond, 50.0
		}
		for i := 0; i < 100; i++ {
			now += gap
			samples = append(samples, sample{end: now, ms: ms, work: 2})
		}
	}
	st := blockStats(samples, 5)
	// A group's span runs from its first op's start to its last op's end:
	// 99 gaps of 10 ms plus the first op's own 1 ms.
	if want := 200 / 0.991; !near(st.workPerS, want) || st.p50 != 1 || st.p95 != 1 {
		t.Errorf("blockStats = %+v, want %v/s and 1 ms", st, want)
	}
	// Completion order decides the grouping, not slice order; concurrent
	// clients' ops overlap, and the span starts at the earliest start.
	st = blockStats([]sample{
		{end: 40 * time.Millisecond, ms: 20, work: 1},
		{end: 20 * time.Millisecond, ms: 20, work: 1},
		{end: 30 * time.Millisecond, ms: 30, work: 1},
		{end: 50 * time.Millisecond, ms: 20, work: 1},
	}, 2)
	if !near(st.workPerS, 2/0.030) || st.p50 != 20 {
		t.Errorf("overlapping ops: %+v, want %v/s (two ops over 0..30 ms) and 20 ms", st, 2/0.030)
	}
	// Fewer ops than blocks: one group per op.
	st = blockStats([]sample{{end: time.Second, ms: 500, work: 10}, {end: 3 * time.Second, ms: 2000, work: 10}}, 5)
	if !near(st.workPerS, 20) || st.p50 != 500 || st.p95 != 500 {
		t.Errorf("two ops in five blocks: %+v", st)
	}
}

func TestSpanSelfTime(t *testing.T) {
	var tr trace
	root := tr.add(-1, 0, "op", 0, 100)
	a := tr.add(root, 0, "a", 10, 40)
	tr.add(root, 0, "b", 30, 60)   // overlaps a: the union covers 10..60
	tr.add(root, 0, "c", 90, 120)  // reaches outside: clipped to 90..100
	tr.add(a, 0, "a1", 10, 20)     // grandchild: not root's child
	tr.add(root, 0, "empty", 5, 5) // zero length
	if got := tr.covered(root); got != 60 {
		t.Errorf("covered = %d, want 60", got)
	}
	if got := tr.selfTime(root); got != 40 {
		t.Errorf("selfTime(root) = %d, want 40", got)
	}
	if got := tr.selfTime(a); got != 20 {
		t.Errorf("selfTime(a) = %d, want 20", got)
	}
	if got := unionLen([][2]int64{{5, 7}, {0, 2}, {1, 3}, {6, 6}}); got != 5 {
		t.Errorf("unionLen = %d, want 5", got)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var s span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil || len(lines) != len(tr.spans) || s != tr.spans[1] {
		t.Errorf("span file: %d lines, line 1 = %+v (%v)", len(lines), s, err)
	}
}

// traceEvents builds an event stream with timestamps at base+ms.
type traceEvents struct {
	base   time.Time
	events []obs.Event
}

func (te *traceEvents) at(ms float64, e obs.Event) {
	e.V = obs.Version
	e.TS = te.base.Add(time.Duration(ms * float64(time.Millisecond))).UTC().Format(time.RFC3339Nano)
	te.events = append(te.events, e)
}

func TestTuneTraceSharesClose(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	te := &traceEvents{base: base}
	// Warm start: a train phase and a best before any round.
	te.at(5, obs.Event{Type: obs.EvWarmStart, Task: "t", Count: 128})
	te.at(10, obs.Event{Type: obs.EvBestImproved, Task: "t"})
	te.at(20, obs.Event{Type: obs.EvPhase, Task: "t", Phase: "train", DurMS: 10})
	te.at(20, obs.Event{Type: obs.EvModelTrained, Task: "t", Detail: "refit", Count: 128})
	// Round 1 of task t: 20..60 = sketch 10 + evolve 20 + train 8, self 2.
	te.at(20, obs.Event{Type: obs.EvRoundStart, Task: "t", Round: 1})
	te.at(30, obs.Event{Type: obs.EvPhase, Task: "t", Round: 1, Phase: "sketch", DurMS: 10})
	te.at(50, obs.Event{Type: obs.EvPhase, Task: "t", Round: 1, Phase: "evolve", DurMS: 20})
	te.at(51, obs.Event{Type: obs.EvBestImproved, Task: "t", Round: 1})
	te.at(52, obs.Event{Type: obs.EvBestImproved, Task: "t", Round: 1})
	te.at(59, obs.Event{Type: obs.EvPhase, Task: "t", Round: 1, Phase: "train", DurMS: 8})
	te.at(59, obs.Event{Type: obs.EvModelTrained, Task: "t", Round: 1, Detail: "boost", Count: 160})
	// Round 1 of task u overlaps it: 40..80 = measure 40.
	te.at(40, obs.Event{Type: obs.EvRoundStart, Task: "u", Round: 1})
	te.at(60, obs.Event{Type: obs.EvRoundEnd, Task: "t", Round: 1, DurMS: 40})
	te.at(80, obs.Event{Type: obs.EvPhase, Task: "u", Round: 1, Phase: "measure", DurMS: 40})
	te.at(80, obs.Event{Type: obs.EvRoundEnd, Task: "u", Round: 1, DurMS: 40})
	te.at(81, obs.Event{Type: obs.EvWaveScheduled, Count: 2})

	tt := newTuneTrace(base)
	tt.addOp(0, base, base.Add(100*time.Millisecond), te.events)
	m := tt.metrics()
	want := map[string]float64{
		"policy.rounds_per_op":           2,
		"policy.round_ms_p50":            40,
		"policy.sketch_share":            10.0 / 80,
		"policy.evolve_share":            20.0 / 80,
		"policy.train_share":             8.0 / 80, // the warm-start fit is outside every round
		"policy.measure_share":           40.0 / 80,
		"policy.score_share":             0,
		"policy.self_share":              2.0 / 80,
		"policy.best_improved_per_round": 0.5, // round t#1 improved (twice), u#1 did not
		"sched.waves_per_op":             1,
		"sched.wave_width_mean":          2,
		"sched.overlap":                  0.8,
		"ansor.outside_rounds_share":     0.4, // rounds cover 20..80 of 0..100
		"xgb.trainings_per_op":           2,
		"xgb.refit_ratio":                0.5,
		"xgb.train_ms_p50":               9,
		"warm.records_absorbed":          128,
		"obs.events_per_op":              float64(len(te.events)),
	}
	for name, w := range want {
		if !near(m[name], w) {
			t.Errorf("%s = %v, want %v", name, m[name], w)
		}
	}
	sum := m["policy.self_share"]
	for _, p := range []string{"sketch", "evolve", "score", "measure", "train"} {
		sum += m["policy."+p+"_share"]
	}
	if !near(sum, 1) {
		t.Errorf("phase shares + self share = %v, want 1", sum)
	}
	// The warm-start phase hangs off the op, not off a round.
	for _, s := range tt.tr.spans {
		if s.Name == "phase:train" && s.End == int64(20*time.Millisecond) && tt.tr.spans[s.Parent].Name != "op" {
			t.Errorf("warm-start train phase has parent %q", tt.tr.spans[s.Parent].Name)
		}
	}
}

func TestFleetTimeline(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	te := &traceEvents{base: base}
	tr1 := "C2D.s1@m#1"
	// Two chunk jobs of one batch; the second is leased before the client
	// stamps it queued (the lease raced the submit's return).
	te.at(2, obs.Event{Type: obs.EvBatchQueued, Trace: tr1, Job: "j1"})
	te.at(3, obs.Event{Type: obs.EvBatchLeased, Trace: tr1, Job: "j1", Worker: "w0"})
	te.at(3, obs.Event{Type: obs.EvWorkerLease, Trace: tr1, Job: "j1", Worker: "w0"})
	te.at(3.5, obs.Event{Type: obs.EvBatchLeased, Trace: tr1, Job: "j2", Worker: "w1"})
	te.at(4, obs.Event{Type: obs.EvBatchQueued, Trace: tr1, Job: "j2"})
	te.at(5, obs.Event{Type: obs.EvBatchMeasured, Trace: tr1, Job: "j1", Worker: "w0"})
	te.at(5, obs.Event{Type: obs.EvWorkerResult, Trace: tr1, Job: "j1", Worker: "w0"})
	te.at(6, obs.Event{Type: obs.EvBatchReported, Trace: tr1, Job: "j1"})
	te.at(7, obs.Event{Type: obs.EvBatchMeasured, Trace: tr1, Job: "j2", Worker: "w1"})
	te.at(9, obs.Event{Type: obs.EvBatchReported, Trace: tr1, Job: "j2"})
	// A job of another batch (not among the ops) is left out.
	te.at(9, obs.Event{Type: obs.EvBatchQueued, Trace: "C2D.s1@m#2", Job: "j3"})

	ops := []fleetOp{{op: 0, trace: tr1, start: base, end: base.Add(10 * time.Millisecond)}}
	tr, m := fleetTimeline(base, ops, te.events, 2)
	want := map[string]float64{
		"fleet.local_stage_ms_p50": 2,
		"fleet.inflight_ms_p50":    7,
		"fleet.tail_ms_p50":        1,
		"fleet.queue_wait_ms_p50":  0.5, // j1 waited 1 ms, j2 clamps to 0
		"fleet.worker_ms_p50":      2.75,
		"fleet.collect_ms_p50":     1.5,
		"fleet.leases_per_batch":   2,
		"fleet.worker_busy_share":  0.1, // w0 busy 2 ms of 10 ms x 2 workers
	}
	for name, w := range want {
		if !near(m[name], w) {
			t.Errorf("%s = %v, want %v", name, m[name], w)
		}
	}
	if got := m["fleet.local_stage_ms_p50"] + m["fleet.inflight_ms_p50"] + m["fleet.tail_ms_p50"]; !near(got, 10) {
		t.Errorf("per-batch spans sum to %v, want the op's 10 ms", got)
	}
	if n := len(tr.children(0)); n != 4 { // two chunks, local_stage, tail
		t.Errorf("op has %d child spans, want 4", n)
	}
}

func TestServeDataDeterminism(t *testing.T) {
	a, b, c := newServeData(7), newServeData(7), newServeData(8)
	for _, k := range []int{0, 1, 4097, serveKeys - 1} {
		ra, rb := a.record(k, 3), b.record(k, 3)
		if ra.Sig != rb.Sig || ra.Seconds != rb.Seconds || ra.DAG != rb.DAG || !bytes.Equal(ra.Steps, rb.Steps) {
			t.Errorf("key %d: same seed, different record", k)
		}
		if rc := c.record(k, 3); rc.Sig == ra.Sig || rc.DAG == ra.DAG {
			t.Errorf("key %d: different seed, same record", k)
		}
		if !json.Valid(ra.Steps) {
			t.Errorf("key %d: steps are not JSON: %s", k, ra.Steps)
		}
		// Every version strictly improves on the last, and on the
		// superseded record of the store.
		if !(a.seconds(k, -1) > a.seconds(k, 0) && a.seconds(k, 0) > a.seconds(k, 1) && a.seconds(k, 99999) > a.seconds(k, 100000)) {
			t.Errorf("key %d: versions do not strictly improve", k)
		}
	}
	for i := range a.perm {
		if a.perm[i] != b.perm[i] {
			t.Fatal("same seed, different key permutation")
		}
	}

	// Keys partition by client; ownKey lands in the client's partition and
	// keeps a key that is already there.
	for k := 0; k < 10; k++ {
		for cl := 0; cl < serveClients; cl++ {
			got := ownKey(k, cl)
			if owner(got) != cl || got < 0 || got >= serveKeys || (owner(k) == cl && got != k) {
				t.Errorf("ownKey(%d, %d) = %d", k, cl, got)
			}
		}
	}

	// checkRead: a reader's own key must be at exactly the last version
	// it published; another client's key may be one publish ahead.
	k := 4 // owner 0
	if err := a.checkRead(k, 0, a.record(k, 5), 5, 5); err != nil {
		t.Errorf("own key, current version: %v", err)
	}
	if err := a.checkRead(k, 0, a.record(k, 4), 5, 5); err == nil {
		t.Error("own key, stale version accepted")
	}
	if err := a.checkRead(k, 1, a.record(k, 6), 4, 5); err != nil {
		t.Errorf("other's key, publish in flight: %v", err)
	}
	if err := a.checkRead(k, 1, a.record(k, 3), 4, 5); err == nil {
		t.Error("other's key, version older than before the read accepted")
	}
	forged := a.record(k, 5)
	forged.Sig = a.sig(k+2, 5)
	if err := a.checkRead(k, 0, forged, 5, 5); err == nil {
		t.Error("record with another key's content accepted")
	}

	if derive(1, "x", 0) != derive(1, "x", 0) || derive(1, "x", 0) == derive(2, "x", 0) ||
		derive(1, "x", 0) == derive(1, "y", 0) || derive(1, "x", 0) == derive(1, "x", 1) || derive(1, "x", -3) <= 0 {
		t.Error("derive is not a positive function of (seed, stream, index)")
	}
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		worse, baseSpread, newSpread, bound float64
		want                                string
	}{
		{0.20, 0.02, 0.02, 0.15, "worse"},
		{0.10, 0.02, 0.02, 0.15, "same"},
		{-0.01, 0.02, 0.02, 0.15, "same"},
		{-0.05, 0.02, 0.02, 0.15, "better"},
		{0.05, 0.20, 0.02, 0.15, "unresolved"},
		{-0.30, 0.02, 0.20, 0.15, "unresolved"},
		{0.40, 0.30, 0.30, 0.15, "worse"},
	} {
		if got := verdict(c.worse, c.baseSpread, c.newSpread, c.bound); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c, got, c.want)
		}
	}

	// Whole files: the new side is 30 % slower on op_ms_p50 of one
	// workload and fails an op on the other.
	dir := t.TempDir()
	write := func(name string, slow float64, failed int) string {
		path := filepath.Join(dir, name)
		for _, wl := range []string{"tune-net", "serve-mix"} {
			for run := 0; run < 4; run++ {
				j := 1 + 0.01*float64(run)
				res := result{Correct: failed == 0, Attempted: 10, Metrics: map[string]metricValue{}}
				for _, def := range endToEnd {
					res.Metrics[def.name] = metricValue{Value: 100 * j, Unit: def.unit}
				}
				if wl == "tune-net" {
					res.Metrics["op_ms_p50"] = metricValue{Value: 100 * j * slow, Unit: "ms"}
				} else {
					res.Failed = failed
				}
				if err := appendRecord(path, record{Workload: wl, Seed: int64(run), result: res}); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A traced record is not an end-to-end run and is skipped.
		if err := appendRecord(path, record{Workload: "tune-net", Traced: true, result: result{Metrics: map[string]metricValue{"op_ms_p50": {Value: 1e9}}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	basePath := write("base.jsonl", 1, 0)
	var out bytes.Buffer
	if code := runCompare([]string{basePath, write("same.jsonl", 1, 0)}, &out); code != 0 {
		t.Errorf("identical sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare([]string{basePath, write("slow.jsonl", 1.3, 0)}, &out); code != 1 || strings.Count(out.String(), " worse") != 1 {
		t.Errorf("slower set: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare([]string{basePath, write("failing.jsonl", 1, 1)}, &out); code != 1 || !strings.Contains(out.String(), "failed ops rose") {
		t.Errorf("failing set: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare([]string{basePath}, &out); code != 0 || !strings.Contains(out.String(), "spread") {
		t.Errorf("single set: exit %d\n%s", code, out.String())
	}
	if code := runCompare(nil, &out); code != 2 {
		t.Errorf("no files: exit %d", code)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the program prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloadTable))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadTable[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), table has %q", i, w.Name, len(w.Why), workloadTable[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound || d.bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v, table has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) || len(layerMetrics) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(spec.PerLayer), len(layerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range spec.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != nil {
			t.Errorf("per-layer metric %d: %+v, table has %+v", i, m, d)
		}
		if seen[m.Name] || (d.better != "lower" && d.better != "higher") {
			t.Errorf("per-layer metric %q: duplicate or bad direction %q", m.Name, d.better)
		}
		seen[m.Name] = true
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}
