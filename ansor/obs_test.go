package ansor

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/policy"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden event-stream file from the current run")

// memObserver returns an observer collecting into a fresh MemorySink and
// registry with the real clock.
func memObserver() (*obs.Observer, *obs.MemorySink) {
	sink := &obs.MemorySink{}
	return obs.New(sink, obs.NewRegistry()), sink
}

// TestTuningBitIdenticalWithEvents pins the tentpole determinism
// contract: a tuning run with the event stream and metrics attached is
// bit-identical to one without — locally and through a worker fleet, at
// -workers 1 and 4. Events are narration, never inputs.
func TestTuningBitIdenticalWithEvents(t *testing.T) {
	task := fleetTask(t)
	base := TuningOptions{Trials: 32, MeasuresPerRound: 16, Seed: 9}
	want := runFleetTune(t, task, base) // events off, local

	url, _ := startFleet(t, nil, task.Target, 2, 4)
	cases := []struct {
		name    string
		fleet   bool
		workers int
	}{
		{"local-w1", false, 1},
		{"local-w4", false, 4},
		{"fleet-w1", true, 1},
		{"fleet-w4", true, 4},
	}
	for _, tc := range cases {
		o, sink := memObserver()
		opts := base
		opts.Workers = tc.workers
		opts.Observer = o
		if tc.fleet {
			opts.FleetURL = url
		}
		if got := runFleetTune(t, task, opts); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: events-on run diverged from events-off baseline:\noff %+v\non  %+v", tc.name, want, got)
		}
		// The run must actually have narrated, or the comparison is void.
		evs := sink.Events()
		if len(evs) == 0 {
			t.Fatalf("%s: observer saw no events", tc.name)
		}
		for _, typ := range []string{obs.EvTaskStart, obs.EvRoundStart, obs.EvPhase, obs.EvModelTrained, obs.EvRoundEnd, obs.EvTaskEnd} {
			if len(sink.ByType(typ)) == 0 {
				t.Errorf("%s: no %s event emitted", tc.name, typ)
			}
		}
		if tc.fleet {
			for _, typ := range []string{obs.EvBatchQueued, obs.EvBatchReported} {
				if len(sink.ByType(typ)) == 0 {
					t.Errorf("%s: no %s event emitted", tc.name, typ)
				}
			}
		}
	}
}

// TestPhaseEventsCoverPprofPhases: every pprof-labeled search phase
// (policy.PhaseNames — sketch/evolve/score/measure/train) emits a
// matching phase event inside its round, so a profile's phase tags and
// the event stream's round sections name the same stages.
func TestPhaseEventsCoverPprofPhases(t *testing.T) {
	task := fleetTask(t)
	o, sink := memObserver()
	// Two rounds minimum: the evolve phase only runs once the cost model
	// is trained, i.e. from round 2 on.
	runFleetTune(t, task, TuningOptions{Trials: 32, MeasuresPerRound: 16, Seed: 7, Observer: o})

	seen := map[string][]int{} // phase -> rounds it appeared in
	for _, e := range sink.ByType(obs.EvPhase) {
		if e.Round == 0 {
			t.Errorf("phase event %q missing its round", e.Phase)
		}
		seen[e.Phase] = append(seen[e.Phase], e.Round)
	}
	for _, name := range policy.PhaseNames {
		if len(seen[name]) == 0 {
			t.Errorf("pprof phase %q emitted no phase event", name)
		}
		delete(seen, name)
	}
	for name := range seen {
		t.Errorf("phase event %q matches no pprof phase label %v", name, policy.PhaseNames)
	}
}

// TestGoldenEventStream pins the JSONL encoding of a fixed-seed short
// tuning run byte for byte: field order, the schema version on every
// line, and the event sequence itself. Timestamps come from an injected
// FakeClock, so the stream is reproducible. Regenerate deliberately
// with `go test ./ansor -run GoldenEventStream -update-golden` after an
// intentional schema or taxonomy change.
func TestGoldenEventStream(t *testing.T) {
	task := fleetTask(t)
	o, sink := fakeClockObserver()
	runFleetTune(t, task, TuningOptions{Trials: 8, MeasuresPerRound: 4, Seed: 3, Workers: 1, Observer: o})
	checkGoldenEvents(t, sink, "events_golden.jsonl")
}

// TestGoldenNetworkEventStream pins a two-task TuneNetwork run the same
// way: task starts while the tasks are built, the scheduler's warm-up
// and gradient waves, every round of both tasks, and the task ends after
// the run, in that order. Regenerate with `go test ./ansor -run
// GoldenNetworkEventStream -update-golden`.
func TestGoldenNetworkEventStream(t *testing.T) {
	mm := fleetTask(t)
	b := NewComputeBuilder("matmul")
	b.Matmul(b.Input("A", 128, 128), 128, false)
	small, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	net := Network{Name: "two", Tasks: []NetworkTask{
		{Name: "mm", Weight: 2, Tag: "matmul", Build: func() *DAG { return mm.DAG }},
		{Name: "mm-small", Weight: 1, Tag: "matmul", Build: func() *DAG { return small }},
	}}
	o, sink := fakeClockObserver()
	if _, err := TuneNetwork(net, mm.Target, TuningOptions{Trials: 8, MeasuresPerRound: 4, Seed: 3, Workers: 1, Observer: o}); err != nil {
		t.Fatal(err)
	}
	checkGoldenEvents(t, sink, "events_network_golden.jsonl")
}

// fakeClockObserver returns an observer collecting into a fresh
// MemorySink whose clock ticks one millisecond a reading.
func fakeClockObserver() (*obs.Observer, *obs.MemorySink) {
	sink := &obs.MemorySink{}
	return &obs.Observer{
		Events:  sink,
		Metrics: obs.NewRegistry(),
		Clock:   obs.FakeClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond),
	}, sink
}

// checkGoldenEvents encodes the sink's events as JSONL and compares them
// with testdata/name byte for byte (or rewrites it under -update-golden).
func checkGoldenEvents(t *testing.T, sink *obs.MemorySink, name string) {
	t.Helper()
	var got bytes.Buffer
	for _, e := range sink.Events() {
		line, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		got.WriteByte('\n')
		// Every emitted line must decode and carry the schema version.
		var back obs.Event
		if err := json.Unmarshal(line, &back); err != nil {
			t.Fatalf("decode emitted line: %v", err)
		}
		if back.V != obs.Version {
			t.Fatalf("emitted event carries version %d, want %d", back.V, obs.Version)
		}
	}

	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("event stream diverged from %s (rerun with -update-golden after an intentional change)\ngot:\n%swant:\n%s",
			golden, got.Bytes(), want)
	}
}

// TestFleetEventTimeline is the cross-process observability guarantee:
// with the tuner and broker narrating into one observer, the JSONL
// stream reconstructs every measurement batch's complete
// queued→leased→measured→reported timeline through the trace/job IDs
// propagated over the wire, and the latency histograms of the contract
// (lease wait, measure batch, round, train) all fill.
func TestFleetEventTimeline(t *testing.T) {
	task := fleetTask(t)
	o, sink := memObserver()
	url, _ := startFleet(t, func(b *fleet.Broker) { b.Obs = o }, task.Target, 1, 4)
	opts := TuningOptions{Trials: 32, MeasuresPerRound: 16, Seed: 7, Workers: 2,
		FleetURL: url, Observer: o}
	runFleetTune(t, task, opts)

	type timeline struct {
		trace                               string
		queued, leased, measured, reported  int
		leasedCount, measuredCount, queuedN int
	}
	// Reconstruct from the JSONL wire form, not the in-memory structs:
	// the stream a file sink would have written is what an operator has.
	var stream bytes.Buffer
	for _, e := range sink.Events() {
		line, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(line)
		stream.WriteByte('\n')
	}
	var events []obs.Event
	for _, line := range bytes.Split(bytes.TrimSpace(stream.Bytes()), []byte("\n")) {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("decode %s: %v", line, err)
		}
		events = append(events, e)
	}

	jobs := map[string]*timeline{}
	get := func(e obs.Event) *timeline {
		if e.Job == "" {
			t.Fatalf("%s event without a job ID", e.Type)
		}
		tl := jobs[e.Job]
		if tl == nil {
			tl = &timeline{trace: e.Trace}
			jobs[e.Job] = tl
		}
		if e.Trace == "" || e.Trace != tl.trace {
			t.Errorf("job %s: %s event trace %q != batch trace %q", e.Job, e.Type, e.Trace, tl.trace)
		}
		return tl
	}
	for _, e := range events {
		switch e.Type {
		case obs.EvBatchQueued:
			tl := get(e)
			tl.queued++
			tl.queuedN = e.Count
		case obs.EvBatchLeased:
			tl := get(e)
			tl.leased++
			tl.leasedCount += e.Count
		case obs.EvBatchMeasured:
			tl := get(e)
			tl.measured++
			tl.measuredCount += e.Count
		case obs.EvBatchReported:
			get(e).reported++
		}
	}
	if len(jobs) == 0 {
		t.Fatal("no batch events: the fleet run narrated nothing")
	}
	for id, tl := range jobs {
		if tl.queued != 1 || tl.reported != 1 {
			t.Errorf("job %s: queued %d / reported %d times, want exactly 1 each", id, tl.queued, tl.reported)
		}
		if tl.leased == 0 || tl.measured == 0 {
			t.Errorf("job %s: %d lease / %d measure events, want >= 1 each", id, tl.leased, tl.measured)
		}
		// Every queued program was leased and measured (requeues can only
		// add lease events, and this run kills no workers).
		if tl.leasedCount < tl.queuedN || tl.measuredCount != tl.queuedN {
			t.Errorf("job %s: %d programs queued, %d leased, %d measured", id, tl.queuedN, tl.leasedCount, tl.measuredCount)
		}
	}

	snap := o.Metrics.Snapshot()
	for _, h := range []string{"lease_wait_seconds", "measure_batch_seconds", "round_seconds", "train_seconds"} {
		if snap.Histograms[h].Count == 0 {
			t.Errorf("histogram %s is empty after a fleet tuning run", h)
		}
	}
}
