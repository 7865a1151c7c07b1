package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func httpGet(t *testing.T, url string) (string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, b)
	}
	return resp.Header.Get("Content-Type"), b
}

// TestWorkerMetricsEndpoints drives one worker through a measured batch
// and checks its whole observability surface: the JSON /metrics
// payload, the Prometheus exposition (path and query-parameter forms,
// format-linted), /healthz, and the worker_lease/worker_result events
// carrying the batch's wire-propagated trace ID.
func TestWorkerMetricsEndpoints(t *testing.T) {
	machine := sim.IntelXeon()
	url := startBroker(t, nil)
	w := NewWorker(url, "obs-w1", machine, 4)
	sink := &obs.MemorySink{}
	w.Obs.Events = sink
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})

	states := sampleStates(t, 6)
	rm := remote(t, url, machine, 0, 1)
	res := rm.MeasureTask("obs-task", states)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
	}

	hs := httptest.NewServer(w.MetricsHandler())
	defer hs.Close()

	ct, body := httpGet(t, hs.URL+"/metrics")
	if ct != "application/json" {
		t.Errorf("/metrics Content-Type = %q, want application/json", ct)
	}
	var m WorkerMetrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("/metrics: %v\n%s", err, body)
	}
	if m.Worker != "obs-w1" || m.Target != machine.Name {
		t.Errorf("identity = %q/%q, want obs-w1/%s", m.Worker, m.Target, machine.Name)
	}
	if m.LeasesTaken < 1 {
		t.Errorf("leases_taken = %d, want >= 1", m.LeasesTaken)
	}
	if m.ProgramsMeasured != int64(len(states)) || m.ProgramErrors != 0 {
		t.Errorf("programs measured/errors = %d/%d, want %d/0", m.ProgramsMeasured, m.ProgramErrors, len(states))
	}
	if m.Quarantined {
		t.Error("healthy worker reports quarantined")
	}
	if m.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", m.UptimeSeconds)
	}

	for _, path := range []string{"/metrics/prom", "/metrics?format=prometheus"} {
		ct, body := httpGet(t, hs.URL+path)
		if ct != obs.PromContentType {
			t.Errorf("%s Content-Type = %q, want %q", path, ct, obs.PromContentType)
		}
		if err := obs.LintPrometheus(body); err != nil {
			t.Errorf("%s failed the exposition-format lint: %v\n%s", path, err, body)
		}
	}

	_, body = httpGet(t, hs.URL+"/healthz")
	var hz struct {
		OK          bool   `json:"ok"`
		Worker      string `json:"worker"`
		Quarantined bool   `json:"quarantined"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("/healthz: %v\n%s", err, body)
	}
	if !hz.OK || hz.Quarantined || hz.Worker != "obs-w1" {
		t.Errorf("/healthz = %+v, want ok for obs-w1", hz)
	}

	leases := sink.ByType(obs.EvWorkerLease)
	results := sink.ByType(obs.EvWorkerResult)
	if len(leases) == 0 || len(results) == 0 {
		t.Fatalf("worker narrated %d lease / %d result events, want >= 1 each", len(leases), len(results))
	}
	for _, e := range append(leases, results...) {
		if e.Trace == "" || e.Job == "" {
			t.Errorf("%s event missing trace/job: %+v", e.Type, e)
		}
		if e.Worker != "obs-w1" {
			t.Errorf("%s event worker = %q, want obs-w1", e.Type, e.Worker)
		}
	}
}

// TestBrokerMetricsEndpoints pins the broker's two /metrics encodings
// against each other and their contracts: the JSON payload keeps every
// documented field (byte-compatibility of the pre-obs schema), and the
// Prometheus rendering of the same registry passes the format lint.
func TestBrokerMetricsEndpoints(t *testing.T) {
	machine := sim.IntelXeon()
	url := startBroker(t, nil)
	startWorkers(t, url, machine, 4)
	rm := remote(t, url, machine, 0, 1)
	if res := rm.MeasureTask("obs-task", sampleStates(t, 5)); len(res) != 5 {
		t.Fatalf("measured %d results, want 5", len(res))
	}

	// The JSON payload: field-for-field compatible with the schema the
	// Metrics struct documents — a dashboard built before the obs
	// registry keeps working unchanged.
	ct, body := httpGet(t, url+"/metrics")
	if ct != "application/json" {
		t.Errorf("/metrics Content-Type = %q, want application/json", ct)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("/metrics: %v\n%s", err, body)
	}
	for _, key := range []string{
		"jobs", "jobs_submitted", "jobs_completed",
		"programs_queued", "programs_leased", "programs_completed",
		"lease_expiries", "duplicate_results", "workers", "quarantined",
		"uptime_seconds", "bytes_in", "bytes_out", "lease_wakeups",
	} {
		if _, ok := payload[key]; !ok {
			t.Errorf("/metrics JSON lost documented field %q", key)
		}
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	// Per-program state counters cover only currently-held jobs and the
	// client acked (released) its job, so assert the lifetime counters
	// and the per-worker completion row instead.
	if m.JobsSubmitted < 1 || m.JobsCompleted < 1 {
		t.Errorf("job counters too small after a measured batch: %+v", m)
	}
	if len(m.Workers) != 1 || m.Workers[0].Completed != 5 {
		t.Errorf("worker rows = %+v, want one worker with 5 completed programs", m.Workers)
	}

	for _, path := range []string{"/metrics/prom", "/metrics?format=prometheus"} {
		ct, body := httpGet(t, url+path)
		if ct != obs.PromContentType {
			t.Errorf("%s Content-Type = %q, want %q", path, ct, obs.PromContentType)
		}
		if err := obs.LintPrometheus(body); err != nil {
			t.Errorf("%s failed the exposition-format lint: %v\n%s", path, err, body)
		}
	}
}
