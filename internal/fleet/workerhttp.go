package fleet

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/obs"
)

// WorkerMetrics is the ansor-worker /metrics payload: the worker's own
// view of its fleet participation. The broker's /metrics sees the same
// traffic from the other side; a gap between the two (leases granted
// vs leases taken) localizes a fault to the wire.
type WorkerMetrics struct {
	// Worker / Target identify this process to match it against the
	// broker's per-worker status rows.
	Worker string `json:"worker"`
	Target string `json:"target"`
	// LeasesTaken counts lease grants this worker received.
	LeasesTaken int64 `json:"leases_taken"`
	// ProgramsMeasured counts programs replayed+lowered+timed
	// successfully; ProgramErrors counts programs that failed replay or
	// lowering (the program's fault, reported back as errors).
	ProgramsMeasured int64 `json:"programs_measured"`
	ProgramErrors    int64 `json:"program_errors"`
	// Quarantined reports whether the broker has quarantined this worker
	// (the Run loop's terminal state).
	Quarantined bool `json:"quarantined"`
	// UptimeSeconds since NewWorker.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Metrics assembles the worker's metrics payload from its observer's
// registry. Safe on a zero Worker (all zeros).
func (w *Worker) Metrics() WorkerMetrics {
	m := WorkerMetrics{Worker: w.ID}
	if w.Machine != nil {
		m.Target = w.Machine.Name
	}
	if !w.started.IsZero() {
		m.UptimeSeconds = time.Since(w.started).Seconds()
	}
	if w.Obs == nil || w.Obs.Metrics == nil {
		return m
	}
	w.Obs.Metrics.Gauge("uptime_seconds").Set(m.UptimeSeconds)
	s := w.Obs.Metrics.Snapshot()
	m.LeasesTaken = s.Counters["leases_taken"]
	m.ProgramsMeasured = s.Counters["programs_measured"]
	m.ProgramErrors = s.Counters["program_errors"]
	m.Quarantined = s.Gauges["quarantined"] != 0
	return m
}

// MetricsHandler serves the worker's observability endpoints for
// ansor-worker's -metrics-addr listener:
//
//	GET /metrics           JSON WorkerMetrics
//	GET /metrics/prom      Prometheus text exposition (also
//	                       /metrics?format=prometheus)
//	GET /healthz           liveness + quarantine state
func (w *Worker) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	serveMetrics := func(rw http.ResponseWriter, r *http.Request) {
		m := w.Metrics() // refreshes gauges before the snapshot below
		if r.URL.Path == "/metrics/prom" || r.URL.Query().Get("format") == "prometheus" {
			rw.Header().Set("Content-Type", obs.PromContentType)
			if w.Obs != nil && w.Obs.Metrics != nil {
				obs.WritePrometheus(rw, "ansor_worker", w.Obs.Metrics.Snapshot())
			}
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(m)
	}
	mux.HandleFunc("/metrics", serveMetrics)
	mux.HandleFunc("/metrics/prom", serveMetrics)
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		m := w.Metrics()
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(map[string]any{
			"ok":          !m.Quarantined,
			"worker":      m.Worker,
			"target":      m.Target,
			"quarantined": m.Quarantined,
		})
	})
	return mux
}
