package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/regserver"
	"repro/internal/te"
)

// maxBody bounds one request body (a job submission or result post).
const maxBody = 64 << 20

// maxWait caps how long the broker holds a long-poll open (lease or job
// poll); clients with a default 30s HTTP timeout stay safely inside it.
const maxWait = 25 * time.Second

// waitSlice is the longest a blocked long-poll sleeps between checks:
// lease-expiry reaping stays lazy (driven by requests, no background
// goroutine), so every waiter must come back often enough to reap.
const waitSlice = 250 * time.Millisecond

// Broker is the measurement-fleet coordinator: it accepts measurement
// jobs from submitters, leases slices of them to compatible workers,
// requeues slices whose lease expired, quarantines repeat-offender
// workers, and reassembles results in submission order. All state is
// in-memory: jobs are transient by design (the submitter holds the
// programs and re-submits after a broker restart), unlike the registry
// server's durable best-schedule store.
//
// Lease accounting is lazy: expiries are reaped at the top of every
// mutating request and every poll, so the broker needs no background
// goroutine and a test can drive time purely through requests.
type Broker struct {
	// LeaseTTL is how long a worker may sit on a lease before its slice
	// is requeued on another worker (default 30s). Deployments size it
	// to a couple of worst-case batch measurements; stragglers that beat
	// the replacement worker still win — first completion counts.
	LeaseTTL time.Duration
	// MaxFailures is how many expired leases a worker may accumulate
	// before it is quarantined and refused further leases (default 3).
	MaxFailures int
	// AuthToken, when non-empty, requires `Authorization: Bearer
	// <token>` on every endpoint that mutates or reads job state (job
	// submission/poll/delete, leases, results) — the same check the
	// registry server applies to publishes. Only /healthz and /metrics
	// stay open.
	AuthToken string
	// MaxDoneJobs bounds how many completed-but-unacknowledged jobs are
	// retained (default 256). Completed jobs live until the submitter
	// acknowledges them with DELETE /v1/jobs/{id}; the cap evicts the
	// oldest if a submitter dies without acknowledging, so a long-lived
	// broker cannot leak memory.
	MaxDoneJobs int
	// MaxDispatchDistance caps near-sibling dispatch broker-wide: a
	// worker with an empty native queue may be leased a job whose target
	// is within this measure.TargetDistance of the worker's (default 1:
	// same core family, different vector ISA — avx2 ↔ avx512). The
	// effective bound per lease is min(this, the worker's advertised
	// MaxDistance), so either side can opt out; 0 restores exact-match
	// sharding, and CPU ↔ GPU (distance 3) is never dispatched
	// regardless.
	MaxDispatchDistance int
	// LeaseTarget, when > 0, sizes leases by worker throughput instead
	// of fixed capacity: a worker with an observed rate EWMA gets
	// ceil(rate × LeaseTarget) programs per lease (clamped to [1, 4×
	// its requested capacity]), so every lease aims to take roughly
	// LeaseTarget of wall-clock and fast boards drain more of the queue.
	// 0 (the default) grants exactly the requested capacity.
	LeaseTarget time.Duration

	// Obs carries the broker's counters and lease-wait histogram
	// (Obs.Metrics — the JSON /metrics payload and the Prometheus
	// exposition are both rendered from one snapshot of it) and, when a
	// sink is attached, the fleet lifecycle events: batch_leased,
	// batch_measured, fleet_requeue, fleet_quarantine. NewBroker
	// installs an events-off observer over a fresh registry; replace or
	// augment it before the handler serves traffic. Never nil.
	Obs *obs.Observer

	// now is the broker's clock for lease deadlines, expiry reaping and
	// the throughput EWMA; tests inject a fake to drive expiry without
	// sleeping (long-poll request holds and uptime stay wall-clock).
	now func() time.Time

	mu       sync.Mutex
	jobs     map[string]*job
	jobOrder []string // submission order; leases scan oldest-first
	done     []string // completion order; MaxDoneJobs evicts oldest
	workers  map[string]*workerState
	nextJob  int64
	nextID   int64 // lease ids

	// notify is the long-poll broadcast: any state change that could
	// unblock a waiter (job submitted, results landed, slices requeued)
	// closes and replaces it, waking every blocked lease and job poll.
	notify chan struct{}

	started time.Time
	mux     *http.ServeMux
}

// count resolves one of the broker's named counters from its observer's
// registry. Lookups happen per request, not per program, so the map hit
// is noise next to the HTTP handling around it — and it keeps the
// counters live through a test swapping b.Obs for a shared observer.
func (b *Broker) count(name string) *obs.Counter {
	if b.Obs == nil || b.Obs.Metrics == nil {
		return discardCounter
	}
	return b.Obs.Metrics.Counter(name)
}

// discardCounter absorbs bumps when a caller nilled the observer out.
var discardCounter = &obs.Counter{}

type job struct {
	id     string
	target string
	task   string
	// trace is the submitter's batch trace ID, echoed on grants and
	// events; submitted stamps arrival for the lease-wait histogram.
	trace     string
	submitted time.Time
	// dagBin is the submitted binary DAG, validated at the door and
	// handed to workers verbatim.
	dagBin   []byte
	programs []json.RawMessage

	results   []UnitResult
	completed int
	queue     []int // indices awaiting a lease, FIFO
	leases    map[int64]*lease
}

func (j *job) done() bool { return j.completed == len(j.programs) }

type lease struct {
	id       int64
	worker   string
	indices  []int
	deadline time.Time
	granted  time.Time // when handed out, for the throughput EWMA
}

type workerState struct {
	id          string
	target      string
	capacity    int
	completed   int64
	failures    int
	quarantined bool
	// ewma is the observed throughput in programs/second, updated on
	// every completed lease (see ewmaAlpha); 0 until the first one.
	ewma float64
}

// ewmaAlpha is the throughput EWMA's smoothing factor: each completed
// lease contributes 30% of the new estimate, so a worker's rate adapts
// within a few leases without one outlier batch whipsawing lease sizes.
const ewmaAlpha = 0.3

// NewBroker returns a broker with default lease TTL, quarantine
// threshold, and sibling dispatch up to distance 1 (avx2 ↔ avx512).
func NewBroker() *Broker {
	b := &Broker{
		LeaseTTL:            30 * time.Second,
		MaxFailures:         3,
		MaxDoneJobs:         256,
		MaxDispatchDistance: 1,
		jobs:                map[string]*job{},
		workers:             map[string]*workerState{},
		notify:              make(chan struct{}),
		started:             time.Now(),
		now:                 time.Now,
		Obs:                 obs.New(nil, obs.NewRegistry()),
	}
	b.routes()
	return b
}

// Handler returns the HTTP handler serving the fleet API, wrapped in
// the wire-byte accounting middleware (request and response body bytes
// feed the /metrics BytesIn/BytesOut counters).
func (b *Broker) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cr := &countingReader{rc: r.Body}
		r.Body = cr
		cw := &countingWriter{ResponseWriter: w}
		b.mux.ServeHTTP(cw, r)
		b.count("bytes_in").Add(cr.n)
		b.count("bytes_out").Add(cw.n)
	})
}

type countingReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// wakeLocked broadcasts a state change to every blocked long-poll by
// closing and replacing the notify channel. Callers hold b.mu.
func (b *Broker) wakeLocked() {
	close(b.notify)
	b.notify = make(chan struct{})
}

// clampWait bounds a client-requested long-poll duration.
func clampWait(ms int64) time.Duration {
	if ms <= 0 {
		return 0
	}
	d := time.Duration(ms) * time.Millisecond
	if d > maxWait {
		d = maxWait
	}
	return d
}

func (b *Broker) routes() {
	b.mux = http.NewServeMux()
	b.mux.HandleFunc("/healthz", b.handleHealth)
	b.mux.HandleFunc("/v1/jobs", b.handleSubmit)
	b.mux.HandleFunc("/v1/jobs/", b.handleJob)
	b.mux.HandleFunc("/v1/lease", b.handleLease)
	b.mux.HandleFunc("/v1/results", b.handleResults)
	b.mux.HandleFunc("/metrics", b.handleMetrics)
	b.mux.HandleFunc("/metrics/prom", b.handleMetrics)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeBody parses one bounded JSON request body.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "parse body: %v", err)
		return false
	}
	return true
}

// authorized applies the broker's bearer check (shared with the
// registry server) to a mutating request.
func (b *Broker) authorized(w http.ResponseWriter, r *http.Request) bool {
	if regserver.BearerOK(r, b.AuthToken) {
		return true
	}
	writeError(w, http.StatusUnauthorized, "missing or wrong bearer token")
	return false
}

// reapLocked requeues the slices of every expired lease and charges the
// failure to the lease's worker; workers reaching MaxFailures are
// quarantined. Callers hold b.mu.
func (b *Broker) reapLocked(now time.Time) {
	requeued := false
	for _, j := range b.jobs {
		for id, l := range j.leases {
			if now.Before(l.deadline) {
				continue
			}
			delete(j.leases, id)
			b.count("lease_expiries").Inc()
			back := 0
			for _, idx := range l.indices {
				if !j.results[idx].Done {
					j.queue = append(j.queue, idx)
					back++
					requeued = true
				}
			}
			b.Obs.Emit(obs.Event{Type: obs.EvFleetRequeue, Job: j.id, Trace: j.trace,
				Task: j.task, Worker: l.worker, Count: back})
			if ws := b.workers[l.worker]; ws != nil {
				ws.failures++
				if b.MaxFailures > 0 && ws.failures >= b.MaxFailures && !ws.quarantined {
					ws.quarantined = true
					b.Obs.Emit(obs.Event{Type: obs.EvQuarantine, Worker: ws.id,
						Detail: fmt.Sprintf("failures=%d", ws.failures)})
				}
			}
		}
	}
	if requeued {
		// Requeued slices are new work for blocked lease long-polls.
		b.wakeLocked()
	}
}

func (b *Broker) handleHealth(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	jobs, workers := len(b.jobs), len(b.workers)
	b.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "jobs": jobs, "workers": workers})
}

func (b *Broker) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a job to %s", r.URL.Path)
		return
	}
	if !b.authorized(w, r) {
		return
	}
	var spec JobSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	if spec.Target == "" {
		writeError(w, http.StatusBadRequest, "job needs a target")
		return
	}
	if len(spec.Programs) == 0 {
		writeError(w, http.StatusBadRequest, "job carries no programs")
		return
	}
	if len(spec.DAGBin) == 0 {
		writeError(w, http.StatusBadRequest, "job carries no dag_bin (the binary wire DAG)")
		return
	}
	// Reject undecodable DAGs at the door, once per job: a poisoned job
	// would otherwise fail identically on every worker that leased it.
	if _, err := te.DecodeDAGBinary(spec.DAGBin); err != nil {
		writeError(w, http.StatusBadRequest, "bad binary dag: %v", err)
		return
	}
	b.mu.Lock()
	b.nextJob++
	b.count("jobs_submitted").Inc()
	j := &job{
		id:        fmt.Sprintf("job-%d", b.nextJob),
		target:    spec.Target,
		task:      spec.Task,
		trace:     spec.Trace,
		submitted: b.now(),
		dagBin:    spec.DAGBin,
		programs:  spec.Programs,
		results:   make([]UnitResult, len(spec.Programs)),
		leases:    map[int64]*lease{},
	}
	j.queue = make([]int, len(spec.Programs))
	for i := range j.queue {
		j.queue[i] = i
	}
	b.jobs[j.id] = j
	b.jobOrder = append(b.jobOrder, j.id)
	// New work: wake blocked lease long-polls.
	b.wakeLocked()
	b.mu.Unlock()
	writeJSON(w, http.StatusOK, JobAck{ID: j.id, Total: len(spec.Programs)})
}

// handleJob answers a submitter's poll (GET) or acknowledgement
// (DELETE). Results appear on every poll once the job is done —
// delivery is idempotent, so a poll response lost to a timeout or a
// dropped connection costs a retry, never the measurements. A GET with
// ?wait_ms=N long-polls: the broker holds the request open until the
// job completes or the wait expires, so the submitter makes one round
// trip per job. The submitter acknowledges
// with DELETE once it holds the results; jobs whose submitter died
// unacknowledged are evicted oldest-first past MaxDoneJobs. Both verbs
// carry job results or destroy job state, so both sit behind the
// bearer check.
func (b *Broker) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodDelete {
		writeError(w, http.StatusMethodNotAllowed, "GET or DELETE %s", r.URL.Path)
		return
	}
	if !b.authorized(w, r) {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, "bad job id %q", id)
		return
	}
	waitMS, _ := strconv.ParseInt(r.URL.Query().Get("wait_ms"), 10, 64)
	deadline := time.Now().Add(clampWait(waitMS))
	for {
		b.mu.Lock()
		b.reapLocked(b.now())
		j, ok := b.jobs[id]
		if !ok {
			b.mu.Unlock()
			writeError(w, http.StatusNotFound, "unknown job %q (acknowledged and evicted jobs are forgotten)", id)
			return
		}
		if r.Method == http.MethodDelete {
			b.dropJobLocked(id)
			b.mu.Unlock()
			writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
			return
		}
		st := JobStatus{
			ID: j.id, Target: j.target, Task: j.task,
			Total: len(j.programs), Completed: j.completed, Done: j.done(),
		}
		if st.Done {
			st.Results = j.results
		}
		ch := b.notify
		b.mu.Unlock()
		remaining := time.Until(deadline)
		if st.Done || remaining <= 0 {
			writeJSON(w, http.StatusOK, st)
			return
		}
		// Wait for a state change, but never longer than a slice: the
		// waiter itself must keep reaping expired leases (no background
		// goroutine does it), and requeues are what un-wedge a job whose
		// worker died.
		slice := waitSlice
		if slice > remaining {
			slice = remaining
		}
		select {
		case <-ch:
		case <-time.After(slice):
		case <-r.Context().Done():
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
}

// dropJobLocked removes a job from every index. Callers hold b.mu.
func (b *Broker) dropJobLocked(id string) {
	delete(b.jobs, id)
	for i, jid := range b.jobOrder {
		if jid == id {
			b.jobOrder = append(b.jobOrder[:i], b.jobOrder[i+1:]...)
			break
		}
	}
	for i, jid := range b.done {
		if jid == id {
			b.done = append(b.done[:i], b.done[i+1:]...)
			break
		}
	}
}

func (b *Broker) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a lease request to %s", r.URL.Path)
		return
	}
	if !b.authorized(w, r) {
		return
	}
	var req LeaseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" || req.Target == "" {
		writeError(w, http.StatusBadRequest, "lease request needs worker and target")
		return
	}
	if req.Capacity < 1 {
		req.Capacity = 1
	}
	deadline := time.Now().Add(clampWait(req.WaitMS))
	waited := false
	for {
		b.mu.Lock()
		b.reapLocked(b.now())
		ws := b.workers[req.Worker]
		if ws == nil {
			ws = &workerState{id: req.Worker}
			b.workers[req.Worker] = ws
		}
		ws.target = req.Target
		ws.capacity = req.Capacity
		if ws.quarantined {
			failures := ws.failures
			b.mu.Unlock()
			writeError(w, http.StatusForbidden, "worker %q is quarantined after %d lease failures", req.Worker, failures)
			return
		}
		if grant, ok := b.tryLeaseLocked(req); ok {
			if waited {
				b.count("lease_wakeups").Inc()
			}
			b.mu.Unlock()
			writeJSON(w, http.StatusOK, grant)
			return
		}
		ch := b.notify
		b.mu.Unlock()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		// Long-poll: block until a submit/requeue broadcast or the next
		// reaping slice, whichever comes first (see handleJob).
		slice := waitSlice
		if slice > remaining {
			slice = remaining
		}
		waited = true
		select {
		case <-ch:
		case <-time.After(slice):
		case <-r.Context().Done():
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

// tryLeaseLocked hands req a slice of the oldest compatible job, if
// any. Native work always wins: the job list is scanned at distance 0
// (exact target match) first, and only a worker with nothing native
// queued falls through to sibling distances, nearest first, up to
// min(req.MaxDistance, b.MaxDispatchDistance) — so an idle avx512
// board drains an avx2 backlog, but never at the cost of its own
// queue, and CPU ↔ GPU never dispatches. Callers hold b.mu.
func (b *Broker) tryLeaseLocked(req LeaseRequest) (LeaseGrant, bool) {
	maxDist := req.MaxDistance
	if maxDist > b.MaxDispatchDistance {
		maxDist = b.MaxDispatchDistance
	}
	if maxDist > 2 {
		maxDist = 2 // distance 3 is CPU ↔ GPU: never dispatched
	}
	var j *job
	dist := 0
	for d := 0; d <= maxDist && j == nil; d++ {
		for _, id := range b.jobOrder {
			cand := b.jobs[id]
			if len(cand.queue) == 0 || measure.TargetDistance(cand.target, req.Target) != d {
				continue
			}
			j, dist = cand, d
			break
		}
	}
	if j == nil {
		return LeaseGrant{}, false
	}
	n := b.leaseSizeLocked(req)
	if n > len(j.queue) {
		n = len(j.queue)
	}
	indices := append([]int(nil), j.queue[:n]...)
	j.queue = j.queue[n:]
	b.nextID++
	now := b.now()
	l := &lease{
		id:       b.nextID,
		worker:   req.Worker,
		indices:  indices,
		deadline: now.Add(b.LeaseTTL),
		granted:  now,
	}
	j.leases[l.id] = l
	detail := ""
	if dist > 0 {
		b.count("sibling_leases").Inc()
		b.count("sibling_programs").Add(int64(len(indices)))
		detail = fmt.Sprintf("sibling dist=%d from=%s", dist, req.Target)
	}
	// Lease wait is submit→grant: how long the batch's work sat queued
	// before a worker picked (this slice of) it up.
	b.Obs.Observe("lease_wait_seconds", now.Sub(j.submitted).Seconds())
	b.Obs.Emit(obs.Event{Type: obs.EvBatchLeased, Job: j.id, Trace: j.trace, Task: j.task,
		Target: j.target, Worker: req.Worker, Count: len(indices), Detail: detail})
	grant := LeaseGrant{
		Lease: l.id, Job: j.id, Task: j.task, Trace: j.trace, Target: j.target,
		DAGBin: j.dagBin, Indices: indices,
	}
	for _, idx := range indices {
		grant.Programs = append(grant.Programs, j.programs[idx])
	}
	return grant, true
}

// leaseSizeLocked resolves how many programs one lease may carry: the
// worker's requested capacity, or — with a LeaseTarget and an observed
// rate — enough programs to keep the worker busy for about LeaseTarget,
// clamped to [1, 4 × capacity] so a cold estimate can neither starve a
// worker nor let one board monopolize the queue. Callers hold b.mu.
func (b *Broker) leaseSizeLocked(req LeaseRequest) int {
	n := req.Capacity
	ws := b.workers[req.Worker]
	if b.LeaseTarget > 0 && ws != nil && ws.ewma > 0 {
		want := int(math.Ceil(ws.ewma * b.LeaseTarget.Seconds()))
		if max := 4 * req.Capacity; want > max {
			want = max
		}
		if want < 1 {
			want = 1
		}
		n = want
	}
	return n
}

func (b *Broker) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST results to %s", r.URL.Path)
		return
	}
	if !b.authorized(w, r) {
		return
	}
	var post ResultPost
	if !decodeBody(w, r, &post) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	wasDone := false
	j, ok := b.jobs[post.Job]
	if ok {
		wasDone = j.done()
	}
	if !ok {
		// The job finished (possibly via a requeued slice) and was
		// fetched; a straggler's late results are meaningless but not an
		// error — deterministic measurement means they matched anyway.
		writeJSON(w, http.StatusOK, ResultAck{})
		return
	}
	// Validate every index before mutating anything: a malformed post
	// must be rejected whole, never half-applied (results accepted, the
	// lease still live) — the fuzz suite pins this invariant.
	for _, wr := range post.Results {
		if wr.Index < 0 || wr.Index >= len(j.results) {
			writeError(w, http.StatusBadRequest, "result index %d out of range (job %s has %d programs)",
				wr.Index, j.id, len(j.programs))
			return
		}
	}
	accepted := 0
	for _, wr := range post.Results {
		if j.results[wr.Index].Done {
			b.count("duplicate_results").Inc()
			continue
		}
		j.results[wr.Index] = UnitResult{Done: true, Noiseless: wr.Noiseless, Err: wr.Err,
			MeasuredOn: wr.MeasuredOn, Clock: wr.Clock}
		j.completed++
		accepted++
		// The index may have been requeued after this worker's lease
		// expired; completing it must also pull it out of the queue, or
		// a later lease would hand out an already-done program.
		for qi, idx := range j.queue {
			if idx == wr.Index {
				j.queue = append(j.queue[:qi], j.queue[qi+1:]...)
				break
			}
		}
	}
	// A worker releases only the lease it holds. Results are accepted
	// from anyone (first result wins), but a post naming another
	// worker's lease id must leave that lease live: its unmeasured
	// indices are covered by nothing but its expiry.
	l := j.leases[post.Lease]
	if l != nil && l.worker != post.Worker {
		l = nil
	}
	if l != nil {
		delete(j.leases, l.id)
	}
	if ws := b.workers[post.Worker]; ws != nil {
		ws.completed += int64(accepted)
		// Fold the lease's observed throughput into the worker's rate
		// EWMA (lease sizing under LeaseTarget). Only a lease the poster
		// holds has a grant time to measure from; a zero or negative
		// elapsed (fake clocks, sub-resolution batches) contributes nothing.
		if l != nil && accepted > 0 {
			if elapsed := b.now().Sub(l.granted).Seconds(); elapsed > 0 {
				rate := float64(accepted) / elapsed
				if ws.ewma <= 0 {
					ws.ewma = rate
				} else {
					ws.ewma = ewmaAlpha*rate + (1-ewmaAlpha)*ws.ewma
				}
			}
		}
	}
	if accepted > 0 {
		ev := obs.Event{Type: obs.EvBatchMeasured, Job: j.id, Trace: j.trace, Task: j.task,
			Worker: post.Worker, Count: accepted}
		if l != nil {
			ev.DurMS = b.now().Sub(l.granted).Seconds() * 1000
		}
		b.Obs.Emit(ev)
		// Progress (possibly completion): wake blocked job long-polls.
		b.wakeLocked()
	}
	// Count and enqueue the completion only on the transition: a
	// straggler posting duplicates into an already-done job must not
	// double-count it (jobs_completed <= jobs_submitted is a dashboard
	// invariant).
	if !wasDone && j.done() {
		b.count("jobs_completed").Inc()
		b.done = append(b.done, j.id)
		max := b.MaxDoneJobs
		if max <= 0 {
			max = 256
		}
		for len(b.done) > max {
			b.dropJobLocked(b.done[0])
		}
	}
	writeJSON(w, http.StatusOK, ResultAck{Accepted: accepted})
}

func (b *Broker) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET %s", r.URL.Path)
		return
	}
	b.mu.Lock()
	b.reapLocked(b.now())
	// Derived per-scrape values (job/worker aggregates) become gauges in
	// the shared registry; lifetime counters already live there. One
	// snapshot then serves either encoding, so the JSON payload and the
	// Prometheus exposition can never disagree.
	queued, leased, completed := 0, 0, 0
	for _, j := range b.jobs {
		queued += len(j.queue)
		completed += j.completed
		for _, l := range j.leases {
			leased += len(l.indices)
		}
	}
	var workers []WorkerStatus
	quarantined := 0
	for _, id := range sortedWorkerIDs(b.workers) {
		ws := b.workers[id]
		workers = append(workers, WorkerStatus{
			ID: ws.id, Target: ws.target, Capacity: ws.capacity,
			Completed: ws.completed, Failures: ws.failures, Quarantined: ws.quarantined,
			RateEWMA: ws.ewma,
		})
		if ws.quarantined {
			quarantined++
		}
	}
	jobs := len(b.jobs)
	b.mu.Unlock()

	reg := b.Obs.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	reg.Gauge("jobs").Set(float64(jobs))
	reg.Gauge("programs_queued").Set(float64(queued))
	reg.Gauge("programs_leased").Set(float64(leased))
	reg.Gauge("programs_completed").Set(float64(completed))
	reg.Gauge("workers").Set(float64(len(workers)))
	reg.Gauge("quarantined").Set(float64(quarantined))
	reg.Gauge("uptime_seconds").Set(time.Since(b.started).Seconds())
	snap := reg.Snapshot()

	if r.URL.Path == "/metrics/prom" || r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", obs.PromContentType)
		obs.WritePrometheus(w, "ansor_broker", snap)
		return
	}
	m := Metrics{
		Jobs:              jobs,
		JobsSubmitted:     snap.Counters["jobs_submitted"],
		JobsCompleted:     snap.Counters["jobs_completed"],
		ProgramsQueued:    queued,
		ProgramsLeased:    leased,
		ProgramsCompleted: completed,
		LeaseExpiries:     snap.Counters["lease_expiries"],
		DuplicateResults:  snap.Counters["duplicate_results"],
		Workers:           workers,
		Quarantined:       quarantined,
		UptimeSeconds:     snap.Gauges["uptime_seconds"],
		BytesIn:           snap.Counters["bytes_in"],
		BytesOut:          snap.Counters["bytes_out"],
		LeaseWakeups:      snap.Counters["lease_wakeups"],
		SiblingLeases:     snap.Counters["sibling_leases"],
		SiblingPrograms:   snap.Counters["sibling_programs"],
	}
	writeJSON(w, http.StatusOK, m)
}

func sortedWorkerIDs(ws map[string]*workerState) []string {
	ids := make([]string, 0, len(ws))
	for id := range ws {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
