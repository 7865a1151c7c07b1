package fleet

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonx"
	"repro/internal/obs"
	"repro/internal/regserver"
	"repro/internal/te"
)

// maxBody bounds one request body (a job submission or result post) and,
// on the client, one response body.
const maxBody = 64 << 20

// maxWait caps how long the broker holds a long-poll open (lease or
// submission); clients with a default 30s HTTP timeout stay safely inside it.
const maxWait = 25 * time.Second

// waitSlice is the longest a blocked long-poll sleeps between checks:
// lease-expiry reaping stays lazy (driven by requests, no background
// goroutine), so every waiter must come back often enough to reap.
const waitSlice = 250 * time.Millisecond

// Broker is the measurement-fleet coordinator: it accepts measurement
// jobs from submitters, leases slices of them to workers hosting the
// job's target, requeues slices whose lease expired, quarantines
// repeat-offender workers, and reassembles results in submission order.
// All state is in-memory: jobs are transient by design (the submitter
// holds the programs and re-submits after a broker restart), unlike the
// registry server's durable best-schedule store.
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
	// <token>` on every endpoint that mutates or reads job state
	// (submissions, leases, results) — the same check the registry server
	// applies to publishes. Only /healthz and /metrics stay open.
	AuthToken string

	// Obs carries the broker's counters and lease-wait histogram
	// (Obs.Metrics — the JSON /metrics payload and the Prometheus
	// exposition are both rendered from one snapshot of it) and, when a
	// sink is attached, the fleet lifecycle events: batch_leased,
	// batch_measured, fleet_requeue, fleet_quarantine. NewBroker
	// installs an events-off observer over a fresh registry; replace or
	// augment it before the handler serves traffic. Never nil.
	Obs *obs.Observer

	// bodyLimit is the request body bound, maxBody; tests lower it.
	bodyLimit int64
	// maxDoneJobs bounds how many completed jobs are retained (256; tests
	// lower it). A completed job lives until a submission under its id is
	// answered with the results; the cap evicts the oldest if a submitter
	// dies before asking, so a long-lived broker cannot leak memory.
	maxDoneJobs int
	// now is the broker's clock for lease deadlines and expiry reaping;
	// tests inject a fake to drive expiry without sleeping (long-poll
	// request holds and uptime stay wall-clock).
	now func() time.Time

	mu       sync.Mutex
	jobs     map[string]*job
	jobOrder []string // submission order; leases scan oldest-first
	done     []string // completion order; maxDoneJobs evicts oldest
	workers  map[string]*workerState
	nextID   int64 // lease ids

	// notify is the long-poll broadcast: any state change that could
	// unblock a waiter (job submitted, results landed, slices requeued)
	// closes and replaces it, waking every blocked lease and submission.
	notify chan struct{}

	// lastDAG is the last dag_bin checkDAG accepted.
	lastDAG atomic.Pointer[[]byte]

	started time.Time
	mux     *http.ServeMux
}

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
	dagBin []byte
	// body is the borrowed submission, of which programs are pieces and
	// whose queue is the job's first. refs counts its holders: the
	// broker's table while the job is held, and each grant tryLeaseLocked
	// handed out until handleLease has written it. Whoever takes refs to
	// 0 gives body back.
	body     *buffer
	refs     atomic.Int32
	programs []json.RawMessage

	results   []UnitResult
	completed int
	queue     []int // indices awaiting a lease, FIFO
	leases    map[int64]*lease
}

func (j *job) done() bool { return j.completed == len(j.programs) }

// unref drops one hold on the job's body; the last gives it back.
func (j *job) unref() {
	if j.refs.Add(-1) == 0 {
		freeBodies.give(j.body)
	}
}

type lease struct {
	id       int64
	worker   string
	indices  []int
	deadline time.Time
	granted  time.Time // when handed out, for batch_measured's duration
}

type workerState struct {
	id          string
	target      string
	capacity    int
	completed   int64
	failures    int
	quarantined bool
}

// NewBroker returns a broker with default lease TTL and quarantine
// threshold.
func NewBroker() *Broker {
	b := &Broker{
		LeaseTTL:    30 * time.Second,
		MaxFailures: 3,
		bodyLimit:   maxBody,
		maxDoneJobs: 256,
		jobs:        map[string]*job{},
		workers:     map[string]*workerState{},
		notify:      make(chan struct{}),
		started:     time.Now(),
		now:         time.Now,
		Obs:         obs.New(nil, obs.NewRegistry()),
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
		b.Obs.Add("bytes_in", cr.n)
		b.Obs.Add("bytes_out", cw.n)
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

// Unwrap lets http.ResponseController reach the server's writer.
func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

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
	b.mux.HandleFunc("/v1/lease", b.handleLease)
	b.mux.HandleFunc("/v1/results", b.handleResults)
	b.mux.HandleFunc("/metrics", b.handleMetrics)
	b.mux.HandleFunc("/metrics/prom", b.handleMetrics)
}

// readAll reads r to its end into dst's memory, grown to the announced
// content length when there is a believable one.
func readAll(dst []byte, r io.Reader, size int64) ([]byte, error) {
	buf := bytes.NewBuffer(dst[:0])
	if size > 0 && size <= maxBody {
		buf.Grow(int(size) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// readBody reads one bounded request body whole, into bf's memory.
func (b *Broker) readBody(w http.ResponseWriter, r *http.Request, bf *buffer) bool {
	var err error
	bf.b, err = readAll(bf.b, http.MaxBytesReader(w, r.Body, b.bodyLimit), r.ContentLength)
	if err != nil {
		regserver.WriteError(w, http.StatusBadRequest, "read body: %v", err)
	}
	return err == nil
}

// splitLines cuts an NDJSON body into its JSON header line and the
// program lines after it, each a piece of body, listed in dst's memory:
// nobody parses a program between the submitter that encoded it and the
// worker that replays it. Every line must end in a newline and none be
// empty, so a truncated body is refused here; the caller holds the count
// the header announces against the lines, which catches a program with a
// newline inside.
func splitLines(body []byte, dst []json.RawMessage) (header []byte, programs []json.RawMessage, err error) {
	header, rest, ok := bytes.Cut(body, []byte{'\n'})
	if !ok {
		return nil, nil, fmt.Errorf("no header line")
	}
	programs = slices.Grow(dst[:0], bytes.Count(rest, []byte{'\n'}))
	for len(rest) > 0 {
		line, after, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok || len(line) == 0 {
			return nil, nil, fmt.Errorf("program line %d is empty or cut short", len(programs))
		}
		programs, rest = append(programs, line), after
	}
	return header, programs, nil
}

// joinLines builds an NDJSON body in one buffer: the header line head
// appends, whose dag_bin is dagBin, then the program lines.
func joinLines(dagBin []byte, programs []json.RawMessage, head func([]byte) []byte) []byte {
	size := 256 + base64.StdEncoding.EncodedLen(len(dagBin)) + len(programs) + 1
	for _, p := range programs {
		size += len(p)
	}
	body := head(make([]byte, 0, size))
	for _, p := range programs {
		body = append(append(body, '\n'), p...)
	}
	return append(body, '\n')
}

// newline ends each line writeLines writes.
var newline = []byte{'\n'}

// writeLines sends the NDJSON body joinLines would build from header and
// programs, a piece at a time under a Content-Length counted first,
// without building it: a Writer never keeps the bytes it is handed.
func writeLines(w http.ResponseWriter, header []byte, programs []json.RawMessage) {
	size := len(header) + len(programs) + 1
	for _, p := range programs {
		size += len(p)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	_, _ = w.Write(header)
	for _, p := range programs {
		_, _ = w.Write(newline)
		_, _ = w.Write(p)
	}
	_, _ = w.Write(newline)
}

// authorized applies the broker's bearer check (shared with the
// registry server) to a mutating request.
func (b *Broker) authorized(w http.ResponseWriter, r *http.Request) bool {
	if regserver.BearerOK(r, b.AuthToken) {
		return true
	}
	regserver.WriteError(w, http.StatusUnauthorized, "missing or wrong bearer token")
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
			b.Obs.Count("lease_expiries")
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
	regserver.WriteJSON(w, http.StatusOK, map[string]interface{}{"ok": true, "jobs": jobs, "workers": workers})
}

// handleSubmit is the submitter's one request: enqueue the batch under
// the id the submitter chose, unless the broker already holds that id,
// then hold the request open up to wait_ms until the job is done. The
// answer that carries the results is also the acknowledgement: the job
// is forgotten as it is written. So the request is idempotent while the
// job lives (a retry attaches, it never enqueues the batch again), a
// header without programs re-attaches after an expired wait, and an id
// the broker no longer knows (answered, evicted past maxDoneJobs, lost
// in a restart) is 404, to which the submitter sends the programs again
// — re-measuring is wasteful but, measurement being deterministic,
// harmless.
func (b *Broker) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		regserver.WriteError(w, http.StatusMethodNotAllowed, "POST a job to %s", r.URL.Path)
		return
	}
	if !b.authorized(w, r) {
		return
	}
	// The submission's memory is borrowed. An enqueued job owns it from
	// then on; a submission that enqueued nothing gives it back here.
	body, kept := freeBodies.borrow(), false
	defer func() {
		if !kept {
			freeBodies.give(body)
		}
	}()
	if !b.readBody(w, r, body) {
		return
	}
	var spec JobSpec
	header, programs, err := splitLines(body.b, body.programs)
	body.programs = programs
	if err == nil {
		d := jsonx.NewReader(header)
		spec, err = jsonx.Decode(&d, readJob(&d))
	}
	switch {
	case err != nil:
		regserver.WriteError(w, http.StatusBadRequest, "parse body: %v", err)
	case spec.ID == "":
		regserver.WriteError(w, http.StatusBadRequest, "job needs an id")
	case spec.Count != len(programs):
		regserver.WriteError(w, http.StatusBadRequest, "header counts %d programs, body has %d lines", spec.Count, len(programs))
	case spec.Count == 0 && spec.Target == "":
		b.awaitJob(w, r, &spec, nil)
	case spec.Count == 0:
		regserver.WriteError(w, http.StatusBadRequest, "job carries no programs")
	case spec.Target == "":
		regserver.WriteError(w, http.StatusBadRequest, "job needs a target")
	case len(spec.DAGBin) == 0:
		regserver.WriteError(w, http.StatusBadRequest, "job carries no dag_bin (the binary wire DAG)")
	default:
		// Reject undecodable DAGs at the door, once per job: a poisoned job
		// would otherwise fail identically on every worker that leased it.
		if err := b.checkDAG(spec.DAGBin); err != nil {
			regserver.WriteError(w, http.StatusBadRequest, "bad binary dag: %v", err)
			return
		}
		kept = b.awaitJob(w, r, &spec, body)
	}
}

// checkDAG refuses a dag_bin that does not decode. The last one that
// did is remembered and passes on sight: a submitter's jobs carry the
// same bytes, decoded once.
func (b *Broker) checkDAG(bin []byte) error {
	if last := b.lastDAG.Load(); last != nil && bytes.Equal(*last, bin) {
		return nil
	}
	if _, err := te.DecodeDAGBinary(bin); err != nil {
		return err
	}
	accepted := bin
	b.lastDAG.Store(&accepted)
	return nil
}

// awaitJob enqueues the job in body unless spec's id is already held (a
// nil body only attaches), then answers with the job's status: at once
// when it is done or no wait was asked for, else when it completes or
// the wait runs out. A held answer sends its status line first: that is
// the submitter's receipt, by which it tells a broker that lost the job
// from one that never had it. It reports whether the job took body.
func (b *Broker) awaitJob(w http.ResponseWriter, r *http.Request, spec *JobSpec, body *buffer) (enqueued bool) {
	deadline := time.Now().Add(clampWait(spec.WaitMS))
	w.Header().Set("Content-Type", "application/json")
	var st JobStatus
	for first := true; ; first = false {
		b.mu.Lock()
		b.reapLocked(b.now())
		j, ok := b.jobs[spec.ID]
		if !ok && first && body != nil {
			j, ok, enqueued = b.enqueueLocked(spec, body), true, true
		}
		if ok {
			st = JobStatus{
				ID: j.id, Target: j.target, Task: j.task,
				Total: len(j.programs), Completed: j.completed, Done: j.done(),
			}
			if st.Done {
				st.Results = j.results
				b.dropJobLocked(j.id)
			}
		}
		ch := b.notify
		b.mu.Unlock()
		if !ok && first {
			regserver.WriteError(w, http.StatusNotFound, "unknown job %q (answered and evicted jobs are forgotten)", spec.ID)
			return enqueued
		}
		remaining := time.Until(deadline)
		if !ok || st.Done || remaining <= 0 {
			// Evicted while it waited, a job is answered as last seen; the
			// submitter's next attach is told it is unknown.
			reply := freeReplies.borrow()
			var err error
			if reply.b, err = appendStatus(reply.b, st); err == nil {
				reply.b = append(reply.b, '\n')
				_, _ = w.Write(reply.b)
			}
			freeReplies.give(reply)
			return enqueued
		}
		if first {
			w.WriteHeader(http.StatusOK)
			_ = http.NewResponseController(w).Flush()
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
			// The submitter is gone; the job stays for its retry.
			return enqueued
		}
	}
}

// enqueueLocked creates the job of spec and body, which it takes, with
// every program queued and the table's hold on body. Callers hold b.mu.
func (b *Broker) enqueueLocked(spec *JobSpec, body *buffer) *job {
	b.Obs.Count("jobs_submitted")
	n := len(body.programs)
	body.queue = slices.Grow(body.queue[:0], n)[:n]
	j := &job{
		id:        spec.ID,
		target:    spec.Target,
		task:      spec.Task,
		trace:     spec.Trace,
		submitted: b.now(),
		dagBin:    spec.DAGBin,
		body:      body,
		programs:  body.programs,
		results:   make([]UnitResult, n),
		queue:     body.queue,
		leases:    map[int64]*lease{},
	}
	j.refs.Store(1)
	for i := range j.queue {
		j.queue[i] = i
	}
	b.jobs[j.id] = j
	b.jobOrder = append(b.jobOrder, j.id)
	// New work: wake blocked lease long-polls.
	b.wakeLocked()
	return j
}

// dropJobLocked removes a job from every index and drops the table's
// hold on its body. Callers hold b.mu.
func (b *Broker) dropJobLocked(id string) {
	j := b.jobs[id]
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
	j.unref()
}

func (b *Broker) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		regserver.WriteError(w, http.StatusMethodNotAllowed, "POST a lease request to %s", r.URL.Path)
		return
	}
	if !b.authorized(w, r) {
		return
	}
	req, ok := b.takeLease(w, r)
	if !ok {
		return
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
			regserver.WriteError(w, http.StatusForbidden, "worker %q is quarantined after %d lease failures", req.Worker, failures)
			return
		}
		if grant, j := b.tryLeaseLocked(req); j != nil {
			if waited {
				b.Obs.Count("lease_wakeups")
			}
			b.mu.Unlock()
			// The programs are pieces of the job's body, which this grant
			// holds until it is written: safe to send outside the lock, even
			// as the lease expires and the job is answered and forgotten.
			reply := freeReplies.borrow()
			reply.b = appendGrant(reply.b, grant)
			writeLines(w, reply.b, grant.Programs)
			freeReplies.give(reply)
			j.unref()
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
		// reaping slice, whichever comes first (see awaitJob).
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

// takeLease reads and checks a lease request, applying the results it
// returns first and on their own terms: refused, the request ends here,
// having changed and granted nothing. Its memory goes back before the
// long-poll wait: the request's strings are copies.
func (b *Broker) takeLease(w http.ResponseWriter, r *http.Request) (req LeaseRequest, ok bool) {
	in := freeRequests.borrow()
	defer freeRequests.give(in)
	if !b.readBody(w, r, in) {
		return req, false
	}
	d := jsonx.NewReader(in.b)
	req, err := jsonx.Decode(&d, readLease(&d, in.results))
	if err != nil {
		regserver.WriteError(w, http.StatusBadRequest, "parse body: %v", err)
		return req, false
	}
	if req.Worker == "" || req.Target == "" {
		regserver.WriteError(w, http.StatusBadRequest, "lease request needs worker and target")
		return req, false
	}
	if req.Capacity < 1 {
		req.Capacity = 1
	}
	if req.Done != nil {
		in.results = req.Done.Results
		req.Done.Worker = req.Worker
		b.mu.Lock()
		_, err := b.applyResultsLocked(*req.Done)
		b.mu.Unlock()
		req.Done = nil
		if err != nil {
			regserver.WriteError(w, http.StatusBadRequest, "%v", err)
			return req, false
		}
	}
	return req, true
}

// tryLeaseLocked hands req a slice of the oldest job queued for exactly
// the worker's target, if any, as large as the worker's capacity: a time
// is only ever used on the target that measured it, so an idle worker
// never drains another target's queue. The grant holds the job's body
// until the caller's unref. Callers hold b.mu.
func (b *Broker) tryLeaseLocked(req LeaseRequest) (LeaseGrant, *job) {
	var j *job
	for _, id := range b.jobOrder {
		if cand := b.jobs[id]; len(cand.queue) > 0 && cand.target == req.Target {
			j = cand
			break
		}
	}
	if j == nil {
		return LeaseGrant{}, nil
	}
	n := min(req.Capacity, len(j.queue))
	// The lease's indices are the queue's head: memory before the queue's
	// start is never written again (requeues append past its end).
	indices := j.queue[:n:n]
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
	// Lease wait is submit→grant: how long the batch's work sat queued
	// before a worker picked (this slice of) it up.
	b.Obs.Observe("lease_wait_seconds", now.Sub(j.submitted).Seconds())
	b.Obs.Emit(obs.Event{Type: obs.EvBatchLeased, Job: j.id, Trace: j.trace, Task: j.task,
		Target: j.target, Worker: req.Worker, Count: len(indices)})
	grant := LeaseGrant{
		Lease: l.id, Job: j.id, Task: j.task, Trace: j.trace, Target: j.target,
		DAGBin: j.dagBin, Indices: indices,
	}
	if first := indices[0]; isRun(indices) {
		// A fresh queue hands out runs: their programs are a piece of the
		// job's list.
		grant.Programs = j.programs[first : first+n : first+n]
	} else {
		grant.Programs = make([]json.RawMessage, n)
		for k, idx := range indices {
			grant.Programs[k] = j.programs[idx]
		}
	}
	j.refs.Add(1)
	return grant, j
}

// isRun reports whether indices count up by one.
func isRun(indices []int) bool {
	for k, idx := range indices {
		if idx != indices[0]+k {
			return false
		}
	}
	return true
}

// handleResults is the results-only entry into applyResultsLocked, for
// a worker with a lease to return and no wish for another (shutting
// down); a working worker returns its lease with its next lease request.
func (b *Broker) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		regserver.WriteError(w, http.StatusMethodNotAllowed, "POST results to %s", r.URL.Path)
		return
	}
	if !b.authorized(w, r) {
		return
	}
	in := freeRequests.borrow()
	defer freeRequests.give(in)
	if !b.readBody(w, r, in) {
		return
	}
	d := jsonx.NewReader(in.b)
	post, err := jsonx.Decode(&d, readResults(&d, in.results))
	if err != nil {
		regserver.WriteError(w, http.StatusBadRequest, "parse body: %v", err)
		return
	}
	in.results = post.Results
	b.mu.Lock()
	ack, err := b.applyResultsLocked(post)
	b.mu.Unlock()
	if err != nil {
		regserver.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	regserver.WriteJSON(w, http.StatusOK, ack)
}

// applyResultsLocked records one lease's results and releases the lease
// if the poster holds it. It either applies the whole post or, with an
// error, none of it. Callers hold b.mu.
func (b *Broker) applyResultsLocked(post ResultPost) (ResultAck, error) {
	j, ok := b.jobs[post.Job]
	if !ok {
		// The job finished (possibly via a requeued slice) and was
		// fetched; a straggler's late results are meaningless but not an
		// error — deterministic measurement means they matched anyway.
		return ResultAck{}, nil
	}
	wasDone := j.done()
	// Validate every index before mutating anything: a malformed post
	// must be rejected whole, never half-applied (results accepted, the
	// lease still live) — the fuzz suite pins this invariant.
	for _, wr := range post.Results {
		if wr.Index < 0 || wr.Index >= len(j.results) {
			return ResultAck{}, fmt.Errorf("result index %d out of range (job %s has %d programs)",
				wr.Index, j.id, len(j.programs))
		}
	}
	accepted := 0
	for _, wr := range post.Results {
		if j.results[wr.Index].Done {
			b.Obs.Count("duplicate_results")
			continue
		}
		j.results[wr.Index] = UnitResult{Done: true, Noiseless: wr.Noiseless, Err: wr.Err}
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
	requeued := false
	if l != nil {
		delete(j.leases, l.id)
		// What the holder returns unmeasured goes back in the queue: with
		// the lease gone, nothing else would ever hand it out again.
		for _, idx := range l.indices {
			if !j.results[idx].Done {
				j.queue = append(j.queue, idx)
				requeued = true
			}
		}
	}
	if ws := b.workers[post.Worker]; ws != nil {
		ws.completed += int64(accepted)
	}
	if accepted > 0 {
		ev := obs.Event{Type: obs.EvBatchMeasured, Job: j.id, Trace: j.trace, Task: j.task,
			Worker: post.Worker, Count: accepted}
		if l != nil {
			ev.DurMS = b.now().Sub(l.granted).Seconds() * 1000
		}
		b.Obs.Emit(ev)
	}
	if accepted > 0 || requeued {
		// Progress (possibly completion) wakes blocked submissions, work
		// handed back wakes blocked leases.
		b.wakeLocked()
	}
	// Count and enqueue the completion only on the transition: a
	// straggler posting duplicates into an already-done job must not
	// double-count it (jobs_completed <= jobs_submitted is a dashboard
	// invariant).
	if !wasDone && j.done() {
		b.Obs.Count("jobs_completed")
		b.done = append(b.done, j.id)
		for len(b.done) > b.maxDoneJobs {
			b.dropJobLocked(b.done[0])
		}
	}
	return ResultAck{Accepted: accepted}, nil
}

func (b *Broker) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		regserver.WriteError(w, http.StatusMethodNotAllowed, "GET %s", r.URL.Path)
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

	if r.URL.Path == "/metrics/prom" {
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
	}
	regserver.WriteJSON(w, http.StatusOK, m)
}

func sortedWorkerIDs(ws map[string]*workerState) []string {
	ids := make([]string, 0, len(ws))
	for id := range ws {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
