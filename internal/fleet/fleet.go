// Package fleet is the distributed measurement subsystem: a broker that
// shards measurement batches across a fleet of remote worker processes,
// and the client/worker halves that talk to it. It is this
// reproduction's counterpart of the paper's measurer deployment — Ansor
// never times candidate programs inside the search process; batches are
// shipped over RPC to a farm of devices, which is what lets one search
// loop saturate many boards and survive flaky hardware (§3, Figure 4).
//
// The moving parts:
//
//   - Broker — an HTTP service (hosted by `ansor-registry fleet`)
//     holding submitted jobs. A job is one measurement batch: a target
//     name, a wire-encoded computation DAG, and one encoded step list
//     per program. The broker leases batch slices, each the size the
//     worker asked for, to workers hosting exactly the job's target —
//     a time is only ever used on the target that measured it — requeues
//     slices whose lease expired (straggler/crash recovery), quarantines
//     workers that keep failing, and reassembles results by submission
//     index.
//
//   - Worker (cmd/ansor-worker) — hosts a sim.Machine, long-polls the
//     broker for leases, replays + lowers + times each leased program on
//     its machine model, and posts NOISELESS times back.
//     Workers are stateless and interchangeable: nothing a worker
//     computes depends on worker identity.
//
//   - RemoteMeasurer — a measure.Measurer whose Backend is the broker.
//     The measurer serves resume-cache hits and applies the
//     deterministic (seed, signature)-keyed noise exactly as it does in
//     process, and lowers nothing: only the noiseless time of a fresh
//     program, or the worker's error for one that does not lower, comes
//     from the fleet, so fleet-measured tuning runs are bit-identical to
//     local runs at any worker count or assignment (DESIGN.md,
//     "Measurement fleet").
//
// Determinism contract: the broker never orders results — it indexes
// them; workers never roll noise — they report the pure machine-model
// time; the client derives noise from (tuning seed, program signature)
// alone. Which worker measured a program, how leases were sliced, and
// how often a lease expired and was requeued are therefore all
// invisible in the tuning output.
package fleet

import "encoding/json"

// JobSpec is one submitted measurement batch (POST /v1/jobs). On the
// wire it is the JSON header line of an application/x-ndjson body,
// followed by one line per program.
type JobSpec struct {
	// ID is chosen by the submitter and makes the request idempotent:
	// submitting an ID the broker holds attaches to that job instead of
	// enqueueing the batch again.
	ID string `json:"id"`
	// Target names the machine model programs must be timed on; only
	// workers hosting it are leased the job.
	Target string `json:"target,omitempty"`
	// Task attributes the batch for observability; the broker never
	// keys on it.
	Task string `json:"task,omitempty"`
	// Trace is the submitting tuner's per-batch trace ID (observability
	// only, like Task): the broker echoes it on every lease grant and
	// event for the job, so a JSONL event stream reconstructs each
	// batch's queued→leased→measured→reported timeline. Deterministic —
	// a counter scoped to the submitting measurer, never a clock.
	Trace string `json:"trace,omitempty"`
	// DAGBin is the computation in the binary wire format
	// (te.EncodeDAGBinary). The broker decodes it at the door and
	// refuses a job whose dag_bin is missing or does not decode.
	DAGBin []byte `json:"dag_bin,omitempty"`
	// Count is how many program lines follow the header (the client sets
	// it from Programs). A header alone, count 0, re-attaches to a job
	// submitted earlier without sending its programs again.
	Count int `json:"count,omitempty"`
	// WaitMS asks the broker to hold the request open up to WaitMS
	// milliseconds until the job is done; 0 answers with its status at
	// once.
	WaitMS int64 `json:"wait_ms,omitempty"`
	// Programs holds one ir.EncodeSteps step list per program: the body's
	// lines after the header, which the broker indexes by newline and
	// hands to workers byte for byte without parsing them.
	Programs []json.RawMessage `json:"-"`
}

// LeaseRequest is a worker asking for work (POST /v1/lease). The first
// lease a worker sends also registers it — there is no separate
// registration endpoint, so a restarted worker just resumes polling.
type LeaseRequest struct {
	// Worker uniquely identifies the worker across the fleet; failure
	// counters and quarantine key on it.
	Worker string `json:"worker"`
	// Target names the machine model this worker hosts.
	Target string `json:"target"`
	// Capacity bounds how many programs one lease may carry.
	Capacity int `json:"capacity"`
	// WaitMS asks the broker to hold this request open up to WaitMS
	// milliseconds when no work is available (long-poll), answering the
	// instant a compatible job arrives. 0 answers 204 at once.
	WaitMS int64 `json:"wait_ms,omitempty"`
	// Done returns the worker's previous lease with the request for the
	// next one. The broker applies it before anything else, exactly as a
	// POST /v1/results of the same post would be; a post it refuses
	// refuses the whole request, which then changes and grants nothing.
	Done *ResultPost `json:"done,omitempty"`
}

// LeaseGrant hands a worker a slice of one job's batch: like a
// submission, a JSON header line followed by one line per program
// (application/x-ndjson), the lines the submitter sent. A grant expires
// after the broker's lease TTL: results posted later are still accepted
// for any program not yet completed elsewhere, but the slice is
// requeued and the worker's failure counter bumped.
type LeaseGrant struct {
	Lease int64  `json:"lease"`
	Job   string `json:"job"`
	Task  string `json:"task,omitempty"`
	// Trace echoes the submitter's JobSpec.Trace so worker-side events
	// join the same per-batch timeline.
	Trace  string `json:"trace,omitempty"`
	Target string `json:"target"`
	// DAGBin is the job's submitted dag_bin, byte for byte.
	DAGBin   []byte            `json:"dag_bin,omitempty"`
	Indices  []int             `json:"indices"`
	Programs []json.RawMessage `json:"-"`
}

// WorkerResult is one measured program of a lease. Workers report the
// machine model's exact time; noise is the submitting client's job (see
// the package determinism contract).
type WorkerResult struct {
	Index     int     `json:"index"`
	Noiseless float64 `json:"noiseless"`
	// Err carries a replay/lowering failure for this program (the
	// program's fault, not the worker's — it does not count toward
	// quarantine).
	Err string `json:"err,omitempty"`
}

// ResultPost returns a lease's results: on its own (POST /v1/results) or
// as LeaseRequest.Done, where the request's worker is the poster.
type ResultPost struct {
	Worker  string         `json:"worker,omitempty"`
	Job     string         `json:"job"`
	Lease   int64          `json:"lease"`
	Results []WorkerResult `json:"results"`
}

// ResultAck answers a result post.
type ResultAck struct {
	// Accepted counts results that completed a program; results for
	// programs already completed by another worker (a requeued slice
	// whose original worker turned out alive) are dropped as duplicates.
	Accepted int `json:"accepted"`
}

// UnitResult is one program's outcome in a job status.
type UnitResult struct {
	Done      bool    `json:"done"`
	Noiseless float64 `json:"noiseless,omitempty"`
	Err       string  `json:"err,omitempty"`
}

// JobStatus answers a submission. Results are indexed by submission
// order and present once the job is done; that answer is also the
// acknowledgement, after which the broker has forgotten the job. Done
// jobs nobody asks for are evicted past the broker's retention cap.
type JobStatus struct {
	ID        string       `json:"id"`
	Target    string       `json:"target"`
	Task      string       `json:"task,omitempty"`
	Total     int          `json:"total"`
	Completed int          `json:"completed"`
	Done      bool         `json:"done"`
	Results   []UnitResult `json:"results,omitempty"`
}

// WorkerStatus is one worker's view in the broker metrics.
type WorkerStatus struct {
	ID          string `json:"id"`
	Target      string `json:"target"`
	Capacity    int    `json:"capacity"`
	Completed   int64  `json:"completed"`
	Failures    int    `json:"failures"`
	Quarantined bool   `json:"quarantined"`
}

// Metrics is the broker's /metrics payload.
type Metrics struct {
	// Jobs currently held (queued, running, or done and not yet answered).
	Jobs int `json:"jobs"`
	// JobsSubmitted / JobsCompleted over the broker's lifetime.
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsCompleted int64 `json:"jobs_completed"`
	// Programs by state across all held jobs.
	ProgramsQueued    int `json:"programs_queued"`
	ProgramsLeased    int `json:"programs_leased"`
	ProgramsCompleted int `json:"programs_completed"`
	// LeaseExpiries counts slices requeued after their worker missed the
	// TTL; DuplicateResults counts results dropped because another
	// worker completed the program first (every expiry that turns out to
	// be a straggler rather than a crash eventually shows up here too).
	LeaseExpiries    int64 `json:"lease_expiries"`
	DuplicateResults int64 `json:"duplicate_results"`
	// Workers ever seen, and how many are currently quarantined.
	Workers     []WorkerStatus `json:"workers"`
	Quarantined int            `json:"quarantined"`
	// UptimeSeconds since the broker was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Wire-level counters. BytesIn/BytesOut total the HTTP bodies the
	// broker read and wrote across every endpoint, so a codec change
	// shows up directly here.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// LeaseWakeups counts lease long-polls that blocked and were then
	// answered with work.
	LeaseWakeups int64 `json:"lease_wakeups"`
}
