package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/te"
)

// Worker is one measurement device of the fleet: it hosts a machine
// model, long-polls the broker for leases of jobs for that model's
// target, replays + lowers + times every leased program on it, and posts
// the noiseless times back. Workers are stateless — a worker can crash,
// restart, or be replaced at any time and the broker's lease expiry puts
// its in-flight slice back in the queue; nothing a worker computes
// depends on which worker it is.
type Worker struct {
	// ID uniquely identifies the worker to the broker (quarantine and
	// failure accounting key on it).
	ID string
	// Machine is the hosted machine model; its name is the target the
	// worker registers for.
	Machine *sim.Machine
	// Capacity bounds how many programs one lease may carry.
	Capacity int
	// Obs carries the worker's metrics registry (leases, programs
	// measured, program errors, quarantine state —
	// served by MetricsHandler) and, when an event sink is attached,
	// the worker's view of the fleet lifecycle: worker_lease and
	// worker_result events joined to the submitter's timeline by the
	// trace ID echoed on lease grants. NewWorker installs an events-off
	// observer over a fresh registry; a zero Worker runs fine with it
	// nil.
	Obs *obs.Observer

	cl      *Client
	started time.Time
	// grant is the memory the last grant was read into, its bytes and
	// program list, read into again by the next: nothing of a grant
	// outlives its lease but copies (its strings, its decoded dag_bin).
	grant buffer
	// dagBin and dag are the DAG of the last lease, as sent and decoded:
	// the leases of one job carry the same bytes, decoded once.
	dagBin []byte
	dag    *te.DAG
}

// NewWorker returns a worker for the broker at brokerURL.
func NewWorker(brokerURL, id string, m *sim.Machine, capacity int) *Worker {
	if capacity < 1 {
		capacity = 1
	}
	return &Worker{
		ID:       id,
		Machine:  m,
		Capacity: capacity,
		Obs:      obs.New(nil, obs.NewRegistry()),
		cl:       NewClient(brokerURL),
		started:  time.Now(),
	}
}

// Ping checks the broker is reachable.
func (w *Worker) Ping() error { return w.cl.Ping() }

// runOnce performs one lease cycle: long-poll for a lease, returning the
// previous lease's results (done, nil when there are none) on the way,
// and measure what was granted. It returns the results to send with the
// next request; (nil, nil) means the broker had nothing for this worker
// within the wait.
func (w *Worker) runOnce(ctx context.Context, done *ResultPost) (*ResultPost, error) {
	grant, err := w.cl.lease(ctx, LeaseRequest{Worker: w.ID, Target: w.Machine.Name,
		Capacity: w.Capacity, WaitMS: longPollWait.Milliseconds(), Done: done}, &w.grant)
	if err != nil || grant == nil {
		return nil, err
	}
	w.Obs.Count("leases_taken")
	w.Obs.Emit(obs.Event{Type: obs.EvWorkerLease, Task: grant.Task, Target: grant.Target,
		Trace: grant.Trace, Job: grant.Job, Worker: w.ID, Count: len(grant.Indices)})
	post := &ResultPost{Job: grant.Job, Lease: grant.Lease, Results: make([]WorkerResult, 0, len(grant.Indices))}
	dag, err := w.decodeDAG(grant.DAGBin)
	if err == nil && grant.Target != w.Machine.Name {
		err = fmt.Errorf("grant for target %q, but this worker hosts %s", grant.Target, w.Machine.Name)
	}
	if err != nil {
		// A bad DAG, or a grant for a target this worker does not host,
		// fails every program of the slice as a program error: requeueing
		// it (by abandoning the lease) would only burn the fleet's patience
		// quota on a job this worker must never time.
		for _, idx := range grant.Indices {
			post.Results = append(post.Results, WorkerResult{Index: idx, Err: err.Error()})
		}
	} else {
		a := ir.BorrowArena()
		for k, idx := range grant.Indices {
			post.Results = append(post.Results, w.measureOne(a, dag, idx, grant.Programs[k]))
		}
		a.Release()
	}
	measured, failed := 0, 0
	for _, r := range post.Results {
		if r.Err == "" {
			measured++
		} else {
			failed++
		}
	}
	w.Obs.Add("programs_measured", int64(measured))
	w.Obs.Add("program_errors", int64(failed))
	// Stamped when the slice is measured: the results travel with the next
	// lease request, which may then wait a long time for work.
	w.Obs.Emit(obs.Event{Type: obs.EvWorkerResult, Task: grant.Task, Target: grant.Target,
		Trace: grant.Trace, Job: grant.Job, Worker: w.ID, Count: len(post.Results)})
	return post, nil
}

// decodeDAG decodes a grant's DAG, or hands back the last lease's when
// the bytes are the same: a DAG is never written after its decoding.
func (w *Worker) decodeDAG(bin []byte) (*te.DAG, error) {
	if w.dag != nil && bytes.Equal(bin, w.dagBin) {
		return w.dag, nil
	}
	dag, err := te.DecodeDAGBinary(bin)
	if err == nil {
		w.dagBin, w.dag = bin, dag
	}
	return dag, err
}

// measureOne replays, lowers and times one program on the hosted machine
// model, from its step bytes to its time. The returned time is the
// model's exact (noiseless) time: noise is derived by the submitting
// client from its tuning seed, never rolled on a worker (the package
// determinism contract). Everything in between is borrowed: the steps
// are applied as they are parsed into a state in the lease's arena, which
// gets the program's memory back before the next one, and the lowering is
// read only inside Time. An error's text points at neither.
func (w *Worker) measureOne(a *ir.Arena, dag *te.DAG, index int, encSteps []byte) WorkerResult {
	m := a.Mark()
	defer a.Rewind(m)
	s, err := a.ReplayEncoded(dag, encSteps)
	if errors.Is(err, ir.ErrDecodeSteps) {
		return WorkerResult{Index: index, Err: fmt.Sprintf("decode steps: %v", err)}
	}
	if err != nil {
		return WorkerResult{Index: index, Err: fmt.Sprintf("replay: %v", err)}
	}
	low, err := ir.LowerBorrowed(s)
	if err != nil {
		return WorkerResult{Index: index, Err: fmt.Sprintf("lower: %v", err)}
	}
	sec := w.Machine.Time(low)
	low.Release()
	return WorkerResult{Index: index, Noiseless: sec}
}

// Run leases from the broker until ctx is cancelled. Each lease request
// carries the results of the lease before it, so a busy worker makes one
// request per lease. Transport errors are retried with capped
// exponential backoff, results in hand (a broker restart must not kill
// the fleet, and a dead broker must not be hammered); results the broker
// refuses are dropped, their lease left to expire; quarantine is
// terminal — the broker has decided this worker is sick, so it exits
// with ErrQuarantined for the operator to notice. An idle worker blocks
// broker-side in the lease long-poll and starts measuring the instant
// work arrives; an empty answer pauses idlePause before the next
// request. Results measured as ctx is cancelled are posted on their own.
func (w *Worker) Run(ctx context.Context) error {
	backoff := idlePause
	var done *ResultPost
	for {
		next, err := w.runOnce(ctx, done)
		if errors.Is(err, ErrQuarantined) {
			if w.Obs != nil && w.Obs.Metrics != nil {
				w.Obs.Metrics.Gauge("quarantined").Set(1)
			}
			return err
		}
		if ctx.Err() != nil {
			if next != nil {
				// Measured as the worker was told to stop: no next request to
				// ride on. Best effort; unposted, the lease expires and requeues.
				next.Worker = w.ID
				_, _ = w.cl.PostResults(*next)
			}
			return nil
		}
		pause := idlePause
		if err != nil {
			if !errors.Is(err, ErrTransport) {
				done = nil // refused, and would be again
			}
			pause = backoff
			backoff = min(2*backoff, maxBackoff)
		} else {
			done, backoff = next, idlePause
			if next != nil {
				// More work may be queued; lease again immediately.
				continue
			}
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(pause):
		}
	}
}
