package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/regserver"
	"repro/internal/te"
)

// ErrQuarantined is returned by Lease when the broker has quarantined
// this worker after repeated lease failures.
var ErrQuarantined = errors.New("fleet: worker is quarantined")

// ErrTransport wraps failures to reach the broker at all (dial,
// timeout, connection reset) as opposed to an HTTP-level refusal. Poll
// loops retry transport errors with capped exponential backoff — a
// broker restart must not kill a batch — while HTTP errors (bad token,
// unknown job) fail immediately.
var ErrTransport = errors.New("fleet: transport error")

// Client talks to a measurement broker. Like the registry client, a
// bearer token may be embedded in the broker URL's userinfo
// ("http://:TOKEN@host") for brokers started with -auth-token.
type Client struct {
	base  string
	token string
	hc    *http.Client
}

// NewClient returns a client for the broker at base.
func NewClient(base string) *Client {
	base, token := regserver.SplitTokenURL(base)
	return &Client{
		base:  strings.TrimRight(base, "/"),
		token: token,
		hc:    &http.Client{Timeout: 30 * time.Second},
	}
}

func (c *Client) do(method, path string, in, out interface{}) (int, error) {
	return c.doCtx(context.Background(), method, path, in, out)
}

func (c *Client) doCtx(ctx context.Context, method, path string, in, out interface{}) (int, error) {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return 0, fmt.Errorf("fleet: encode %s: %w", path, err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, fmt.Errorf("fleet: %s %s: %w", method, path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%w: %s %s: %v", ErrTransport, method, c.base+path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return resp.StatusCode, fmt.Errorf("fleet: %s", e.Error)
		}
		return resp.StatusCode, fmt.Errorf("fleet: broker returned %s for %s", resp.Status, path)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("fleet: decode %s: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// Ping checks the broker is reachable and speaks the fleet API.
func (c *Client) Ping() error {
	_, err := c.do(http.MethodGet, "/healthz", nil, nil)
	if err != nil {
		return fmt.Errorf("fleet: ping %s: %w", c.base, err)
	}
	return nil
}

// Submit enqueues one measurement batch.
func (c *Client) Submit(spec JobSpec) (JobAck, error) {
	var ack JobAck
	_, err := c.do(http.MethodPost, "/v1/jobs", spec, &ack)
	return ack, err
}

// Job polls a submitted job; once Done, every poll carries the results
// until the submitter acknowledges with Ack — a poll response lost in
// transit costs a retry, never the measurements.
func (c *Client) Job(id string) (JobStatus, error) {
	var st JobStatus
	_, err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// JobWait is Job with a broker-side long-poll: the broker holds the
// request open up to wait (capped broker-side) until the job is done.
func (c *Client) JobWait(id string, wait time.Duration) (JobStatus, error) {
	if wait <= 0 {
		return c.Job(id)
	}
	var st JobStatus
	_, err := c.do(http.MethodGet,
		fmt.Sprintf("/v1/jobs/%s?wait_ms=%d", id, wait.Milliseconds()), nil, &st)
	return st, err
}

// Ack acknowledges a completed job, releasing it broker-side. Safe to
// skip (the broker evicts unacknowledged done jobs past its retention
// cap), so callers treat failures as best-effort.
func (c *Client) Ack(id string) error {
	_, err := c.do(http.MethodDelete, "/v1/jobs/"+id, nil, nil)
	return err
}

// Lease asks the broker for work; nil without error when none is
// available, ErrQuarantined when the broker refuses this worker.
func (c *Client) Lease(req LeaseRequest) (*LeaseGrant, error) {
	return c.LeaseContext(context.Background(), req)
}

// LeaseContext is Lease bounded by ctx — with long-poll leases a
// shutting-down worker must be able to abort a request the broker is
// deliberately holding open.
func (c *Client) LeaseContext(ctx context.Context, req LeaseRequest) (*LeaseGrant, error) {
	var grant LeaseGrant
	code, err := c.doCtx(ctx, http.MethodPost, "/v1/lease", req, &grant)
	if code == http.StatusNoContent {
		return nil, nil
	}
	if code == http.StatusForbidden {
		return nil, fmt.Errorf("%w: %v", ErrQuarantined, err)
	}
	if err != nil {
		return nil, err
	}
	return &grant, nil
}

// PostResults returns a lease's measurements to the broker.
func (c *Client) PostResults(post ResultPost) (ResultAck, error) {
	var ack ResultAck
	_, err := c.do(http.MethodPost, "/v1/results", post, &ack)
	return ack, err
}

// Metrics fetches the broker's health counters.
func (c *Client) Metrics() (Metrics, error) {
	var m Metrics
	_, err := c.do(http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// RemoteMeasurer implements measure.Interface over a measurement
// broker: batches are submitted as fleet jobs, timed on remote workers,
// and reassembled in submission order. Lowering (needed for features
// and validity anyway), resume-cache serving, record emission, trial
// accounting and noise all stay client-side, which is what makes a
// fleet-measured run bit-identical to a local one at any worker count
// or lease assignment (see the package comment).
type RemoteMeasurer struct {
	// Workers bounds the goroutines lowering and cache-checking one
	// batch locally (0 = GOMAXPROCS), mirroring measure.Measurer.
	Workers int
	// Cache and Recorder behave exactly as on measure.Measurer: the
	// cache serves already-recorded programs without any fleet round
	// trip, and the recorder receives every fresh successful
	// measurement.
	Cache    *measure.MeasuredSet
	Recorder *measure.Recorder
	// Timeout bounds one batch end to end (default 15m): a fleet with
	// no live compatible worker fails the batch instead of hanging the
	// search forever.
	Timeout time.Duration
	// Pipeline bounds how many chunk jobs of one batch are in flight at
	// once (default 2): chunk N+1 is encoded and shipped while chunk N
	// is still measuring, so workers never sit idle between chunks.
	Pipeline int
	// Calibration, when set, scales foreign-clock sibling results (a
	// worker that could not emulate this target's machine model and
	// reported its own clock, UnitResult.Clock) onto the native clock.
	// Typically the fleet-pooled calibration from the registry server's
	// /v1/calibration. Calibrated or not, foreign-clock times are marked
	// TrainOnly with the cross-target warm-start discount — they inform
	// the cost model but never the best-k pool, the tuning history, or
	// the record log, so the bit-identity contract covers sibling
	// dispatch too.
	Calibration *measure.Calibration

	// Obs, when set, emits batch_queued/batch_reported events for every
	// chunk job (joined to the broker's batch_leased/batch_measured via
	// the trace ID) and feeds the measure-batch histogram. Observability
	// only: a nil or non-nil Obs yields bit-identical tuning output.
	Obs *obs.Observer

	cl       *Client
	target   string
	noiseStd float64
	seed     int64

	trials atomic.Int64
	// traceSeq numbers this measurer's batches for JobSpec.Trace — a
	// counter, not a clock, so enabling events never perturbs the wire
	// bytes a deterministic run produces.
	traceSeq atomic.Int64

	mu  sync.Mutex
	err error // first broker failure, latched for Err/Close
}

// NewRemoteMeasurer returns a measurer shipping batches for `target` to
// the broker at brokerURL. Noise follows the same (seed, signature)
// model as measure.New — the fleet never changes measured times, only
// where the machine model runs.
func NewRemoteMeasurer(brokerURL, target string, noiseStd float64, seed int64) *RemoteMeasurer {
	return &RemoteMeasurer{
		cl:       NewClient(brokerURL),
		target:   target,
		noiseStd: noiseStd,
		seed:     seed,
		Timeout:  15 * time.Minute,
	}
}

// Ping checks the broker is reachable (callers fail fast on a
// misspelled -fleet-url, before any tuning work).
func (rm *RemoteMeasurer) Ping() error { return rm.cl.Ping() }

// TargetName names the machine model fleet workers time programs on.
func (rm *RemoteMeasurer) TargetName() string { return rm.target }

// Trials returns the fresh (non-cache-served) measurements so far.
func (rm *RemoteMeasurer) Trials() int { return int(rm.trials.Load()) }

// WorkerCount exposes the local parallelism bound (see policy.New).
func (rm *RemoteMeasurer) WorkerCount() int { return rm.Workers }

// Err returns the first broker failure this measurer latched. Batches
// that hit one carry per-program errors too (the search skips them);
// the latch is what surfaces the failure at run teardown —
// ansor.Tuner.Close reports it exactly like a tuning-log write error.
func (rm *RemoteMeasurer) Err() error {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	return rm.err
}

func (rm *RemoteMeasurer) latch(err error) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	if rm.err == nil {
		rm.err = err
	}
}

// Measure implements measure.Interface.
func (rm *RemoteMeasurer) Measure(states []*ir.State) []measure.Result {
	return rm.MeasureTask("", states)
}

// MeasureTask implements measure.Interface: out[i] corresponds to
// states[i], exactly as the in-process measurer guarantees.
func (rm *RemoteMeasurer) MeasureTask(task string, states []*ir.State) []measure.Result {
	out := make([]measure.Result, len(states))
	enc := make([][]byte, len(states))
	// Local stage: lower (validity + features), consult the resume
	// cache, and encode steps for submission — all pure per-program
	// work, shard it like the local measurer does.
	pool.New(rm.Workers).Map(len(states), func(i int) {
		out[i], enc[i] = rm.localStage(task, states[i])
	})
	// Fresh programs (not cached, locally valid) go to the fleet,
	// grouped per distinct DAG (policy batches share their task's DAG,
	// so one group per call in practice), each group pipelined as chunk
	// jobs.
	byDAG := map[string][]int{}
	var dagOrder []string
	dagEnc := map[string][]byte{}
	for i := range out {
		if out[i].Cached || out[i].Err != nil {
			continue
		}
		fp := measure.DAGFingerprint(states[i].DAG)
		if _, seen := dagEnc[fp]; !seen {
			dagOrder = append(dagOrder, fp)
			// A nil entry marks a DAG that failed to encode: the whole
			// group errors without re-encoding per program.
			dagEnc[fp], _ = te.EncodeDAGBinary(states[i].DAG)
		}
		if dagEnc[fp] == nil {
			out[i].Err = fmt.Errorf("fleet: dag %s failed to encode", fp)
			continue
		}
		byDAG[fp] = append(byDAG[fp], i)
	}
	// One trace ID per measured batch: every chunk job of this call
	// carries it, so the event stream reassembles the batch's
	// queued→leased→measured→reported timeline across processes.
	trace := fmt.Sprintf("%s@%s#%d", task, rm.target, rm.traceSeq.Add(1))
	for _, fp := range dagOrder {
		if len(byDAG[fp]) == 0 {
			continue // the group's DAG failed to encode; errors already set
		}
		rm.measureRemote(task, trace, dagEnc[fp], byDAG[fp], enc, states, out)
	}
	var fresh int64
	for i := range out {
		if !out[i].Cached {
			fresh++
		}
	}
	rm.trials.Add(fresh)
	if rm.Recorder != nil {
		for _, r := range out {
			if r.Cached || r.Err != nil || r.Seconds <= 0 {
				continue
			}
			// Foreign-clock (train-only) results never enter the record
			// log: a calibrated estimate filed as a measured native time
			// would poison the resume cache and the registry.
			if r.TrainOnly {
				continue
			}
			rec, err := measure.NewRecord(task, rm.target, r)
			if err != nil {
				continue
			}
			_, _ = rm.Recorder.Record(rec)
		}
	}
	return out
}

// localStage lowers one program and serves it from the cache when
// possible; otherwise it returns the half-filled result (State +
// Lowered) and the program's canonical step encoding.
func (rm *RemoteMeasurer) localStage(task string, s *ir.State) (measure.Result, []byte) {
	low, err := ir.Lower(s)
	if err != nil {
		return measure.Result{State: s, Err: err}, nil
	}
	e, err := ir.EncodeSteps(s.Steps)
	if err != nil {
		return measure.Result{State: s, Err: fmt.Errorf("fleet: encode steps: %w", err)}, nil
	}
	if rm.Cache != nil {
		if rec, ok := rm.Cache.Lookup(rm.target, task, measure.DAGFingerprint(s.DAG), e); ok {
			return measure.Result{
				State: s, Lowered: low,
				Seconds:          rm.noisy(rec.Noiseless, s.Signature()),
				NoiselessSeconds: rec.Noiseless,
				Cached:           true,
			}, e
		}
	}
	return measure.Result{State: s, Lowered: low}, e
}

// noisy applies the deterministic (seed, signature) noise to a
// noiseless time — identically for cache-served and fleet-measured
// results.
func (rm *RemoteMeasurer) noisy(noiseless float64, sig string) float64 {
	if rm.noiseStd <= 0 {
		return noiseless
	}
	return noiseless * measure.NoiseFactor(rm.seed, rm.noiseStd, sig)
}

// Wire discipline constants: one value each, none of them an option.
const (
	// chunkPrograms is how many programs one chunk job carries (the
	// default per-round batch). Chunks fill disjoint result indices, so
	// chunking is invisible in the output — the determinism contract
	// does not care how a batch was sliced into jobs.
	chunkPrograms = 16
	// longPollWait is how long one lease or job-status request asks the
	// broker to hold it open (inside the broker's maxWait cap and the
	// client's HTTP timeout).
	longPollWait = 10 * time.Second
	// idlePause separates two requests after an empty answer (no lease,
	// job not done) and is the base of the transport-error backoff, so
	// no answer a broker can give turns a loop into a busy-wait.
	idlePause = 10 * time.Millisecond
	// maxBackoff caps the doubling transport-error backoff.
	maxBackoff = 2 * time.Second
)

// measureRemote ships one DAG group to the fleet as pipelined chunk
// jobs and fills the group's results. Chunk N+1 is encoded and
// submitted while chunk N is measuring (bounded by Pipeline), so
// workers drain a steady queue instead of waiting for whole-batch
// round trips. A broker failure fails that chunk's indices (the search
// skips errored results) and latches for Err.
func (rm *RemoteMeasurer) measureRemote(task, trace string, dag []byte, indices []int, enc [][]byte, states []*ir.State, out []measure.Result) {
	inflight := rm.Pipeline
	if inflight <= 0 {
		inflight = 2
	}
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	for start := 0; start < len(indices); start += chunkPrograms {
		end := start + chunkPrograms
		if end > len(indices) {
			end = len(indices)
		}
		part := indices[start:end]
		// Acquire before spawning: submission order stays the batch
		// order, and at most `inflight` chunks are ever in flight.
		sem <- struct{}{}
		wg.Add(1)
		go func(part []int) {
			defer wg.Done()
			defer func() { <-sem }()
			rm.runChunk(task, trace, dag, part, enc, states, out)
		}(part)
	}
	wg.Wait()
}

// runChunk submits one chunk job and fills its indices' results.
// Distinct chunks write disjoint out[i] slots, so no synchronization
// on out is needed.
func (rm *RemoteMeasurer) runChunk(task, trace string, dag []byte, indices []int, enc [][]byte, states []*ir.State, out []measure.Result) {
	spec := JobSpec{Target: rm.target, Task: task, Trace: trace, DAGBin: dag}
	for _, i := range indices {
		spec.Programs = append(spec.Programs, enc[i])
	}
	results, err := rm.runJob(spec)
	if err != nil {
		err = fmt.Errorf("fleet: measure batch (%d programs) via %s: %w", len(indices), rm.cl.base, err)
		rm.latch(err)
		for _, i := range indices {
			out[i].Err = err
		}
		return
	}
	for k, i := range indices {
		ur := results[k]
		if ur.Err != "" {
			out[i].Err = fmt.Errorf("fleet: worker: %s", ur.Err)
			continue
		}
		if ur.Noiseless <= 0 {
			out[i].Err = fmt.Errorf("fleet: worker returned non-positive time %g", ur.Noiseless)
			continue
		}
		out[i].MeasuredOn = ur.MeasuredOn
		if ur.Clock != "" && ur.Clock != rm.target {
			// Foreign-clock sibling measurement: the worker could not
			// emulate this target's model and timed the program on its
			// own. Calibrate onto the native clock when a scale exists,
			// discount like a cross-target warm-start record otherwise,
			// and mark it training-only either way — a time from another
			// machine's clock must never claim a measured best here.
			w := measure.WeightSibling
			if measure.TargetDistance(rm.target, ur.Clock) >= 2 {
				w = measure.WeightSameClass
			}
			sec := ur.Noiseless
			if scale, ok := rm.Calibration.Scale(ur.Clock); ok {
				sec *= scale
			} else {
				w *= measure.UncalibratedFactor
			}
			out[i].NoiselessSeconds = sec
			out[i].Seconds = sec
			out[i].TrainOnly = true
			out[i].TrainWeight = w
			continue
		}
		out[i].NoiselessSeconds = ur.Noiseless
		out[i].Seconds = rm.noisy(ur.Noiseless, states[i].Signature())
	}
}

// runJob submits a job and waits for completion, one long-poll GET per
// round trip. Transport errors while waiting are retried with capped
// exponential backoff (a broker restart mid-batch costs a retry, not
// the batch); the submit itself and HTTP-level refusals fail
// immediately.
func (rm *RemoteMeasurer) runJob(spec JobSpec) ([]UnitResult, error) {
	queuedAt := rm.Obs.Now()
	ack, err := rm.cl.Submit(spec)
	if err != nil {
		return nil, err
	}
	rm.Obs.Emit(obs.Event{Type: obs.EvBatchQueued, Task: spec.Task, Trace: spec.Trace,
		Job: ack.ID, Target: spec.Target, Count: len(spec.Programs)})
	backoff := idlePause
	deadline := time.Now().Add(rm.Timeout)
	for {
		// Never hold a long poll past the batch deadline: a fleet with no
		// compatible worker must fail at Timeout, not at Timeout rounded
		// up to the next wait.
		w := longPollWait
		if rm.Timeout > 0 {
			if rem := time.Until(deadline); rem < w {
				w = rem
			}
		}
		st, err := rm.cl.JobWait(ack.ID, w)
		if err != nil {
			if errors.Is(err, ErrTransport) && (rm.Timeout <= 0 || time.Now().Before(deadline)) {
				time.Sleep(backoff)
				if backoff *= 2; backoff > maxBackoff {
					backoff = maxBackoff
				}
				continue
			}
			return nil, err
		}
		backoff = idlePause
		if st.Done {
			if len(st.Results) != len(spec.Programs) {
				return nil, fmt.Errorf("job %s returned %d results for %d programs", ack.ID, len(st.Results), len(spec.Programs))
			}
			// Best-effort release; the broker's retention cap covers a
			// lost acknowledgement.
			_ = rm.cl.Ack(ack.ID)
			rm.Obs.Emit(obs.Event{Type: obs.EvBatchReported, Task: spec.Task, Trace: spec.Trace,
				Job: ack.ID, Target: spec.Target, Count: len(st.Results),
				DurMS: rm.Obs.SinceSeconds(queuedAt) * 1000})
			return st.Results, nil
		}
		if rm.Timeout > 0 && time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s timed out after %s (%d/%d measured; is a worker for target %q registered and alive?)",
				ack.ID, rm.Timeout, st.Completed, st.Total, rm.target)
		}
		time.Sleep(idlePause)
	}
}

var _ measure.Interface = (*RemoteMeasurer)(nil)
