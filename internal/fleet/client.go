package fleet

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
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
	"repro/internal/jsonx"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/regserver"
	"repro/internal/sim"
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

// ErrUnknownJob is returned by Submit when asked to attach to a job the
// broker does not hold: already answered, evicted, or lost in a restart.
// The submitter sends the programs again.
var ErrUnknownJob = errors.New("fleet: unknown job")

// errCutShort marks the transport error of a response that began — the
// broker had the request — and broke off before its end.
var errCutShort = errors.New("response cut short")

// Client talks to a measurement broker. Like the registry client, a
// bearer token may be embedded in the broker URL's userinfo
// ("http://:TOKEN@host") for brokers started with -auth-token.
type Client struct {
	base  string
	token string
	hc    *http.Client
}

// NewClient returns a client for the broker at base. It owns its
// connections: a client talks to one host, so every connection it has
// opened may idle for the next request, however many goroutines share it
// (http.DefaultTransport keeps two per host, for every client in the
// process together). Each connection's write buffer holds a whole job of
// 64 programs: a request body that fits is copied into it, where a larger
// one goes through a copy buffer net/http allocates at the body's size
// for every request.
func NewClient(base string) *Client {
	base, token := regserver.SplitTokenURL(base)
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = tr.MaxIdleConns
	tr.WriteBufferSize = 64 << 10
	return &Client{
		base:  strings.TrimRight(base, "/"),
		token: token,
		hc:    &http.Client{Timeout: 30 * time.Second, Transport: tr},
	}
}

// do sends one request and returns the whole response body of a 200,
// read into buf's memory (nil for a 204); any other status is an error
// carrying the broker's reason. The body is read to its end before it is
// closed, so the connection serves the next request.
func (c *Client) do(ctx context.Context, method, path, contentType string, in, buf []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(in))
	if err != nil {
		return 0, nil, fmt.Errorf("fleet: %s %s: %w", method, path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %s %s: %v", ErrTransport, method, c.base+path, err)
	}
	defer regserver.DrainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusNoContent:
		return resp.StatusCode, nil, nil
	case http.StatusOK:
		out, err := readAll(buf, io.LimitReader(resp.Body, maxBody), resp.ContentLength)
		if err != nil {
			return resp.StatusCode, nil, fmt.Errorf("%w: %s %s: %w: %v", ErrTransport, method, c.base+path, errCutShort, err)
		}
		return resp.StatusCode, out, nil
	}
	var e struct {
		Error string `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return resp.StatusCode, nil, fmt.Errorf("fleet: %s", e.Error)
	}
	return resp.StatusCode, nil, fmt.Errorf("fleet: broker returned %s for %s", resp.Status, path)
}

// doJSON is do with a JSON request body (none when body is nil) and a
// JSON response decoded into out.
func (c *Client) doJSON(method, path string, body []byte, out interface{}) (int, error) {
	code, raw, err := c.do(context.Background(), method, path, "application/json", body, nil)
	if err == nil && out != nil && code == http.StatusOK {
		if err = json.Unmarshal(raw, out); err != nil {
			err = fmt.Errorf("fleet: decode %s: %w", path, err)
		}
	}
	return code, err
}

// Ping checks the broker is reachable and speaks the fleet API.
func (c *Client) Ping() error {
	if _, err := c.doJSON(http.MethodGet, "/healthz", nil, nil); err != nil {
		return fmt.Errorf("fleet: ping %s: %w", c.base, err)
	}
	return nil
}

// Submit sends one measurement batch under spec.ID and waits up to
// spec.WaitMS for its results; a spec without programs attaches to a job
// submitted earlier. Once the returned status is Done the broker has
// forgotten the job; ErrUnknownJob says it has forgotten an id it was
// asked to attach to.
func (c *Client) Submit(spec JobSpec) (JobStatus, error) {
	spec.Count = len(spec.Programs)
	return c.submit(joinLines(spec.DAGBin, spec.Programs, func(b []byte) []byte { return appendJob(b, spec) }))
}

// submit is Submit with the job's body already laid out as joinLines
// lays it out. The status is read into borrowed memory, given back once
// it is decoded: nothing of it is kept but copies.
func (c *Client) submit(body []byte) (JobStatus, error) {
	reply := freeReplies.borrow()
	defer freeReplies.give(reply)
	code, raw, err := c.do(context.Background(), http.MethodPost, "/v1/jobs", "application/x-ndjson", body, reply.b)
	var st JobStatus
	if code == http.StatusNotFound {
		err = fmt.Errorf("%w: %v", ErrUnknownJob, err)
	} else if err == nil {
		reply.b = raw
		d := jsonx.NewReader(raw)
		if st, err = jsonx.Decode(&d, readStatus(&d)); err != nil {
			err = fmt.Errorf("fleet: decode job status: %w", err)
		}
	}
	return st, err
}

// Lease asks the broker for work, returning req.Done's results on the
// way; nil without error when none is available, ErrQuarantined when
// the broker refuses this worker.
func (c *Client) Lease(req LeaseRequest) (*LeaseGrant, error) {
	return c.LeaseContext(context.Background(), req)
}

// LeaseContext is Lease bounded by ctx — with long-poll leases a
// shutting-down worker must be able to abort a request the broker is
// deliberately holding open.
func (c *Client) LeaseContext(ctx context.Context, req LeaseRequest) (*LeaseGrant, error) {
	return c.lease(ctx, req, &buffer{})
}

// lease is LeaseContext reading the grant into mem, whose bytes and
// program list the grant's programs then share, and which keeps what
// they grew to for the next lease.
func (c *Client) lease(ctx context.Context, req LeaseRequest, mem *buffer) (*LeaseGrant, error) {
	body, err := appendLease(nil, req)
	if err != nil {
		return nil, fmt.Errorf("fleet: encode lease request: %w", err)
	}
	code, raw, err := c.do(ctx, http.MethodPost, "/v1/lease", "application/json", body, mem.b)
	if raw != nil {
		mem.b = raw
	}
	if code == http.StatusForbidden {
		return nil, fmt.Errorf("%w: %v", ErrQuarantined, err)
	}
	if err != nil || code == http.StatusNoContent {
		return nil, err
	}
	grant, err := decodeGrant(raw, mem.programs)
	if err == nil {
		mem.programs = grant.Programs
	}
	return grant, err
}

// decodeGrant parses a lease grant: its header line, then one program
// per index, listed in dst's memory.
func decodeGrant(body []byte, dst []json.RawMessage) (*LeaseGrant, error) {
	var grant LeaseGrant
	header, programs, err := splitLines(body, dst)
	if err == nil {
		d := jsonx.NewReader(header)
		grant, err = jsonx.Decode(&d, readGrant(&d))
	}
	if err == nil && len(programs) != len(grant.Indices) {
		err = fmt.Errorf("%d programs for %d indices", len(programs), len(grant.Indices))
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: decode lease grant: %w", err)
	}
	grant.Programs = programs
	return &grant, nil
}

// PostResults returns a lease's measurements to the broker without
// asking for another lease.
func (c *Client) PostResults(post ResultPost) (ResultAck, error) {
	var ack ResultAck
	body, err := appendResults(nil, post)
	if err != nil {
		return ack, fmt.Errorf("fleet: encode /v1/results: %w", err)
	}
	_, err = c.doJSON(http.MethodPost, "/v1/results", body, &ack)
	return ack, err
}

// Metrics fetches the broker's health counters.
func (c *Client) Metrics() (Metrics, error) {
	var m Metrics
	_, err := c.doJSON(http.MethodGet, "/metrics", nil, &m)
	return m, err
}

// RemoteMeasurer is a measure.Measurer whose Backend is a measurement
// broker: the fresh programs of a batch are submitted as fleet jobs,
// replayed, lowered and timed on remote workers and filled in by
// submission index; the submitter lowers nothing, and writes each
// program's step bytes once, into the job's body, where its result's
// EncSteps points. Everything else — the
// resume cache, noise, trial counting, records — is the embedded
// measurer's, which is what makes a fleet-measured run
// bit-identical to a local one at any worker count or lease assignment
// (see the package comment). Its Machine carries only the target's name:
// with a Backend set the measurer times nothing on it.
type RemoteMeasurer struct {
	*measure.Measurer
	// Timeout bounds one batch end to end (default 15m): a fleet with
	// no live compatible worker fails the batch instead of hanging the
	// search forever.
	Timeout time.Duration
	// Obs, when set, emits batch_queued/batch_reported events for every
	// job (joined to the broker's batch_leased/batch_measured via the job
	// and trace IDs). Observability only: a nil or non-nil Obs yields
	// bit-identical tuning output.
	Obs *obs.Observer

	cl *Client
	// jobPrefix and jobSeq make this measurer's job ids: the prefix is
	// random, so no two submitters of a broker ever choose the same id.
	jobPrefix string
	jobSeq    atomic.Int64
	// traceSeq numbers this measurer's batches for JobSpec.Trace — a
	// counter, not a clock, so enabling events never perturbs the wire
	// bytes a deterministic run produces.
	traceSeq atomic.Int64
	// bodyCap is the largest job body this measurer has built: the next
	// one is allocated at that size, so appending to it never regrows it.
	bodyCap atomic.Int64

	mu  sync.Mutex
	err error // first broker failure, latched for Err/Close
}

// NewRemoteMeasurer returns a measurer shipping batches for `target` to
// the broker at brokerURL. Noise follows the same (seed, signature)
// model as measure.New — the fleet never changes measured times, only
// where the machine model runs.
func NewRemoteMeasurer(brokerURL, target string, noiseStd float64, seed int64) *RemoteMeasurer {
	var nonce [8]byte
	_, _ = rand.Read(nonce[:]) // crypto/rand does not fail on a supported platform
	rm := &RemoteMeasurer{
		Measurer:  measure.New(&sim.Machine{Name: target}, noiseStd, seed),
		cl:        NewClient(brokerURL),
		jobPrefix: hex.EncodeToString(nonce[:]),
		Timeout:   15 * time.Minute,
	}
	rm.Backend = rm.timeOnFleet
	return rm
}

// Err returns the first broker failure this measurer latched. Batches
// that hit one carry per-program errors too (the search skips them);
// the latch is what surfaces the failure at run teardown —
// session.Close reports it exactly like a tuning-log write error.
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

// timeOnFleet is the measurer's Backend: it sends the batch's fresh
// programs to the fleet, one job per distinct DAG (policy batches share
// their task's DAG, so one job per call in practice), and leaves the step
// bytes it sent in their EncSteps.
func (rm *RemoteMeasurer) timeOnFleet(task string, out []measure.Result, fresh []int) {
	byDAG := map[string][]int{}
	var dagOrder []string
	dagEnc := map[string][]byte{}
	for _, i := range fresh {
		dag := out[i].State.DAG
		fp := measure.DAGFingerprint(dag)
		if _, seen := dagEnc[fp]; !seen {
			dagOrder = append(dagOrder, fp)
			// A nil entry marks a DAG that failed to encode: the whole
			// group errors without re-encoding per program.
			dagEnc[fp], _ = te.EncodeDAGBinary(dag)
		}
		if dagEnc[fp] == nil {
			out[i].Err = fmt.Errorf("fleet: dag %s failed to encode", fp)
			continue
		}
		byDAG[fp] = append(byDAG[fp], i)
	}
	// One trace ID per measured batch: every job of this call carries
	// it, so the event stream reassembles the batch's
	// queued→leased→measured→reported timeline across processes.
	trace := fmt.Sprintf("%s@%s#%d", task, rm.Machine.Name, rm.traceSeq.Add(1))
	for _, fp := range dagOrder {
		if len(byDAG[fp]) == 0 {
			continue // the group's DAG failed to encode; errors already set
		}
		rm.measureRemote(task, trace, dagEnc[fp], byDAG[fp], out)
	}
}

// Wire discipline constants: one value each, none of them an option.
const (
	// longPollWait is how long one lease or submission asks the broker to
	// hold it open (inside the broker's maxWait cap and the client's HTTP
	// timeout).
	longPollWait = 10 * time.Second
	// idlePause separates two requests after an empty answer (no lease,
	// job not done) and is the base of the transport-error backoff, so
	// no answer a broker can give turns a loop into a busy-wait.
	idlePause = 10 * time.Millisecond
	// maxBackoff caps the doubling transport-error backoff.
	maxBackoff = 2 * time.Second
)

// measureRemote ships one DAG group to the fleet as one job — the
// broker slices it into leases the size its workers ask for — and fills
// the group's results. A broker failure fails the group's indices (the
// search skips errored results) and latches for Err; a program whose
// steps do not encode is that program's error and never leaves.
func (rm *RemoteMeasurer) measureRemote(task, trace string, dag []byte, indices []int, out []measure.Result) {
	spec := JobSpec{ID: fmt.Sprintf("%s-%d", rm.jobPrefix, rm.jobSeq.Add(1)),
		Target: rm.Machine.Name, Task: task, Trace: trace, DAGBin: dag,
		Count: len(indices), WaitMS: longPollWait.Milliseconds()}
	body, sent := rm.jobBody(&spec, indices, out)
	if len(sent) == 0 {
		return
	}
	results, err := rm.runJob(spec, body)
	if err != nil {
		err = fmt.Errorf("fleet: measure batch (%d programs) via %s: %w", len(sent), rm.cl.base, err)
		rm.latch(err)
		for _, i := range sent {
			out[i].Err = err
		}
		return
	}
	for k, i := range sent {
		switch ur := results[k]; {
		case ur.Err != "":
			out[i].Err = fmt.Errorf("fleet: worker: %s", ur.Err)
		case ur.Noiseless <= 0:
			out[i].Err = fmt.Errorf("fleet: worker returned non-positive time %g", ur.Noiseless)
		default:
			out[i].NoiselessSeconds = ur.Noiseless
		}
	}
}

// jobBody writes spec's header line and then, in place, the step list
// of each program of indices — the bytes the cache lookup made, or
// encoded here — and returns the body and the indices it carries.
// spec.Programs and their results' EncSteps are pieces of that one
// body, which nothing writes again. The body is joinLines' layout for
// spec; it is nil, and Submit lays the job out itself, when a program
// did not encode and the header's count no longer holds.
func (rm *RemoteMeasurer) jobBody(spec *JobSpec, indices []int, out []measure.Result) ([]byte, []int) {
	body := appendJob(make([]byte, 0, rm.bodyCap.Load()), *spec)
	start := len(body) + 1
	sent, ends := make([]int, 0, len(indices)), make([]int, 0, len(indices))
	for _, i := range indices {
		line := len(body)
		body = append(body, '\n')
		if enc := out[i].EncSteps; enc != nil {
			body = append(body, enc...)
		} else {
			var err error
			if body, err = ir.AppendSteps(body, out[i].State.Steps); err != nil {
				body = body[:line]
				out[i].Err = fmt.Errorf("fleet: encode steps: %w", err)
				continue
			}
		}
		sent, ends = append(sent, i), append(ends, len(body))
	}
	body = append(body, '\n')
	for n := int64(len(body)); ; {
		if c := rm.bodyCap.Load(); c >= n || rm.bodyCap.CompareAndSwap(c, n) {
			break
		}
	}
	spec.Programs = make([]json.RawMessage, len(sent))
	for k, i := range sent {
		spec.Programs[k] = body[start:ends[k]:ends[k]]
		out[i].EncSteps = spec.Programs[k]
		start = ends[k] + 1
	}
	if len(sent) != len(indices) {
		return nil, sent
	}
	return body, sent
}

// runJob submits a job and waits for its results, one held-open request
// per round trip. A submission that gets no answer at all fails fast (a
// broker that is not there must not stall the search). The broker sends
// the status line of its answer as soon as it holds the job, so from
// then on the submitter knows the job reached a broker, and transport
// errors — that answer breaking off included — are retried with capped
// exponential backoff, an expired wait re-attaches by id without sending
// the programs again, and a broker that no longer knows the id (it
// restarted) is sent them again under the same id: a broker restart
// mid-batch costs a retry, not the batch. Other HTTP-level refusals fail
// immediately.
//
// body, when not nil, is spec's whole body under the wait_ms spec
// carries: the first send goes out as those bytes if that is the wait it
// asks for, and every other send, and that one otherwise, is laid out
// by Submit.
func (rm *RemoteMeasurer) runJob(spec JobSpec, body []byte) ([]UnitResult, error) {
	queuedAt := rm.Obs.Now()
	rm.Obs.Emit(obs.Event{Type: obs.EvBatchQueued, Task: spec.Task, Trace: spec.Trace,
		Job: spec.ID, Target: spec.Target, Count: len(spec.Programs)})
	attach := JobSpec{ID: spec.ID}
	bodyWait := spec.WaitMS
	send, reached := &spec, false
	backoff := idlePause
	deadline := time.Now().Add(rm.Timeout)
	for {
		// Never hold a request past the batch deadline: a fleet with no
		// compatible worker must fail at Timeout, not at Timeout rounded
		// up to the next wait.
		w := longPollWait
		if rm.Timeout > 0 {
			if rem := time.Until(deadline); rem < w {
				w = rem
			}
		}
		send.WaitMS = max(w.Milliseconds(), 1)
		var st JobStatus
		var err error
		if body != nil && send == &spec && send.WaitMS == bodyWait {
			st, err = rm.cl.submit(body)
		} else {
			st, err = rm.cl.Submit(*send)
		}
		body = nil
		inTime := rm.Timeout <= 0 || time.Now().Before(deadline)
		switch {
		case errors.Is(err, ErrUnknownJob):
			send = &spec
			continue
		case errors.Is(err, ErrTransport) && inTime && (reached || errors.Is(err, errCutShort)):
			reached = true
			time.Sleep(backoff)
			backoff = min(2*backoff, maxBackoff)
			continue
		case err != nil:
			return nil, err
		}
		send, reached, backoff = &attach, true, idlePause
		if st.Done {
			if len(st.Results) != len(spec.Programs) {
				return nil, fmt.Errorf("job %s returned %d results for %d programs", spec.ID, len(st.Results), len(spec.Programs))
			}
			rm.Obs.Emit(obs.Event{Type: obs.EvBatchReported, Task: spec.Task, Trace: spec.Trace,
				Job: spec.ID, Target: spec.Target, Count: len(st.Results),
				DurMS: rm.Obs.SinceSeconds(queuedAt) * 1000})
			return st.Results, nil
		}
		if !inTime {
			return nil, fmt.Errorf("job %s timed out after %s (%d/%d measured; is a worker for target %q registered and alive?)",
				spec.ID, rm.Timeout, st.Completed, st.Total, spec.Target)
		}
		time.Sleep(idlePause)
	}
}
