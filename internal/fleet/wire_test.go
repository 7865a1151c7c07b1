package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/jsonx"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/te"
)

// binJob builds a real binary-codec job from sampled programs.
func binJob(t *testing.T, target string, states []*ir.State) JobSpec {
	t.Helper()
	dag, err := te.EncodeDAGBinary(states[0].DAG)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{ID: fmt.Sprintf("bin-%d", synthSeq.Add(1)), Target: target, Task: "t", DAGBin: dag}
	for _, s := range states {
		e, err := ir.EncodeSteps(s.Steps)
		if err != nil {
			t.Fatal(err)
		}
		spec.Programs = append(spec.Programs, e)
	}
	return spec
}

// TestBrokerRejectsBadBinarySubmissions: a dag_bin that is not a
// decodable binary DAG fails at the door with the decoder's reason, and
// leaves no job behind.
func TestBrokerRejectsBadBinarySubmissions(t *testing.T) {
	b, cl := testBroker(t, nil)
	good := binJob(t, "cpu", sampleStates(t, 1))
	for name, dag := range map[string][]byte{
		"garbage": append([]byte("TED\x01"), 0xff, 0xff, 0xff),
		"json":    []byte(jsonDAG),
	} {
		bad := good
		bad.DAGBin = dag
		if _, err := cl.Submit(bad); err == nil || !strings.Contains(err.Error(), "bad binary dag") {
			t.Errorf("%s dag_bin: err=%v, want the bad-binary-dag refusal", name, err)
		}
	}
	assertNoJobs(t, b)
	if _, err := cl.Submit(good); err != nil {
		t.Errorf("well-formed binary job refused: %v", err)
	}
	// The broker remembers the last good DAG; a bad one after it is still
	// decoded, and refused.
	bad := good
	bad.ID, bad.DAGBin = "after-good", append([]byte("TED\x01"), 0xff, 0xff, 0xff)
	if code, err := postJob(cl, string(joinLines(bad.DAGBin, bad.Programs, func(b []byte) []byte {
		bad.Count = len(bad.Programs)
		return appendJob(b, bad)
	}))); code != http.StatusBadRequest || err == nil || !strings.Contains(err.Error(), "bad binary dag") {
		t.Errorf("bad dag_bin after a good one: %d %v, want 400 bad binary dag", code, err)
	}
}

// TestLeaseLongPollWakesOnSubmit: a long-polled lease blocks until work
// arrives and returns it immediately — no poll-interval latency.
func TestLeaseLongPollWakesOnSubmit(t *testing.T) {
	machine := sim.IntelXeon()
	states := sampleStates(t, 2)
	_, cl := testBroker(t, nil)

	type leased struct {
		g   *LeaseGrant
		err error
	}
	got := make(chan leased, 1)
	go func() {
		g, err := cl.Lease(LeaseRequest{Worker: "w", Target: machine.Name, Capacity: 1, WaitMS: 5000})
		got <- leased{g, err}
	}()
	// Give the long poll time to block, then submit.
	time.Sleep(50 * time.Millisecond)
	select {
	case l := <-got:
		t.Fatalf("lease answered before any work existed: %+v err=%v", l.g, l.err)
	default:
	}
	if _, err := cl.Submit(binJob(t, machine.Name, states)); err != nil {
		t.Fatal(err)
	}
	select {
	case l := <-got:
		if l.err != nil || l.g == nil {
			t.Fatalf("woken lease: %+v err=%v", l.g, l.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("long-polled lease not woken by the submit")
	}
	m, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.LeaseWakeups < 1 {
		t.Errorf("lease wakeups = %d, want >= 1", m.LeaseWakeups)
	}
}

// TestJobLongPollReturnsOnCompletion: a submission that asks to wait is
// held until the last result lands, then answered with the full results
// — one request per job, and the answer is the acknowledgement.
func TestJobLongPollReturnsOnCompletion(t *testing.T) {
	b, cl := testBroker(t, nil)
	spec := synthJob("cpu", 2)
	spec.WaitMS = 5000
	type polled struct {
		st  JobStatus
		err error
	}
	got := make(chan polled, 1)
	go func() {
		st, err := cl.Submit(spec)
		got <- polled{st, err}
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case p := <-got:
		t.Fatalf("submission answered before completion: %+v err=%v", p.st, p.err)
	default:
	}
	if n := drain(t, cl, "w", "cpu", 2); n != 2 {
		t.Fatalf("drain measured %d", n)
	}
	select {
	case p := <-got:
		if p.err != nil || !p.st.Done || len(p.st.Results) != 2 {
			t.Fatalf("woken submission: %+v err=%v", p.st, p.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("held submission not woken by completion")
	}
	b.mu.Lock()
	held := len(b.jobs)
	b.mu.Unlock()
	if held != 0 {
		t.Errorf("%d jobs held after the results were delivered, want the job forgotten", held)
	}
	// A wait that runs out answers with the status so far, and the
	// submitter attaches again with the id alone.
	spec = synthJob("cpu", 1)
	spec.WaitMS = 20
	if st, err := cl.Submit(spec); err != nil || st.Done || st.Total != 1 {
		t.Fatalf("expired wait: %+v err=%v", st, err)
	}
	if n := drain(t, cl, "w", "cpu", 1); n != 1 {
		t.Fatalf("drain measured %d", n)
	}
	if st, err := cl.Submit(JobSpec{ID: spec.ID, WaitMS: 5000}); err != nil || !st.Done || len(st.Results) != 1 {
		t.Fatalf("re-attached submission: %+v err=%v", st, err)
	}
}

// TestClientMetricsRoundTrip: every counter the broker tracks survives
// the JSON round trip through Client.Metrics.
func TestClientMetricsRoundTrip(t *testing.T) {
	machine := sim.IntelXeon()
	states := sampleStates(t, 3)
	url := startBroker(t, nil)
	cl := NewClient(url)
	startWorkers(t, url, machine, 2)
	rm := remote(t, url, machine, 0.02, 3)
	if res := rm.MeasureTask("mm", states); res[0].Err != nil {
		t.Fatalf("measure: %v", res[0].Err)
	}
	m, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsSubmitted < 1 || m.JobsCompleted < 1 {
		t.Errorf("job counters: %+v", m)
	}
	var workerCompleted int64
	for _, ws := range m.Workers {
		workerCompleted += ws.Completed
	}
	if workerCompleted < int64(len(states)) {
		t.Errorf("workers completed %d programs, want >= %d", workerCompleted, len(states))
	}
	if m.BytesIn <= 0 || m.BytesOut <= 0 {
		t.Errorf("wire bytes: in=%d out=%d, want both > 0", m.BytesIn, m.BytesOut)
	}
	if len(m.Workers) == 0 || m.UptimeSeconds <= 0 {
		t.Errorf("worker/uptime fields: %+v", m)
	}
}

// wireTap sits in front of a broker and keeps a copy of every job body
// that carries programs and of every lease grant the broker writes, with
// the grant's announced Content-Length, and counts the lease requests
// and results posts the broker refused.
type wireTap struct {
	mu      sync.Mutex
	jobs    [][]byte
	grants  [][]byte
	lengths []string
	refused int
}

type tapWriter struct {
	http.ResponseWriter
	buf  bytes.Buffer
	code int
}

func (w *tapWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *tapWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

func (tap *wireTap) serve(t *testing.T, b *Broker) string {
	t.Helper()
	inner := countLeases(b, b.Handler())
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs":
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			if bytes.Count(body, []byte{'\n'}) > 1 {
				tap.mu.Lock()
				tap.jobs = append(tap.jobs, body)
				tap.mu.Unlock()
			}
		case "/v1/lease", "/v1/results":
			tw := &tapWriter{ResponseWriter: w}
			inner.ServeHTTP(tw, r)
			tap.mu.Lock()
			defer tap.mu.Unlock()
			if tw.code == http.StatusBadRequest {
				tap.refused++
			}
			if tw.buf.Len() > 0 && tw.Header().Get("Content-Type") == "application/x-ndjson" {
				tap.grants = append(tap.grants, tw.buf.Bytes())
				tap.lengths = append(tap.lengths, tw.Header().Get("Content-Length"))
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// readJobHeader parses a job body's header line.
func readJobHeader(t *testing.T, body []byte) JobSpec {
	t.Helper()
	header, _, _ := bytes.Cut(body, []byte{'\n'})
	d := jsonx.NewReader(header)
	spec, err := jsonx.Decode(&d, readJob(&d))
	if err != nil {
		t.Fatalf("job header %q: %v", header, err)
	}
	return spec
}

// encodeAll is each program's ir.EncodeSteps bytes.
func encodeAll(t *testing.T, states []*ir.State) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, len(states))
	for i, s := range states {
		enc, err := ir.EncodeSteps(s.Steps)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = enc
	}
	return out
}

// TestWireBytesFrozen: the job body a RemoteMeasurer writes in place and
// the grants the broker streams piece by piece are, byte for byte, what
// joinLines builds from the same header and programs — the layout every
// peer reads — and each grant announces its exact length.
func TestWireBytesFrozen(t *testing.T) {
	machine := sim.IntelXeon()
	states := sampleStates(t, 40)
	local := measure.New(machine, 0.02, 9).MeasureTask("mm", states)
	tap := &wireTap{}
	url := tap.serve(t, NewBroker())
	startWorkers(t, url, machine, 16, 16)
	rm := remote(t, url, machine, 0.02, 9)
	assertBitIdentical(t, "tapped", local, rm.MeasureTask("mm", states))
	if err := rm.Err(); err != nil {
		t.Fatal(err)
	}

	dag, err := te.EncodeDAGBinary(states[0].DAG)
	if err != nil {
		t.Fatal(err)
	}
	programs := encodeAll(t, states)
	if len(tap.jobs) != 1 {
		t.Fatalf("%d job bodies with programs sent, want 1", len(tap.jobs))
	}
	got := readJobHeader(t, tap.jobs[0])
	spec := JobSpec{ID: got.ID, Target: machine.Name, Task: "mm", Trace: got.Trace, DAGBin: dag,
		Count: len(states), WaitMS: longPollWait.Milliseconds()}
	if want := joinLines(dag, programs, func(b []byte) []byte { return appendJob(b, spec) }); !bytes.Equal(tap.jobs[0], want) {
		t.Errorf("job body differs from joinLines':\n got %.300q\nwant %.300q", tap.jobs[0], want)
	}

	seen := make([]int, len(states))
	for k, body := range tap.grants {
		g, err := decodeGrant(body, nil)
		if err != nil {
			t.Fatal(err)
		}
		sent := make([]json.RawMessage, len(g.Indices))
		for n, idx := range g.Indices {
			sent[n] = programs[idx]
			seen[idx]++
		}
		head := LeaseGrant{Lease: g.Lease, Job: spec.ID, Task: "mm", Trace: spec.Trace, Target: machine.Name,
			DAGBin: dag, Indices: g.Indices}
		if want := joinLines(dag, sent, func(b []byte) []byte { return appendGrant(b, head) }); !bytes.Equal(body, want) {
			t.Errorf("grant %d differs from joinLines':\n got %.300q\nwant %.300q", k, body, want)
		}
		if tap.lengths[k] != strconv.Itoa(len(body)) {
			t.Errorf("grant %d announced Content-Length %s for %d bytes", k, tap.lengths[k], len(body))
		}
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("program %d was granted %d times, want once", idx, n)
		}
	}
}

// foreignStep is a Step type from outside ir: it applies (to nothing),
// and the step encoder refuses it.
type foreignStep struct{}

func (foreignStep) Name() string          { return "foreign" }
func (foreignStep) StageName() string     { return "matmul" }
func (foreignStep) Apply(*ir.State) error { return nil }

// TestRemoteMeasurerUnencodableStepIsItsError: a program whose steps the
// encoder refuses never leaves the submitter. It comes back with its
// encode error and no time, and still costs its trial; the job carries
// the others, and its count matches its lines.
func TestRemoteMeasurerUnencodableStepIsItsError(t *testing.T) {
	machine := sim.IntelXeon()
	states := sampleStates(t, 6)
	odd := states[2].Clone()
	odd.MustApply(foreignStep{})
	batch := append(append(append([]*ir.State(nil), states[:2]...), odd), states[2:]...)
	tap := &wireTap{}
	url := tap.serve(t, NewBroker())
	startWorkers(t, url, machine, 4)
	rm := remote(t, url, machine, 0.02, 4)
	res := rm.MeasureTask("mm", batch)
	if err := rm.Err(); err != nil {
		t.Fatal(err)
	}
	if r := res[2]; r.Err == nil || !strings.Contains(r.Err.Error(), "encode steps") || r.Seconds != 0 || r.NoiselessSeconds != 0 {
		t.Errorf("unencodable program = %+v, want its encode error and no time", r)
	}
	if rm.Trials() != len(batch) {
		t.Errorf("trials = %d, want %d: the refused program is a trial too", rm.Trials(), len(batch))
	}
	others := append(append([]measure.Result(nil), res[:2]...), res[3:]...)
	assertBitIdentical(t, "beside the refused one", measure.New(machine, 0.02, 4).MeasureTask("mm", states), others)

	if len(tap.jobs) != 1 {
		t.Fatalf("%d job bodies with programs sent, want 1", len(tap.jobs))
	}
	spec := readJobHeader(t, tap.jobs[0])
	_, lines, err := splitLines(tap.jobs[0], nil)
	if err != nil || spec.Count != len(states) || len(lines) != spec.Count {
		t.Fatalf("job counts %d programs and carries %d lines (%v), want %d of each", spec.Count, len(lines), err, len(states))
	}
	for k, want := range encodeAll(t, states) {
		if !bytes.Equal(lines[k], want) {
			t.Errorf("job line %d = %.80q, want program %d's steps", k, lines[k], k)
		}
	}
}
