package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ir"
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
