package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/te"
)

// fakeClock is a manually advanced time source for the broker's lease
// clock: expiry tests advance it instead of sleeping, so they assert
// exact reaping behavior with zero wall-clock waits and zero flake
// surface. Only lease deadlines and reaping read this clock; long-poll
// request holds stay on wall time (see Broker.now).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// synthDAG is a real wire DAG: the broker decodes every submission at
// the door.
var synthDAG = func() []byte {
	b := te.NewBuilder("synth")
	b.Matmul(b.Input("A", 8, 8), 8, true)
	enc, err := te.EncodeDAGBinary(b.MustFinish())
	if err != nil {
		panic(err)
	}
	return enc
}()

// jsonDAG is a computation in JSON form, which is not a wire the broker
// reads: only dag_bin is.
const jsonDAG = `{"name":"synth","tensors":[{"name":"A","shape":[8,8],"elem_bytes":4}],"inputs":["A"],"nodes":[]}`

// synthSeq numbers the test jobs: a submitter chooses its own job ids.
var synthSeq atomic.Int64

// synthJob builds a protocol-test job: the broker never decodes step
// lists, so the programs are opaque placeholders.
func synthJob(target string, n int) JobSpec {
	spec := JobSpec{ID: fmt.Sprintf("synth-%d", synthSeq.Add(1)), Target: target, Task: "t", DAGBin: synthDAG}
	for i := 0; i < n; i++ {
		spec.Programs = append(spec.Programs, json.RawMessage(fmt.Sprintf(`["p%d"]`, i)))
	}
	return spec
}

// poll asks for a job's status without waiting: a submission of its id
// alone. The answer that says done is the one that forgets the job.
func poll(cl *Client, id string) (JobStatus, error) { return cl.Submit(JobSpec{ID: id}) }

func testBroker(t *testing.T, mutate func(*Broker)) (*Broker, *Client) {
	t.Helper()
	b := NewBroker()
	if mutate != nil {
		mutate(b)
	}
	hs := httptest.NewServer(countLeases(b, b.Handler()))
	t.Cleanup(hs.Close)
	return b, NewClient(hs.URL)
}

// leasesInFlight counts, per broker, the lease requests its test servers
// are serving (countLeases): an upper bound on the grants being written,
// each of which holds its job's body.
var leasesInFlight sync.Map // *Broker -> *atomic.Int64

// countLeases wraps b's handler h, counting its lease requests in flight.
func countLeases(b *Broker, h http.Handler) http.Handler {
	v, _ := leasesInFlight.LoadOrStore(b, new(atomic.Int64))
	n := v.(*atomic.Int64)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/lease" {
			n.Add(1)
			defer n.Add(-1)
		}
		h.ServeHTTP(w, r)
	})
}

// drain plays a well-behaved worker: lease until empty, posting the
// index as the measured time so tests can check result placement.
func drain(t *testing.T, cl *Client, worker, target string, capacity int) int {
	t.Helper()
	total := 0
	for {
		grant, err := cl.Lease(LeaseRequest{Worker: worker, Target: target, Capacity: capacity})
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if grant == nil {
			return total
		}
		post := ResultPost{Worker: worker, Job: grant.Job, Lease: grant.Lease}
		for _, idx := range grant.Indices {
			post.Results = append(post.Results, WorkerResult{Index: idx, Noiseless: float64(idx + 1)})
		}
		if _, err := cl.PostResults(post); err != nil {
			t.Fatalf("post results: %v", err)
		}
		total += len(grant.Indices)
	}
}

func TestBrokerJobLifecycle(t *testing.T) {
	_, cl := testBroker(t, nil)
	ack, err := cl.Submit(synthJob("cpu", 5))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Total != 5 || ack.ID == "" {
		t.Fatalf("ack = %+v", ack)
	}

	st, err := poll(cl, ack.ID)
	if err != nil || st.Done || st.Completed != 0 {
		t.Fatalf("fresh job status: %+v err=%v", st, err)
	}

	grant, err := cl.Lease(LeaseRequest{Worker: "w1", Target: "cpu", Capacity: 2})
	if err != nil || grant == nil {
		t.Fatalf("lease: %+v err=%v", grant, err)
	}
	if !reflect.DeepEqual(grant.Indices, []int{0, 1}) || len(grant.Programs) != 2 {
		t.Fatalf("first lease should carry indices 0,1: %+v", grant)
	}
	if string(grant.Programs[1]) != `["p1"]` {
		t.Fatalf("lease program payload mismatch: %s", grant.Programs[1])
	}
	if !bytes.Equal(grant.DAGBin, synthDAG) {
		t.Fatal("the grant must carry the submitted dag_bin byte for byte")
	}
	post := ResultPost{Worker: "w1", Job: grant.Job, Lease: grant.Lease,
		Results: []WorkerResult{{Index: 0, Noiseless: 1}, {Index: 1, Noiseless: 2}}}
	if ra, err := cl.PostResults(post); err != nil || ra.Accepted != 2 {
		t.Fatalf("post: %+v err=%v", ra, err)
	}
	if n := drain(t, cl, "w1", "cpu", 2); n != 3 {
		t.Fatalf("drain measured %d, want the remaining 3", n)
	}

	st, err = poll(cl, ack.ID)
	if err != nil || !st.Done || st.Completed != 5 {
		t.Fatalf("final status: %+v err=%v", st, err)
	}
	for i, r := range st.Results {
		if !r.Done || r.Noiseless != float64(i+1) {
			t.Fatalf("result %d misplaced: %+v", i, r)
		}
	}
	// The answer that carried the results was the acknowledgement.
	if _, err := poll(cl, ack.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("poll after the results were delivered: err=%v, want ErrUnknownJob", err)
	}
}

// TestBrokerSubmitIdempotent: a retried submission attaches to the job
// the first one made; the batch is never enqueued twice.
func TestBrokerSubmitIdempotent(t *testing.T) {
	b, cl := testBroker(t, nil)
	spec := synthJob("cpu", 4)
	for i := 0; i < 3; i++ {
		if st, err := cl.Submit(spec); err != nil || st.Total != 4 || st.Done {
			t.Fatalf("submission %d: %+v err=%v", i, st, err)
		}
	}
	m, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs != 1 || m.JobsSubmitted != 1 || m.ProgramsQueued != 4 {
		t.Fatalf("after three submissions of one id: %d jobs held, %d submitted, %d programs queued; want 1, 1, 4",
			m.Jobs, m.JobsSubmitted, m.ProgramsQueued)
	}
	checkLeaseTable(t, b, "resubmission")
	// A retry that lands while a slice is leased must not requeue it.
	if g, err := cl.Lease(LeaseRequest{Worker: "w", Target: "cpu", Capacity: 3}); err != nil || g == nil {
		t.Fatalf("lease: %+v err=%v", g, err)
	}
	if _, err := cl.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if m, _ := cl.Metrics(); m.ProgramsQueued != 1 || m.ProgramsLeased != 3 {
		t.Fatalf("resubmission under a live lease: %d queued / %d leased, want 1 / 3", m.ProgramsQueued, m.ProgramsLeased)
	}
	checkLeaseTable(t, b, "resubmission under a live lease")
}

// TestBrokerDoneJobEviction bounds the completed-but-unacknowledged
// backlog: past maxDoneJobs the oldest done job is evicted, so a dead
// submitter cannot leak broker memory.
func TestBrokerDoneJobEviction(t *testing.T) {
	_, cl := testBroker(t, func(b *Broker) { b.maxDoneJobs = 1 })
	ack1, err := cl.Submit(synthJob("cpu", 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := drain(t, cl, "w", "cpu", 1); n != 1 {
		t.Fatal("drain job 1")
	}
	ack2, err := cl.Submit(synthJob("cpu", 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := drain(t, cl, "w", "cpu", 1); n != 1 {
		t.Fatal("drain job 2")
	}
	if _, err := poll(cl, ack1.ID); err == nil {
		t.Error("oldest unacknowledged done job should have been evicted")
	}
	if st, err := poll(cl, ack2.ID); err != nil || !st.Done {
		t.Errorf("newest done job must survive eviction: %+v err=%v", st, err)
	}
}

func TestBrokerTargetCompatibility(t *testing.T) {
	_, cl := testBroker(t, nil)
	if _, err := cl.Submit(synthJob("intel-20c-avx2", 2)); err != nil {
		t.Fatal(err)
	}
	grant, err := cl.Lease(LeaseRequest{Worker: "gpu-w", Target: "nvidia-v100", Capacity: 4})
	if err != nil || grant != nil {
		t.Fatalf("incompatible worker must get no lease: %+v err=%v", grant, err)
	}
	if n := drain(t, cl, "cpu-w", "intel-20c-avx2", 4); n != 2 {
		t.Fatalf("compatible worker measured %d, want 2", n)
	}
}

func TestBrokerLeaseExpiryRequeues(t *testing.T) {
	clk := newFakeClock()
	b, cl := testBroker(t, func(b *Broker) {
		b.LeaseTTL = 30 * time.Second
		b.now = clk.Now
	})
	ack, err := cl.Submit(synthJob("cpu", 3))
	if err != nil {
		t.Fatal(err)
	}
	// Worker A takes a slice and dies (never posts).
	grant, err := cl.Lease(LeaseRequest{Worker: "dead", Target: "cpu", Capacity: 2})
	if err != nil || grant == nil || len(grant.Indices) != 2 {
		t.Fatalf("zombie lease: %+v err=%v", grant, err)
	}
	clk.Advance(2 * b.LeaseTTL)
	// Worker B drains everything, including the requeued slice.
	if n := drain(t, cl, "alive", "cpu", 4); n != 3 {
		t.Fatalf("replacement worker measured %d, want all 3", n)
	}
	st, err := poll(cl, ack.ID)
	if err != nil || !st.Done {
		t.Fatalf("job should complete after requeue: %+v err=%v", st, err)
	}
	m, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.LeaseExpiries != 1 {
		t.Errorf("lease expiries = %d, want 1", m.LeaseExpiries)
	}
	var dead *WorkerStatus
	for i := range m.Workers {
		if m.Workers[i].ID == "dead" {
			dead = &m.Workers[i]
		}
	}
	if dead == nil || dead.Failures != 1 || dead.Quarantined {
		t.Errorf("dead worker accounting: %+v", dead)
	}
}

func TestBrokerQuarantine(t *testing.T) {
	clk := newFakeClock()
	b, cl := testBroker(t, func(b *Broker) {
		b.LeaseTTL = 20 * time.Second
		b.MaxFailures = 2
		b.now = clk.Now
	})
	if _, err := cl.Submit(synthJob("cpu", 4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		grant, err := cl.Lease(LeaseRequest{Worker: "flaky", Target: "cpu", Capacity: 1})
		if err != nil || grant == nil {
			t.Fatalf("flaky lease %d: %+v err=%v", i, grant, err)
		}
		clk.Advance(2 * b.LeaseTTL)
		// Any request reaps; use a metrics poll like a dashboard would.
		if _, err := cl.Metrics(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Lease(LeaseRequest{Worker: "flaky", Target: "cpu", Capacity: 1}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("third lease should be refused with ErrQuarantined, got %v", err)
	}
	// A healthy worker still drains the job, requeued slices included.
	if n := drain(t, cl, "healthy", "cpu", 4); n != 4 {
		t.Fatalf("healthy worker measured %d, want 4", n)
	}
	m, _ := cl.Metrics()
	if m.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", m.Quarantined)
	}
}

func TestBrokerDuplicateResultsDropped(t *testing.T) {
	clk := newFakeClock()
	b, cl := testBroker(t, func(b *Broker) {
		b.LeaseTTL = 20 * time.Second
		b.now = clk.Now
	})
	ack, err := cl.Submit(synthJob("cpu", 1))
	if err != nil {
		t.Fatal(err)
	}
	grant, err := cl.Lease(LeaseRequest{Worker: "slow", Target: "cpu", Capacity: 1})
	if err != nil || grant == nil {
		t.Fatal("straggler lease failed")
	}
	clk.Advance(2 * b.LeaseTTL)
	if n := drain(t, cl, "fast", "cpu", 1); n != 1 {
		t.Fatalf("replacement measured %d, want 1", n)
	}
	// The straggler wakes up and posts into the already-completed slot.
	ra, err := cl.PostResults(ResultPost{Worker: "slow", Job: grant.Job, Lease: grant.Lease,
		Results: []WorkerResult{{Index: 0, Noiseless: 1}}})
	if err != nil || ra.Accepted != 0 {
		t.Fatalf("late post should be dropped: %+v err=%v", ra, err)
	}
	m, _ := cl.Metrics()
	if m.DuplicateResults != 1 {
		t.Errorf("duplicate results = %d, want 1", m.DuplicateResults)
	}
	if m.JobsCompleted != 1 {
		t.Errorf("jobs completed = %d, want 1 (a straggler's duplicate post must not double-count)", m.JobsCompleted)
	}
	if st, err := poll(cl, ack.ID); err != nil || !st.Done {
		t.Fatalf("job: %+v err=%v", st, err)
	}
}

// TestBrokerPartialPostRequeuesRest: a worker that returns its lease
// with only some of its programs measured hands the rest back to the
// queue — released with the lease, they would be in no queue, under no
// lease and not done, and nothing would ever hand them out again.
func TestBrokerPartialPostRequeuesRest(t *testing.T) {
	b, cl := testBroker(t, nil)
	ack, err := cl.Submit(synthJob("cpu", 3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := cl.Lease(LeaseRequest{Worker: "w", Target: "cpu", Capacity: 3})
	if err != nil || g == nil || len(g.Indices) != 3 {
		t.Fatalf("lease: %+v err=%v", g, err)
	}
	if ra, err := cl.PostResults(ResultPost{Worker: "w", Job: g.Job, Lease: g.Lease,
		Results: []WorkerResult{{Index: 1, Noiseless: 2}}}); err != nil || ra.Accepted != 1 {
		t.Fatalf("partial post: %+v err=%v", ra, err)
	}
	checkLeaseTable(t, b, "partial post")
	if n := drain(t, cl, "w2", "cpu", 4); n != 2 {
		t.Fatalf("second worker measured %d, want the 2 programs handed back", n)
	}
	if st, err := poll(cl, ack.ID); err != nil || !st.Done {
		t.Fatalf("job: %+v err=%v", st, err)
	}
}

// checkLeaseTable asserts the broker's lease-table invariant on every
// held job, after any request of the protocol — a submission or its
// retry, a lease, a results post, and the lease request that is both:
// each program index is in exactly one of queued / leased / done, and
// the job's completion count is the number done. Leased means held by a
// live lease and not yet done — a done index lingers in the lease of a
// worker that lost the race for it until that lease is released or
// reaped, which requeues undone indices only.
//
// It also checks the body count: a held job's body is lent, waits on no
// free list, and is held once by the table and once by each grant being
// written. Grants are written outside the lock, so what is read under it
// bounds them by the lease requests in flight (leasesInFlight): with none,
// every held job's count is exactly 1. Safe to call from any goroutine.
func checkLeaseTable(t *testing.T, b *Broker, step string) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	// Read before the counts: no grant is taken while b.mu is held, and a
	// grant's hold is dropped before its request leaves the count.
	inFlight := int64(0)
	if v, ok := leasesInFlight.Load(b); ok {
		inFlight = v.(*atomic.Int64).Load()
	}
	waiting := map[*buffer]bool{}
	freeBodies.Visit(func(bf *buffer) { waiting[bf] = true })
	var writing int64
	for _, j := range b.jobs {
		refs := int64(j.refs.Load())
		if refs < 1 || !j.body.lent || waiting[j.body] {
			t.Errorf("after %s: held job %s counts %d holders of its body (lent %v, waiting %v)",
				step, j.id, refs, j.body.lent, waiting[j.body])
			return
		}
		writing += refs - 1
	}
	if writing > inFlight {
		t.Errorf("after %s: held jobs count %d grants being written, %d lease requests are in flight", step, writing, inFlight)
	}
	for _, j := range b.jobs {
		in := make([]int, len(j.programs))
		done := 0
		for idx, r := range j.results {
			if r.Done {
				in[idx]++
				done++
			}
		}
		for _, idx := range j.queue {
			in[idx]++
		}
		for _, l := range j.leases {
			for _, idx := range l.indices {
				if !j.results[idx].Done {
					in[idx]++
				}
			}
		}
		for idx, n := range in {
			if n != 1 {
				t.Errorf("after %s: %s program %d is in %d of queued/leased/done, want exactly 1", step, j.id, idx, n)
				return
			}
		}
		if done != j.completed {
			t.Errorf("after %s: %s counts %d completed, %d are done", step, j.id, j.completed, done)
		}
	}
}

// TestBrokerForeignLeasePostKeepsLease: a worker releases only the lease
// it holds. A post naming another worker's lease id has its results
// accepted (first result wins) but must leave that lease live — were it
// released, the holder dying would strand its indices outside queue,
// lease table and results, and no expiry would ever requeue them.
func TestBrokerForeignLeasePostKeepsLease(t *testing.T) {
	clk := newFakeClock()
	b, cl := testBroker(t, func(b *Broker) {
		b.LeaseTTL = 30 * time.Second
		b.now = clk.Now
	})
	ack, err := cl.Submit(synthJob("cpu", 3))
	if err != nil {
		t.Fatal(err)
	}
	checkLeaseTable(t, b, "submit")
	a, err := cl.Lease(LeaseRequest{Worker: "a", Target: "cpu", Capacity: 2})
	if err != nil || a == nil || len(a.Indices) != 2 {
		t.Fatalf("a's lease: %+v err=%v", a, err)
	}
	checkLeaseTable(t, b, "a's lease")
	own, err := cl.Lease(LeaseRequest{Worker: "b", Target: "cpu", Capacity: 1})
	if err != nil || own == nil || len(own.Indices) != 1 {
		t.Fatalf("b's lease: %+v err=%v", own, err)
	}
	checkLeaseTable(t, b, "b's lease")

	// b returns its own program under a's lease id.
	clk.Advance(time.Second)
	ra, err := cl.PostResults(ResultPost{Worker: "b", Job: a.Job, Lease: a.Lease,
		Results: []WorkerResult{{Index: own.Indices[0], Noiseless: 1}}})
	if err != nil || ra.Accepted != 1 {
		t.Fatalf("foreign-lease post: %+v err=%v, want the result accepted", ra, err)
	}
	checkLeaseTable(t, b, "foreign-lease post")
	b.mu.Lock()
	holder := b.jobs[ack.ID].leases[a.Lease]
	b.mu.Unlock()
	if holder == nil || holder.worker != "a" {
		t.Fatalf("a's lease after b's post = %+v, want it still held by a", holder)
	}
	m, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range m.Workers {
		if ws.ID == "b" && ws.Completed != 1 {
			t.Errorf("b after the foreign-lease post: %+v, want 1 completed", ws)
		}
	}

	// The same through the lease request that carries results: b names
	// a's lease again (a duplicate result, dropped) and asks for more.
	if g, err := cl.Lease(LeaseRequest{Worker: "b", Target: "cpu", Capacity: 1,
		Done: &ResultPost{Job: a.Job, Lease: a.Lease, Results: []WorkerResult{{Index: own.Indices[0], Noiseless: 1}}}}); err != nil || g != nil {
		t.Fatalf("b's combined request: %+v err=%v, want no work left to grant", g, err)
	}
	checkLeaseTable(t, b, "foreign-lease combined request")
	b.mu.Lock()
	holder = b.jobs[ack.ID].leases[a.Lease]
	b.mu.Unlock()
	if holder == nil || holder.worker != "a" {
		t.Fatalf("a's lease after b's combined request = %+v, want it still held by a", holder)
	}

	// a dies; its slice comes back through expiry and the job finishes.
	clk.Advance(2 * b.LeaseTTL)
	if n := drain(t, cl, "c", "cpu", 4); n != 2 {
		t.Fatalf("replacement worker measured %d, want a's 2 requeued programs", n)
	}
	checkLeaseTable(t, b, "requeue and drain")
	if st, err := poll(cl, ack.ID); err != nil || !st.Done {
		t.Fatalf("job: %+v err=%v", st, err)
	}
}

func TestBrokerAuth(t *testing.T) {
	b := NewBroker()
	b.AuthToken = "s3cret"
	hs := httptest.NewServer(b.Handler())
	defer hs.Close()

	open := NewClient(hs.URL)
	if _, err := open.Submit(synthJob("cpu", 1)); err == nil {
		t.Fatal("tokenless submit should be refused")
	}
	if _, err := open.Lease(LeaseRequest{Worker: "w", Target: "cpu", Capacity: 1}); err == nil {
		t.Fatal("tokenless lease should be refused")
	}
	// Health stays open, like the registry server...
	if err := open.Ping(); err != nil {
		t.Fatalf("healthz should not need a token: %v", err)
	}
	// ...but a job's status carries its results and answering it forgets
	// the job, so even a bare id sits behind the token.
	if _, err := poll(open, "job-1"); err == nil || !strings.Contains(err.Error(), "bearer") {
		t.Fatalf("tokenless job poll should be refused, got %v", err)
	}

	// The token rides in the URL userinfo, shared syntax with -registry-url.
	authed := NewClient("http://:s3cret@" + hs.Listener.Addr().String())
	ack, err := authed.Submit(synthJob("cpu", 1))
	if err != nil {
		t.Fatalf("authed submit: %v", err)
	}
	if n := drain(t, authed, "w", "cpu", 1); n != 1 {
		t.Fatalf("authed drain measured %d, want 1", n)
	}
	if st, err := poll(authed, ack.ID); err != nil || !st.Done {
		t.Fatalf("authed poll: %+v err=%v", st, err)
	}
}

// postJob sends a hand-made submission body.
func postJob(cl *Client, body string) (int, error) {
	code, _, err := cl.do(context.Background(), http.MethodPost, "/v1/jobs", "application/x-ndjson", []byte(body), nil)
	return code, err
}

func TestBrokerRejectsMalformedJobs(t *testing.T) {
	b, cl := testBroker(t, nil)
	dag, _ := json.Marshal(synthDAG)
	for name, body := range map[string]string{
		"no id":       fmt.Sprintf(`{"target":"cpu","dag_bin":%s,"count":1}`+"\n[]\n", dag),
		"no target":   fmt.Sprintf(`{"id":"j","dag_bin":%s,"count":1}`+"\n[]\n", dag),
		"no programs": fmt.Sprintf(`{"id":"j","target":"cpu","dag_bin":%s}`+"\n", dag),
		"no dag":      `{"id":"j","target":"cpu","count":1}` + "\n[]\n",
		// A JSON DAG under the "dag" key is not a wire this broker reads.
		"json dag only": `{"id":"j","target":"cpu","count":1,"dag":` + jsonDAG + "}\n[]\n",
		// The old single-JSON-value submission is not one either.
		"programs in the header": fmt.Sprintf(`{"id":"j","target":"cpu","dag_bin":%s,"programs":[[]]}`+"\n", dag),
	} {
		if code, err := postJob(cl, body); code != http.StatusBadRequest || err == nil {
			t.Errorf("submit with %s: status %d err=%v, want 400", name, code, err)
		}
	}
	assertNoJobs(t, b)
	// Out-of-range result indices must not crash or corrupt a job, alone
	// or on a lease request, which must then grant nothing either.
	if _, err := cl.Submit(synthJob("cpu", 2)); err != nil {
		t.Fatal(err)
	}
	grant, err := cl.Lease(LeaseRequest{Worker: "w", Target: "cpu", Capacity: 1})
	if err != nil || grant == nil {
		t.Fatal("lease failed")
	}
	before := snapJob(b, grant.Job)
	bad := ResultPost{Worker: "w", Job: grant.Job, Lease: grant.Lease,
		Results: []WorkerResult{{Index: 0, Noiseless: 1}, {Index: 7, Noiseless: 1}}}
	if _, err := cl.PostResults(bad); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range result index: err=%v, want the out-of-range refusal", err)
	}
	if g, err := cl.Lease(LeaseRequest{Worker: "w2", Target: "cpu", Capacity: 1, Done: &bad}); g != nil || err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("lease request carrying the bad post: grant %+v err=%v, want the out-of-range refusal and no grant", g, err)
	}
	if after := snapJob(b, grant.Job); !reflect.DeepEqual(before, after) {
		t.Errorf("refused post was half-applied:\nbefore %+v\nafter  %+v", before, after)
	}
	b.mu.Lock()
	_, registered := b.workers["w2"]
	b.mu.Unlock()
	if registered {
		t.Error("a refused lease request registered its worker")
	}
	checkLeaseTable(t, b, "refused posts")
}

// assertNoJobs: refused submissions leave nothing behind.
func assertNoJobs(t *testing.T, b *Broker) {
	t.Helper()
	b.mu.Lock()
	held, submitted := len(b.jobs), b.Obs.Metrics.Counter("jobs_submitted").Value()
	b.mu.Unlock()
	if held != 0 || submitted != 0 {
		t.Errorf("refused submissions left %d jobs held, %d counted", held, submitted)
	}
}

// TestBrokerLeasesExactTargetOnly: a time is only ever used on the
// target that measured it, so an idle worker never drains another
// target's queue — an avx512 board facing an avx2-only queue gets 204,
// however close the two machines are — and a job goes to the worker
// hosting exactly its target, a name this build has no model for
// included. The lease table holds after every request.
func TestBrokerLeasesExactTargetOnly(t *testing.T) {
	b, cl := testBroker(t, nil)
	const custom = "intel-20c-lab7"
	avx2, err := cl.Submit(synthJob("intel-20c-avx2", 2))
	if err != nil {
		t.Fatal(err)
	}
	checkLeaseTable(t, b, "avx2 submit")
	lab, err := cl.Submit(synthJob(custom, 1))
	if err != nil {
		t.Fatal(err)
	}
	checkLeaseTable(t, b, "custom submit")
	for _, other := range []string{"intel-20c-avx512", "arm-cortex-a53", "nvidia-v100"} {
		body, _ := json.Marshal(LeaseRequest{Worker: "idle-" + other, Target: other, Capacity: 4})
		code, raw, err := cl.do(context.Background(), http.MethodPost, "/v1/lease", "application/json", body, nil)
		checkLeaseTable(t, b, other+" lease")
		if err != nil || code != http.StatusNoContent {
			t.Fatalf("%s worker facing avx2 and %s queues: %d %s err=%v, want 204", other, custom, code, raw, err)
		}
	}
	for _, want := range []struct {
		target string
		job    string
		n      int
	}{{"intel-20c-avx2", avx2.ID, 2}, {custom, lab.ID, 1}} {
		g, err := cl.Lease(LeaseRequest{Worker: "native-" + want.target, Target: want.target, Capacity: 4})
		checkLeaseTable(t, b, want.target+" lease")
		if err != nil || g == nil || g.Job != want.job || g.Target != want.target || len(g.Indices) != want.n {
			t.Fatalf("%s worker: grant %+v err=%v, want all %d programs of %s", want.target, g, err, want.n, want.job)
		}
	}
}

// TestOlderPeersAndLogsStillLoad: what an older peer or an older log
// still carries — measured_on and clock on a result, max_distance on a
// lease request, measured_on on a record — decodes with the field
// ignored, and such a log re-saves byte for byte apart from that key.
func TestOlderPeersAndLogsStillLoad(t *testing.T) {
	b, cl := testBroker(t, nil)
	ack, err := cl.Submit(synthJob("intel-20c-avx2", 2))
	if err != nil {
		t.Fatal(err)
	}
	code, raw, err := cl.do(context.Background(), http.MethodPost, "/v1/lease", "application/json",
		[]byte(`{"worker":"old","target":"intel-20c-avx2","capacity":4,"max_distance":2}`), nil)
	checkLeaseTable(t, b, "older lease request")
	if err != nil || code != http.StatusOK {
		t.Fatalf("lease request with max_distance: %d %v", code, err)
	}
	grant, err := decodeGrant(raw, nil)
	if err != nil || grant.Job != ack.ID || len(grant.Indices) != 2 {
		t.Fatalf("grant = %+v err=%v, want both programs of %s", grant, err, ack.ID)
	}
	code, _, err = cl.do(context.Background(), http.MethodPost, "/v1/results", "application/json",
		[]byte(fmt.Sprintf(`{"worker":"old","job":%q,"lease":%d,"results":[`+
			`{"index":0,"noiseless":1,"measured_on":"intel-20c-avx512","clock":"intel-20c-avx512"},`+
			`{"index":1,"noiseless":2}]}`, ack.ID, grant.Lease)), nil)
	checkLeaseTable(t, b, "older result post")
	if err != nil || code != http.StatusOK {
		t.Fatalf("result post with measured_on and clock: %d %v", code, err)
	}
	if st, err := poll(cl, ack.ID); err != nil || !st.Done || st.Results[0].Noiseless != 1 || st.Results[1].Noiseless != 2 {
		t.Errorf("job after the older post: %+v err=%v, want both times accepted", st, err)
	}

	const line = `{"task":"t","target":"intel-20c-avx2","sig":"s","dag":"d","steps":[],` +
		`"seconds":2,"noiseless":1.5,"measured_on":"intel-20c-avx512"}` + "\n"
	l, err := measure.Load(strings.NewReader(line))
	if err != nil || len(l.Records) != 1 {
		t.Fatalf("record line with measured_on: %+v err=%v", l, err)
	}
	var out bytes.Buffer
	if err := l.Save(&out); err != nil {
		t.Fatal(err)
	}
	if want := strings.Replace(line, `,"measured_on":"intel-20c-avx512"`, "", 1); out.String() != want {
		t.Errorf("re-saved log:\n got %q\nwant %q", out.String(), want)
	}
}
