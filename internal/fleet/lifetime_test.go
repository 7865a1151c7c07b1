package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/sim"
)

// The lifetime tests of the fleet's borrowed request memory (DESIGN.md
// "Borrowed memory"): every buffer given back to a list is scribbled
// over, so a grant streamed from a job body that went back, a request
// read after its buffer did, or a status decoded from a reply given away
// sends or reads the scribbles, and the results stop being the in-process
// measurer's.

// poisonLine is what a given-back program list's lines read.
var poisonLine = json.RawMessage(`"poisoned"`)

// bufferLists are the fleet's three lists.
var bufferLists = []buffers{freeBodies, freeRequests, freeReplies}

// poisonBuffers drains the lists and, until the test ends, scribbles over
// every buffer given back: its bytes, lines, queue and results.
func poisonBuffers(t *testing.T) {
	t.Helper()
	hook := func(bf *buffer) {
		fill(bf.b[:cap(bf.b)], '#')
		fill(bf.programs[:cap(bf.programs)], poisonLine)
		fill(bf.queue[:cap(bf.queue)], -1)
		fill(bf.results[:cap(bf.results)], WorkerResult{Index: -1, Noiseless: math.NaN(), Err: "poisoned"})
	}
	for _, l := range bufferLists {
		l.Drain()
		l.SetPoison(hook)
	}
	t.Cleanup(func() {
		for _, l := range bufferLists {
			l.SetPoison(nil)
		}
	})
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// lentBuffers is how many buffers each list has lent.
func lentBuffers() (n [3]int) {
	for k, l := range bufferLists {
		n[k] = l.Lent()
	}
	return n
}

// settleBuffers waits, a second at most, for the lists to lend what they
// lent at base, and checks their books.
func settleBuffers(t *testing.T, base [3]int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); lentBuffers() != base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := lentBuffers(); got != base {
		t.Errorf("bodies, requests and replies lent: %v, %v before", got, base)
	}
	for _, l := range bufferLists {
		if err := l.Check(); err != nil {
			t.Error(err)
		}
	}
}

// checkGrants holds every grant the tap saw to the job it came from: its
// program lines are the submitted lines at its indices, byte for byte.
// An honest fleet's lease requests and results posts are never refused:
// one read from a request given back would be.
func checkGrants(t *testing.T, tap *wireTap) {
	t.Helper()
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if tap.refused != 0 {
		t.Errorf("the broker refused %d lease requests and results posts", tap.refused)
	}
	jobs := map[string][]json.RawMessage{}
	for _, body := range tap.jobs {
		_, lines, err := splitLines(body, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs[readJobHeader(t, body).ID] = lines
	}
	for k, body := range tap.grants {
		g, err := decodeGrant(body, nil)
		if err != nil {
			t.Fatalf("grant %d: %v: %.200q", k, err, body)
		}
		lines, ok := jobs[g.Job]
		if !ok {
			t.Fatalf("grant %d names job %s, which was never submitted", k, g.Job)
		}
		for n, idx := range g.Indices {
			if !bytes.Equal(g.Programs[n], lines[idx]) {
				t.Fatalf("grant %d of job %s sends program %d as %.80q, submitted as %.80q", k, g.Job, idx, g.Programs[n], lines[idx])
			}
		}
	}
	if len(tap.grants) == 0 {
		t.Fatal("the tap saw no grant")
	}
}

// TestPoisonedFleetBuffers: the chaos suite's mixed fleet — real workers
// beside agents that die, straggle past the TTL and post twice — with
// every returned body, request and reply scribbled over. Every grant
// carries the submitted bytes, no request is refused, each batch is bit-identical to the
// in-process measurer of its target, the lease table and body counts
// hold after every request an agent makes, and every buffer comes back.
func TestPoisonedFleetBuffers(t *testing.T) {
	poisonBuffers(t)
	base := lentBuffers()
	machines := []*sim.Machine{sim.IntelXeon(), sim.IntelXeonAVX512()}
	states := sampleStates(t, 32)
	local := make([][]measure.Result, len(machines))
	for k, m := range machines {
		local[k] = measure.New(m, 0.02, 11).MeasureTask("mm", states)
	}
	for _, seed := range []int64{3, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			b := NewBroker()
			b.LeaseTTL, b.MaxFailures = chaosTTL, 0
			tap := &wireTap{}
			url := tap.serve(t, b)
			startWorkers(t, url, machines[0], 2)
			startWorkers(t, url, machines[1], 1, 3)
			startChaosAgent(t, b, url, machines[0], seed)
			startChaosAgent(t, b, url, machines[1], seed+100)
			res := make([][]measure.Result, len(machines))
			errs := make([]error, len(machines))
			var wg sync.WaitGroup
			for k, m := range machines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Three submitters in turn, each with a fresh cache: the
					// later jobs are read into bodies the earlier ones gave back.
					for round := 0; round < 3 && errs[k] == nil; round++ {
						rm := remote(t, url, m, 0.02, 11)
						res[k] = rm.MeasureTask("mm", states)
						if errs[k] = rm.Err(); errs[k] == nil {
							assertBitIdentical(t, fmt.Sprintf("poisoned round %d on %s", round, m.Name), local[k], res[k])
						}
					}
				}()
			}
			wg.Wait()
			checkLeaseTable(t, b, "the batches")
			for k, m := range machines {
				if errs[k] != nil {
					t.Fatalf("latched fleet error on %s: %v", m.Name, errs[k])
				}
			}
			checkGrants(t, tap)
		})
	}
	settleBuffers(t, base)
}

// stallWriter lets a grant's header through and holds the rest of it
// until released: a worker slow to read its grant.
type stallWriter struct {
	*httptest.ResponseRecorder
	writes  int
	stalled chan struct{}
	release chan struct{}
}

func (w *stallWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 2 {
		close(w.stalled)
		<-w.release
	}
	return w.ResponseRecorder.Write(p)
}

// TestPoisonedBodyOutlivesExpiredGrant is the race a body count closes:
// a lease expires while its grant is still being written, another worker
// measures its programs, and the job is answered and forgotten. The grant
// still holds the body: it is neither given back nor lent to the next job
// until the grant is written, and the grant sends the submitted bytes.
func TestPoisonedBodyOutlivesExpiredGrant(t *testing.T) {
	poisonBuffers(t)
	clk := newFakeClock()
	b := NewBroker()
	b.now, b.LeaseTTL = clk.Now, time.Second
	h := b.Handler()
	submit := func(spec JobSpec) {
		t.Helper()
		spec.Count = len(spec.Programs)
		body := joinLines(spec.DAGBin, spec.Programs, func(x []byte) []byte { return appendJob(x, spec) })
		if rec := fuzzPost(h, "/v1/jobs", body); rec.Code != http.StatusOK {
			t.Fatalf("submit %s: %d %s", spec.ID, rec.Code, rec.Body.Bytes())
		}
	}
	leaseBody := func(worker string) []byte {
		body, err := appendLease(nil, LeaseRequest{Worker: worker, Target: "cpu", Capacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	holders := func(j *job) int32 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return j.refs.Load()
	}
	waits := func(bf *buffer) (found bool) {
		freeBodies.Visit(func(w *buffer) { found = found || w == bf })
		return found
	}

	spec := synthJob("cpu", 4)
	submit(spec)
	b.mu.Lock()
	j := b.jobs[spec.ID]
	b.mu.Unlock()
	lent := freeBodies.Lent()

	// Worker a's grant stalls after its header.
	stall := &stallWriter{ResponseRecorder: httptest.NewRecorder(), stalled: make(chan struct{}), release: make(chan struct{})}
	written := make(chan struct{})
	go func() {
		defer close(written)
		h.ServeHTTP(stall, httptest.NewRequest(http.MethodPost, "/v1/lease", bytes.NewReader(leaseBody("a"))))
	}()
	<-stall.stalled
	if n := holders(j); n != 2 {
		t.Fatalf("a held job with a grant being written counts %d holders of its body, want 2", n)
	}

	// The lease expires; worker b is granted the requeued programs and
	// returns them measured; the submitter's attach is answered and the
	// job forgotten.
	clk.Advance(2 * time.Second)
	rec := fuzzPost(h, "/v1/lease", leaseBody("b"))
	g, err := decodeGrant(rec.Body.Bytes(), nil)
	if err != nil || len(g.Indices) != 4 {
		t.Fatalf("worker b's grant: %v, %q", err, rec.Body.Bytes())
	}
	post := ResultPost{Worker: "b", Job: spec.ID, Lease: g.Lease}
	for _, idx := range g.Indices {
		post.Results = append(post.Results, WorkerResult{Index: idx, Noiseless: float64(idx + 1)})
	}
	body, err := appendResults(nil, post)
	if err != nil {
		t.Fatal(err)
	}
	if rec := fuzzPost(h, "/v1/results", body); rec.Code != http.StatusOK {
		t.Fatalf("results: %d %s", rec.Code, rec.Body.Bytes())
	}
	rec = fuzzPost(h, "/v1/jobs", append(appendJob(nil, JobSpec{ID: spec.ID}), '\n'))
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || !st.Done {
		t.Fatalf("attach: %v %s", err, rec.Body.Bytes())
	}
	checkLeaseTable(t, b, "the answer")
	if n := holders(j); n != 1 || waits(j.body) || freeBodies.Lent() != lent {
		t.Fatalf("a forgotten job with a grant being written: %d holders, waiting %v, %d bodies lent (%d before); want 1, false, %d",
			n, waits(j.body), freeBodies.Lent(), lent, lent)
	}

	// The next job borrows other memory.
	next := synthJob("cpu", 4)
	for i := range next.Programs {
		next.Programs[i] = json.RawMessage(fmt.Sprintf(`["q%d"]`, i))
	}
	submit(next)
	b.mu.Lock()
	nj := b.jobs[next.ID]
	b.mu.Unlock()
	if nj.body == j.body {
		t.Fatal("the next job was lent a body a grant is still being written from")
	}

	close(stall.release)
	<-written
	grant, err := decodeGrant(stall.Body.Bytes(), nil)
	if err != nil {
		t.Fatalf("the stalled grant: %v: %q", err, stall.Body.Bytes())
	}
	for k, idx := range grant.Indices {
		if !bytes.Equal(grant.Programs[k], spec.Programs[idx]) {
			t.Errorf("the stalled grant sends program %d as %q, submitted as %q", idx, grant.Programs[k], spec.Programs[idx])
		}
	}
	if n := holders(j); n != 0 || !waits(j.body) || freeBodies.Lent() != lent {
		t.Errorf("after the grant was written: %d holders, waiting %v, %d bodies lent; want 0, true, %d (the next job's)",
			n, waits(j.body), freeBodies.Lent(), lent)
	}
	if !bytes.Contains(j.body.b[:cap(j.body.b)], []byte("###")) {
		t.Error("the body went back without passing the poison hook")
	}
}
