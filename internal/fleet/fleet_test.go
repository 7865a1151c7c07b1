package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
)

// sampleStates draws n distinct, complete, measurable programs of one
// matmul task — the same sketch+annotation pipeline the search uses.
func sampleStates(t *testing.T, n int) []*ir.State {
	t.Helper()
	b := te.NewBuilder("mm")
	a := b.Input("A", 64, 64)
	b.Matmul(a, 64, true)
	d := b.MustFinish()
	gen := sketch.NewGenerator(sketch.CPUTarget())
	sks, err := gen.Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	states := anno.NewSampler(sketch.CPUTarget(), 7).SamplePopulation(sks, n)
	if len(states) < n/2 {
		t.Fatalf("sampled only %d states", len(states))
	}
	return states
}

// startWorkers runs real workers against the broker until test cleanup.
func startWorkers(t *testing.T, brokerURL string, machine *sim.Machine, capacities ...int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i, capy := range capacities {
		w := NewWorker(brokerURL, machine.Name+"-w"+string(rune('a'+i)), machine, capy)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

func startBroker(t *testing.T, mutate func(*Broker)) string {
	t.Helper()
	b := NewBroker()
	if mutate != nil {
		mutate(b)
	}
	hs := httptest.NewServer(b.Handler())
	t.Cleanup(hs.Close)
	return hs.URL
}

func remote(t *testing.T, url string, machine *sim.Machine, noise float64, seed int64) *RemoteMeasurer {
	t.Helper()
	rm := NewRemoteMeasurer(url, machine.Name, noise, seed)
	rm.Timeout = 30 * time.Second
	return rm
}

// assertBitIdentical compares two result slices field by field; float
// comparison is ==, i.e. bitwise for the same computation.
func assertBitIdentical(t *testing.T, tag string, local, fleet []measure.Result) {
	t.Helper()
	if len(local) != len(fleet) {
		t.Fatalf("%s: %d vs %d results", tag, len(local), len(fleet))
	}
	for i := range local {
		l, f := local[i], fleet[i]
		if (l.Err == nil) != (f.Err == nil) {
			t.Fatalf("%s[%d]: err mismatch: local=%v fleet=%v", tag, i, l.Err, f.Err)
		}
		if l.Seconds != f.Seconds || l.NoiselessSeconds != f.NoiselessSeconds {
			t.Fatalf("%s[%d]: times diverge: local=(%v,%v) fleet=(%v,%v)",
				tag, i, l.Seconds, l.NoiselessSeconds, f.Seconds, f.NoiselessSeconds)
		}
		if l.State != f.State {
			t.Fatalf("%s[%d]: out[i] must correspond to states[i]", tag, i)
		}
	}
}

// startPoisoningWorker runs a raw-protocol worker until test cleanup that
// measures honestly, except that it reports an error for the program whose
// step bytes are poison.
func startPoisoningWorker(t *testing.T, url string, poison []byte) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := NewClient(url)
		var done *ResultPost
		for ctx.Err() == nil {
			g, err := cl.LeaseContext(ctx, LeaseRequest{Worker: "poisoner", Target: sim.IntelXeon().Name,
				Capacity: 3, WaitMS: 50, Done: done})
			done = nil
			if err != nil || g == nil {
				continue
			}
			done = &ResultPost{Job: g.Job, Lease: g.Lease, Results: chaosResults(sim.IntelXeon(), g)}
			for k := range done.Results {
				if bytes.Equal(g.Programs[k], poison) {
					done.Results[k] = WorkerResult{Index: g.Indices[k], Err: "poisoned"}
				}
			}
		}
	}()
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

func TestRemoteMeasurerBitIdenticalToLocal(t *testing.T) {
	machine := sim.IntelXeon()
	states := sampleStates(t, 24)
	local := measure.New(machine, 0.02, 3).MeasureTask("mm", states)

	// One worker.
	url1 := startBroker(t, nil)
	startWorkers(t, url1, machine, 4)
	rm1 := remote(t, url1, machine, 0.02, 3)
	assertBitIdentical(t, "1-worker", local, rm1.MeasureTask("mm", states))
	if rm1.Trials() != len(states) {
		t.Errorf("1-worker trials = %d, want %d", rm1.Trials(), len(states))
	}
	if err := rm1.Err(); err != nil {
		t.Errorf("1-worker latched error: %v", err)
	}

	// Three workers, mixed capacities: sharding and assignment must be
	// invisible in the output.
	url3 := startBroker(t, nil)
	startWorkers(t, url3, machine, 1, 2, 4)
	rm3 := remote(t, url3, machine, 0.02, 3)
	rm3.Workers = 3
	assertBitIdentical(t, "3-worker", local, rm3.MeasureTask("mm", states))

	// A worker fleet for a different target must never serve this batch;
	// with only an incompatible worker alive the batch times out.
	urlBad := startBroker(t, nil)
	startWorkers(t, urlBad, sim.NVIDIAV100(), 4)
	rmBad := remote(t, urlBad, machine, 0.02, 3)
	rmBad.Timeout = 300 * time.Millisecond
	res := rmBad.MeasureTask("mm", states[:2])
	if res[0].Err == nil || rmBad.Err() == nil {
		t.Error("batch against an incompatible-only fleet should fail and latch")
	}
	// One batch of everything the seam tells apart — a program that fails
	// to lower, one served from the resume cache, fresh ones, the same
	// program twice, one a worker reports an error for — under a recorder,
	// through both backends: the seam filled in process, lowering each
	// program itself, and a loopback fleet, whose worker fails the same
	// program. The submitter lowers nothing, so the program that does not
	// lower is the backend's error either way. What comes back, the trial
	// count and the bytes of the record log are equal, and the noise and the
	// records are what the measurer alone makes of a noiseless time.
	bad := ir.NewState(states[0].DAG)
	bad.MustApply(&ir.MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS"})
	served, poisoned := states[0], states[7]
	batch := append([]*ir.State{bad, served}, states[1:8]...)
	batch = append(batch, states[1])
	var history measure.Log
	if _, err := history.AddAll("mm", machine.Name, local[:1]); err != nil {
		t.Fatal(err)
	}
	poison, err := ir.EncodeSteps(poisoned.Steps)
	if err != nil {
		t.Fatal(err)
	}
	urlMixed := startBroker(t, nil)
	startPoisoningWorker(t, urlMixed, poison)
	type outcome struct {
		res    []measure.Result
		trials int
		log    string
	}
	run := func(ms *measure.Measurer, workers int) outcome {
		var log bytes.Buffer
		ms.Workers, ms.Recorder, ms.Cache = workers, measure.NewRecorder(&log), measure.NewMeasuredSet()
		ms.Cache.AddLog(&history)
		res := ms.MeasureTask("mm", batch)
		return outcome{res, ms.Trials(), log.String()}
	}
	lowerErr := func(err error) bool { return err != nil && strings.Contains(err.Error(), "lower:") }
	for _, workers := range []int{1, 8} {
		inProcess := measure.New(machine, 0.02, 3)
		inProcess.Backend = func(_ string, out []measure.Result, fresh []int) {
			for _, i := range fresh {
				low, err := ir.LowerBorrowed(out[i].State)
				switch {
				case err != nil:
					out[i].Err = fmt.Errorf("lower: %w", err)
					continue
				case out[i].State == poisoned:
					out[i].Err = errors.New("poisoned")
				default:
					out[i].NoiselessSeconds = machine.Time(low)
				}
				low.Release()
			}
		}
		want := run(inProcess, workers)
		rm := remote(t, urlMixed, machine, 0.02, 3)
		got := run(rm.Measurer, workers)
		assertBitIdentical(t, "mixed", want.res, got.res)
		if got.trials != want.trials || want.trials != len(batch)-1 {
			t.Errorf("workers=%d: trials = %d on the fleet, %d in process, want %d (all but the cache-served)", workers, got.trials, want.trials, len(batch)-1)
		}
		if got.log != want.log || strings.Count(want.log, "\n") != 6 {
			t.Errorf("workers=%d: record logs differ, or hold other than the 6 fresh successes:\nfleet:\n%s\nin process:\n%s", workers, got.log, want.log)
		}
		for i, r := range got.res {
			w := want.res[i]
			if r.Cached != w.Cached || r.Cached != (r.State == served) || !bytes.Equal(r.EncSteps, w.EncSteps) {
				t.Errorf("workers=%d result %d: cached %v/%v, steps %q/%q", workers, i, r.Cached, w.Cached, r.EncSteps, w.EncSteps)
			}
			if (r.Err != nil) != (r.State == bad || r.State == poisoned) {
				t.Errorf("workers=%d result %d: err = %v", workers, i, r.Err)
			}
			if r.State == bad && (!lowerErr(r.Err) || !lowerErr(w.Err)) {
				t.Errorf("workers=%d result %d: errors %v / %v, want the backend's lowering error", workers, i, r.Err, w.Err)
			}
			if r.Err == nil && r.Seconds != r.NoiselessSeconds*measure.NoiseFactor(3, 0.02, r.State.Signature()) {
				t.Errorf("workers=%d result %d: %v s is not the (seed, signature) noise over %v s", workers, i, r.Seconds, r.NoiselessSeconds)
			}
		}
		if err := rm.Err(); err != nil {
			t.Errorf("workers=%d: a worker's program error latched as a broker failure: %v", workers, err)
		}
	}
}

func TestRemoteMeasurerKillWorkerMidBatchRequeues(t *testing.T) {
	machine := sim.IntelXeon()
	states := sampleStates(t, 12)
	local := measure.New(machine, 0.02, 5).MeasureTask("mm", states)

	url := startBroker(t, func(b *Broker) { b.LeaseTTL = 80 * time.Millisecond })
	cl := NewClient(url)

	rm := remote(t, url, machine, 0.02, 5)
	done := make(chan []measure.Result, 1)
	go func() { done <- rm.MeasureTask("mm", states) }()

	// A zombie worker grabs the first slice and dies with it: keep
	// polling until the job exists and a grant lands.
	var grabbed *LeaseGrant
	for deadline := time.Now().Add(5 * time.Second); grabbed == nil; {
		g, err := cl.Lease(LeaseRequest{Worker: "zombie", Target: machine.Name, Capacity: 3})
		if err != nil {
			t.Fatalf("zombie lease: %v", err)
		}
		if g != nil {
			grabbed = g
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never became leasable")
		}
		time.Sleep(time.Millisecond)
	}
	// Only now start the real worker: the zombie's slice must expire and
	// requeue onto it.
	startWorkers(t, url, machine, 4)

	fleetRes := <-done
	assertBitIdentical(t, "requeued", local, fleetRes)
	m, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.LeaseExpiries < 1 {
		t.Errorf("lease expiries = %d, want >= 1 (the zombie's slice)", m.LeaseExpiries)
	}
}

func TestRemoteMeasurerServesCacheWithoutFleet(t *testing.T) {
	machine := sim.IntelXeon()
	states := sampleStates(t, 8)
	local := measure.New(machine, 0.02, 9)
	localRes := local.MeasureTask("mm", states)
	log := measure.Log{}
	if _, err := log.AddAll("mm", machine.Name, localRes); err != nil {
		t.Fatal(err)
	}
	cache := measure.NewMeasuredSet()
	cache.AddLog(&log)

	// No worker is started: every program must be served from the cache
	// without a single fleet round trip.
	url := startBroker(t, nil)
	rm := remote(t, url, machine, 0.02, 9)
	rm.Timeout = 2 * time.Second
	rm.Cache = cache
	res := rm.MeasureTask("mm", states)
	assertBitIdentical(t, "cached", localRes, res)
	for i, r := range res {
		if !r.Cached {
			t.Fatalf("result %d not served from cache", i)
		}
	}
	if rm.Trials() != 0 {
		t.Errorf("cache-served batch cost %d trials, want 0", rm.Trials())
	}
}

func TestRemoteMeasurerRecordsFreshMeasurements(t *testing.T) {
	machine := sim.IntelXeon()
	states := sampleStates(t, 6)
	url := startBroker(t, nil)
	startWorkers(t, url, machine, 2)
	rm := remote(t, url, machine, 0.02, 3)
	var sink bytes.Buffer
	rm.Recorder = measure.NewRecorder(&sink)
	res := rm.MeasureTask("mm", states)
	ok := 0
	for _, r := range res {
		if r.Err == nil && r.Seconds > 0 {
			ok++
		}
	}
	log, err := measure.Load(&sink)
	if err != nil {
		t.Fatal(err)
	}
	got := log.Records
	if len(got) == 0 || len(got) > ok {
		t.Fatalf("recorded %d records for %d successes", len(got), ok)
	}
	for _, r := range got {
		if r.Target != machine.Name || r.Task != "mm" || r.Noiseless <= 0 {
			t.Fatalf("bad record %+v", r)
		}
	}
	// The record carries the encoding the local stage made for the job.
	shipped := 0
	for _, g := range got {
		for _, r := range res {
			if bytes.Equal(r.EncSteps, g.Steps) {
				shipped++
				break
			}
		}
	}
	if shipped != len(got) {
		t.Errorf("%d of %d records carry the steps a measured result shipped, want all", shipped, len(got))
	}
}

func TestRemoteMeasurerBrokerDownLatches(t *testing.T) {
	machine := sim.IntelXeon()
	states := sampleStates(t, 4)
	rm := NewRemoteMeasurer("http://127.0.0.1:1", machine.Name, 0.02, 1)
	rm.Timeout = time.Second
	res := rm.MeasureTask("mm", states)
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("result %d should carry the broker failure", i)
		}
	}
	if err := rm.Err(); err == nil || !strings.Contains(err.Error(), "fleet") {
		t.Fatalf("latched error = %v, want a fleet error", err)
	}
}

func TestWorkerRunExitsOnQuarantine(t *testing.T) {
	machine := sim.IntelXeon()
	url := startBroker(t, func(b *Broker) {
		b.LeaseTTL = 10 * time.Millisecond
		b.MaxFailures = 1
	})
	cl := NewClient(url)
	if _, err := cl.Submit(synthJob(machine.Name, 2)); err != nil {
		t.Fatal(err)
	}
	// Quarantine the id by taking a lease under it and letting it rot.
	if g, err := cl.Lease(LeaseRequest{Worker: "w-sick", Target: machine.Name, Capacity: 1}); err != nil || g == nil {
		t.Fatalf("setup lease: %+v err=%v", g, err)
	}
	time.Sleep(30 * time.Millisecond)
	if _, err := cl.Metrics(); err != nil { // trigger the reap
		t.Fatal(err)
	}
	w := NewWorker(url, "w-sick", machine, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Run(ctx); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("Run = %v, want quarantine exit", err)
	}
}

// TestWorkerFailsGrantForOtherTarget: a worker handed a grant for a
// target other than the one it hosts (no broker of this tree sends one:
// the avx2 worker here is re-registered under avx512 on the way in)
// fails the slice's programs, as it fails a bad DAG, and never times
// them on its own machine. Program errors return the lease, so nothing
// expires and nothing counts toward quarantine.
func TestWorkerFailsGrantForOtherTarget(t *testing.T) {
	other := sim.IntelXeonAVX512().Name
	b := NewBroker()
	b.MaxFailures = 1
	inner := b.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if r.URL.Path == "/v1/lease" && json.NewDecoder(r.Body).Decode(&req) == nil {
			req.Target = other
			body, _ := json.Marshal(req)
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	startWorkers(t, hs.URL, sim.IntelXeon(), 2)
	cl := NewClient(hs.URL)
	spec := binJob(t, other, sampleStates(t, 3))
	spec.WaitMS = 5000
	st, err := cl.Submit(spec)
	if err != nil || !st.Done {
		t.Fatalf("job for %s: %+v err=%v, want it answered", other, st, err)
	}
	for i, ur := range st.Results {
		if !strings.Contains(ur.Err, other) || ur.Noiseless != 0 {
			t.Errorf("result %d = %+v, want an error naming %s and no time", i, ur, other)
		}
	}
	m, err := cl.Metrics()
	if err != nil || m.LeaseExpiries != 0 || m.Quarantined != 0 || len(m.Workers) != 1 || m.Workers[0].Failures != 0 {
		t.Errorf("metrics %+v err=%v, want one worker with no failure charged", m, err)
	}
}

// TestWorkerMeasurementMatchesMeasurer pins the worker's replay → lower
// → time path to the in-process measurer on the wire-codec'd DAG.
func TestWorkerMeasurementMatchesMeasurer(t *testing.T) {
	machine := sim.IntelXeonAVX512()
	states := sampleStates(t, 6)
	encDAG, err := te.EncodeDAGBinary(states[0].DAG)
	if err != nil {
		t.Fatal(err)
	}
	dag, err := te.DecodeDAGBinary(encDAG)
	if err != nil {
		t.Fatal(err)
	}
	ms := measure.New(machine, 0, 1)
	for i, s := range states {
		enc, err := ir.EncodeSteps(s.Steps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NoiselessTime(machine, dag, enc)
		if err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		want := ms.Measure([]*ir.State{s})[0].NoiselessSeconds
		if got != want {
			t.Fatalf("state %d: worker time %v != measurer time %v", i, got, want)
		}
	}
}

// batchFleet is a warm loopback fleet for 64-program batches: a broker
// behind a real HTTP server that counts requests and new connections,
// two capacity-16 workers and one measurer, which has measured the batch
// three times, bit-identically to the in-process measurer, so every
// client has dialled and both workers are waiting.
type batchFleet struct {
	rm              *RemoteMeasurer
	states          []*ir.State
	local           []measure.Result
	requests, dials atomic.Int64
}

func newBatchFleet(t *testing.T) *batchFleet {
	t.Helper()
	f := &batchFleet{}
	machine := sim.IntelXeon()
	f.states = sampleStates(t, 64)
	if len(f.states) != 64 {
		t.Fatalf("sampled %d of 64 programs", len(f.states))
	}
	f.local = measure.New(machine, 0.02, 3).MeasureTask("mm", f.states)
	inner := NewBroker().Handler()
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.requests.Add(1)
		inner.ServeHTTP(w, r)
	}))
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			f.dials.Add(1)
		}
	}
	hs.Start()
	t.Cleanup(hs.Close)
	startWorkers(t, hs.URL, machine, 16, 16)
	f.rm = remote(t, hs.URL, machine, 0.02, 3)
	for i := 0; i < 3; i++ {
		assertBitIdentical(t, "warm-up", f.local, f.rm.MeasureTask("mm", f.states))
	}
	return f
}

// TestFleetBatchRequestBudget pins what a batch costs on the wire once
// the fleet is warm: a 64-program batch through two capacity-16 workers
// is one held-open submission and four lease requests, each returning
// the lease before it — at most 6 requests — on connections that were
// opened once and are kept alive, none new in 50 batches.
func TestFleetBatchRequestBudget(t *testing.T) {
	f := newBatchFleet(t)
	const batches = 50
	r0, d0 := f.requests.Load(), f.dials.Load()
	for i := 0; i < batches; i++ {
		res := f.rm.MeasureTask("mm", f.states)
		if i == batches-1 {
			assertBitIdentical(t, "budgeted", f.local, res)
		}
	}
	if err := f.rm.Err(); err != nil {
		t.Fatal(err)
	}
	if per := float64(f.requests.Load()-r0) / batches; per > 6 {
		t.Errorf("%.2f requests per batch, want <= 6", per)
	}
	if n := f.dials.Load() - d0; n != 0 {
		t.Errorf("%d new connections over %d batches, want every request on a kept-alive one", n, batches)
	}
}

// bytesPerProgramCeiling is TestFleetBatchBytesPerProgram's bound: the
// 1 985 bytes measured (go1.24, linux/amd64) and a margin of about 10 %,
// less than one more exact-size copy of a program's step bytes (430 on
// average here). A program cost 4 650 before the job body was written in
// place and grants streamed, and 3 150 before the broker's and the
// status's buffers were borrowed and cache-write stages carved from the
// worker's arena.
const bytesPerProgramCeiling = 2200

// TestFleetBatchBytesPerProgram pins what a program costs the heap on
// its way through a warm fleet — measurer, broker and both workers, all
// in this process — in bytes allocated over 50 batches of 64 programs.
// A program's step bytes are written once, into the job's body, which
// the broker reads once, into borrowed memory, and streams out in grants;
// a further copy of them anywhere on the way, or a request buffer no
// longer reused, breaks the ceiling.
func TestFleetBatchBytesPerProgram(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	f := newBatchFleet(t)
	const batches = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		f.rm.MeasureTask("mm", f.states)
	}
	runtime.ReadMemStats(&after)
	if err := f.rm.Err(); err != nil {
		t.Fatal(err)
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / (batches * 64)
	t.Logf("%.0f bytes allocated per program", per)
	if per > bytesPerProgramCeiling {
		t.Errorf("%.0f bytes allocated per program, ceiling %d", per, bytesPerProgramCeiling)
	}
}

// TestRemoteMeasurerSurvivesBrokerRestart: the broker loses everything
// mid-batch. The measurer's held submission breaks, its re-attach finds
// the id unknown, and it sends the batch again under the same id; the
// results are those of an undisturbed run.
func TestRemoteMeasurerSurvivesBrokerRestart(t *testing.T) {
	machine := sim.IntelXeon()
	states := sampleStates(t, 12)
	local := measure.New(machine, 0.02, 5).MeasureTask("mm", states)

	first, second := NewBroker(), NewBroker()
	var current atomic.Pointer[Broker]
	current.Store(first)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)

	rm := remote(t, hs.URL, machine, 0.02, 5)
	done := make(chan []measure.Result, 1)
	go func() { done <- rm.MeasureTask("mm", states) }()
	// No worker yet: the job sits in the first broker, its submitter waiting.
	held := func(b *Broker) (id string) {
		b.mu.Lock()
		defer b.mu.Unlock()
		for id = range b.jobs {
		}
		return id
	}
	var id string
	for deadline := time.Now().Add(5 * time.Second); id == ""; id = held(first) {
		if time.Now().After(deadline) {
			t.Fatal("the job never reached the broker")
		}
		time.Sleep(time.Millisecond)
	}
	// The restart: a broker with no memory takes over and every open
	// connection drops.
	current.Store(second)
	hs.CloseClientConnections()
	startWorkers(t, hs.URL, machine, 4)

	assertBitIdentical(t, "restarted", local, <-done)
	if err := rm.Err(); err != nil {
		t.Fatalf("latched error after a broker restart: %v", err)
	}
	m, err := NewClient(hs.URL).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsSubmitted != 1 || m.JobsCompleted != 1 || m.Jobs != 0 {
		t.Errorf("second broker: %d submitted, %d completed, %d held; want the one batch, resubmitted once, answered and forgotten",
			m.JobsSubmitted, m.JobsCompleted, m.Jobs)
	}
	second.mu.Lock()
	_, sameID := second.jobs[id]
	second.mu.Unlock()
	if got := held(first); got != id || sameID {
		t.Errorf("first broker holds %q, want the abandoned %q; second still holds it: %v", got, id, sameID)
	}
}
