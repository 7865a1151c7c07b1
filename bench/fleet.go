package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anno"
	"repro/internal/fleet"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
)

// Sizing of fleet-batch: the loopback measurement fleet in miniature.
const (
	fleetTask     = "C2D.s1"
	fleetBatch    = 64 // TuningOptions' default round size
	fleetBatches  = 32 // distinct batches, cycled
	fleetWorkers  = 2
	fleetCapacity = 16
	fleetWarmOps  = 250
	fleetNoise    = 0.02
	// fleetToggle is how many consecutive ops a traced run sends to one
	// fleet before switching to the other (observed / unobserved).
	fleetToggle = 50
	// fleetSmallOps sizes the traced run's extra pass at 16 programs.
	fleetSmallOps = 300
)

// fleetRig is one loopback fleet: a broker behind a real HTTP server,
// its workers, and one long-lived RemoteMeasurer with default chunking
// and pipelining.
type fleetRig struct {
	hs     *httptest.Server
	rm     *fleet.RemoteMeasurer
	cl     *fleet.Client
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// requests counts what reached the broker's handler.
	requests atomic.Int64
	// calls counts MeasureTask calls: the measurer numbers its trace IDs
	// with the same counter.
	calls int
}

// newFleetRig starts a fleet for machine; with a sink, broker, workers
// and measurer narrate into it (one shared stream, joined by trace ID).
func newFleetRig(machine *sim.Machine, noiseSeed int64, sink obs.Sink) *fleetRig {
	r := &fleetRig{}
	broker := fleet.NewBroker()
	broker.Obs.Events = sink
	inner := broker.Handler()
	r.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.requests.Add(1)
		inner.ServeHTTP(w, req)
	}))
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	for i := 0; i < fleetWorkers; i++ {
		w := fleet.NewWorker(r.hs.URL, fmt.Sprintf("bench-w%d", i), machine, fleetCapacity)
		w.Obs.Events = sink
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = w.Run(ctx) // ends when ctx is cancelled; a broker failure shows as rm.Err
		}()
	}
	r.rm = fleet.NewRemoteMeasurer(r.hs.URL, machine.Name, fleetNoise, noiseSeed)
	r.rm.Workers = 2
	if sink != nil {
		r.rm.Obs = obs.New(sink, nil)
	}
	r.cl = fleet.NewClient(r.hs.URL)
	return r
}

func (r *fleetRig) close() error {
	r.cancel()
	r.wg.Wait()
	r.hs.Close()
	return r.rm.Err()
}

type fleetInstance struct {
	cfg     *config
	machine *sim.Machine
	dag     *te.DAG
	batches [][]*ir.State
	// want[b][k] is the in-process measurer's Seconds for program k of
	// batch b: what the fleet must return bit for bit.
	want [][]float64
	// plain is the fleet the end-to-end run measures; observed exists in
	// a traced run only.
	plain, observed *fleetRig
	sink            *obs.MemorySink
}

func setupFleetBatch(cfg *config) (instance, error) {
	var dag *te.DAG
	for _, w := range workloads.SingleOps(1) {
		if w.Key == fleetTask {
			dag = w.Build()
		}
	}
	if dag == nil {
		return nil, fmt.Errorf("workload %s not found", fleetTask)
	}
	space := sketch.CPUTarget()
	sks, err := sketch.NewGenerator(space).Generate(dag)
	if err != nil {
		return nil, err
	}
	f := &fleetInstance{cfg: cfg, machine: sim.IntelXeon(), dag: dag}
	noiseSeed := derive(cfg.seed, "fleet-noise", 0)
	// Sample with headroom and keep the programs the in-process measurer
	// accepts, so no op of the workload fails by construction.
	pop := anno.NewSampler(space, derive(cfg.seed, "fleet-sample", 0)).SamplePopulation(sks, fleetBatch*fleetBatches*5/4)
	local := measure.New(f.machine, fleetNoise, noiseSeed)
	local.Workers = 2
	var states []*ir.State
	var secs []float64
	for _, r := range local.MeasureTask(fleetTask, pop) {
		if r.Err == nil && r.Seconds > 0 {
			states = append(states, r.State)
			secs = append(secs, r.Seconds)
		}
	}
	if len(states) < fleetBatch*fleetBatches {
		return nil, fmt.Errorf("only %d of %d sampled programs measure in-process", len(states), len(pop))
	}
	for b := 0; b < fleetBatches; b++ {
		f.batches = append(f.batches, states[b*fleetBatch:(b+1)*fleetBatch])
		f.want = append(f.want, secs[b*fleetBatch:(b+1)*fleetBatch])
	}
	f.plain = newFleetRig(f.machine, noiseSeed, nil)
	rigs := []*fleetRig{f.plain}
	if cfg.traced {
		f.sink = &obs.MemorySink{}
		f.observed = newFleetRig(f.machine, noiseSeed, f.sink)
		rigs = append(rigs, f.observed)
	}
	for _, r := range rigs {
		for i := 0; i < fleetWarmOps; i++ {
			if _, err := f.op(r, i, fleetBatch); err != nil {
				f.close()
				return nil, fmt.Errorf("warm-up op %d: %w", i, err)
			}
		}
	}
	return f, nil
}

func (f *fleetInstance) close() error {
	err := f.plain.close()
	if f.observed != nil {
		if oerr := f.observed.close(); err == nil {
			err = oerr
		}
	}
	return err
}

// op measures the first n programs of batch i (cycled) through rig and
// checks every result against the in-process measurer's.
func (f *fleetInstance) op(rig *fleetRig, i, n int) (time.Duration, error) {
	b := i % fleetBatches
	t0 := time.Now()
	res := rig.rm.MeasureTask(fleetTask, f.batches[b][:n])
	took := time.Since(t0)
	rig.calls++
	if len(res) != n {
		return took, fmt.Errorf("batch %d: %d results for %d programs", b, len(res), n)
	}
	for k, r := range res {
		if r.Err != nil {
			return took, fmt.Errorf("batch %d program %d: %v", b, k, r.Err)
		}
		if r.Seconds != f.want[b][k] {
			return took, fmt.Errorf("batch %d program %d: fleet measured %v, in-process %v", b, k, r.Seconds, f.want[b][k])
		}
	}
	return took, nil
}

// fleetOp is one op of the observed fleet, kept for the trace join.
type fleetOp struct {
	op         int
	trace      string
	start, end time.Time
}

func (o fleetOp) ms() float64 { return float64(o.end.Sub(o.start)) / 1e6 }

func (f *fleetInstance) measure(d time.Duration) *phase {
	ph := &phase{}
	var before fleet.Metrics
	var req0 int64
	var events0 int // events of the warm-up, which the timeline leaves out
	var observedOps []fleetOp
	var plainMS []float64
	if f.observed != nil {
		var err error
		if before, err = f.observed.cl.Metrics(); err != nil {
			ph.failf("broker /metrics: %v", err)
		}
		req0 = f.observed.requests.Load()
		events0 = len(f.sink.Events())
	}
	base := time.Now()
	closedLoop(d, ph, func(i int) (time.Duration, int) {
		rig := f.plain
		if f.observed != nil && (i/fleetToggle)%2 == 0 {
			rig = f.observed
		}
		start := time.Now()
		took, err := f.op(rig, i, fleetBatch)
		if err != nil {
			ph.failf("fleet-batch op %d: %v", i, err)
		} else {
			ph.progSeconds = append(ph.progSeconds, f.want[i%fleetBatches]...)
		}
		if rig == f.observed {
			observedOps = append(observedOps, fleetOp{op: i, start: start, end: start.Add(took),
				trace: fmt.Sprintf("%s@%s#%d", fleetTask, f.machine.Name, rig.calls)})
		} else if f.observed != nil {
			plainMS = append(plainMS, float64(took)/1e6)
		}
		return took, fleetBatch
	})
	if f.observed == nil {
		return ph
	}

	after, err := f.observed.cl.Metrics()
	if err != nil {
		ph.failf("broker /metrics: %v", err)
	}
	n := float64(len(observedOps))
	progs := n * fleetBatch
	events := f.sink.Events()[events0:]
	tr, m := fleetTimeline(base, observedOps, events, fleetWorkers)
	ph.layers = m
	m["fleet.http_requests_per_batch"] = float64(f.observed.requests.Load()-req0) / n
	m["fleet.lease_wakeups_per_batch"] = float64(after.LeaseWakeups-before.LeaseWakeups) / n
	m["fleet.bytes_in_per_prog"] = float64(after.BytesIn-before.BytesIn) / progs
	m["fleet.bytes_out_per_prog"] = float64(after.BytesOut-before.BytesOut) / progs
	m["fleet.lease_expiries"] = float64(after.LeaseExpiries - before.LeaseExpiries)
	m["fleet.duplicate_results"] = float64(after.DuplicateResults - before.DuplicateResults)
	var observedMS []float64
	for _, o := range observedOps {
		observedMS = append(observedMS, o.ms())
	}
	m["fleet.op_ms_p99"] = percentile(observedMS, 99)
	m["obs.events_per_op"] = float64(len(events)) / n
	if len(plainMS) > 0 {
		m["obs.trace_overhead_pct"] = (median(observedMS)/median(plainMS) - 1) * 100
	}

	// The same fleet at 16 programs per batch: one chunk, no pipelining.
	var small []float64
	for i := 0; i < fleetSmallOps; i++ {
		took, err := f.op(f.plain, i, 16)
		if err != nil {
			ph.failf("fleet-batch 16-program op %d: %v", i, err)
		}
		small = append(small, float64(took)/1e6)
	}
	m["fleet.batch16_ms_p50"] = median(small)

	for k, v := range f.probes() {
		m[k] = v
	}
	if len(plainMS) > 0 {
		m["fleet.overhead_x"] = median(plainMS) / m["measure.local_batch64_ms"]
	}
	if err := tr.write(filepath.Join(f.cfg.root, ".bench_build", "spans-fleet-batch.jsonl")); err != nil {
		ph.failf("%v", err)
	}
	return ph
}

// fleetTimeline joins the observed fleet's events into spans and the
// fleet.* timeline metrics. Per batch (trace ID): local_stage (call →
// first batch_queued), inflight (first batch_queued → last
// batch_reported), tail (last reported → return). Per chunk job, whose
// lifetimes overlap within a batch and so do not add up: queue_wait
// (queued → first leased), worker (first leased → last measured),
// collect (last measured → reported).
func fleetTimeline(base time.Time, ops []fleetOp, events []obs.Event, workers int) (*trace, map[string]float64) {
	ns := func(t time.Time) int64 { return int64(t.Sub(base)) }
	type jobTimes struct {
		queued, leased, measured, reported int64
		seen                               [4]bool
	}
	jobsByTrace := map[string][]string{}
	jobs := map[string]*jobTimes{}
	leaseAt := map[string]int64{} // worker/job -> worker_lease time
	var busy int64
	leases := 0
	for _, e := range events {
		ts, err := time.Parse(time.RFC3339Nano, e.TS)
		if err != nil {
			continue
		}
		at := ns(ts)
		switch e.Type {
		case obs.EvWorkerLease:
			leaseAt[e.Worker+"/"+e.Job] = at
			continue
		case obs.EvWorkerResult:
			if t0, ok := leaseAt[e.Worker+"/"+e.Job]; ok {
				busy += at - t0
			}
			continue
		}
		if e.Job == "" {
			continue
		}
		j := jobs[e.Job]
		if j == nil {
			j = &jobTimes{}
			jobs[e.Job] = j
			jobsByTrace[e.Trace] = append(jobsByTrace[e.Trace], e.Job)
		}
		switch e.Type {
		case obs.EvBatchQueued:
			j.queued, j.seen[0] = at, true
		case obs.EvBatchLeased:
			leases++
			if !j.seen[1] {
				j.leased, j.seen[1] = at, true
			}
		case obs.EvBatchMeasured:
			j.measured, j.seen[2] = at, true
		case obs.EvBatchReported:
			j.reported, j.seen[3] = at, true
		}
	}
	tr := &trace{}
	var local, inflight, tail, wait, work, collect []float64
	var wall int64
	msOf := func(a, b int64) float64 {
		if b < a { // the client stamps batch_queued after the submit returns, by when a waiting worker may hold the lease
			return 0
		}
		return float64(b-a) / 1e6
	}
	for _, o := range ops {
		start, end := ns(o.start), ns(o.end)
		wall += end - start
		root := tr.add(-1, o.op, "op", start, end)
		first, last := int64(-1), int64(-1)
		for _, id := range jobsByTrace[o.trace] {
			j := jobs[id]
			if j.seen != [4]bool{true, true, true, true} {
				continue
			}
			if first < 0 || j.queued < first {
				first = j.queued
			}
			if j.reported > last {
				last = j.reported
			}
			chunk := tr.add(root, o.op, "chunk", j.queued, j.reported)
			tr.add(chunk, o.op, "queue_wait", j.queued, j.leased)
			tr.add(chunk, o.op, "worker", j.leased, j.measured)
			tr.add(chunk, o.op, "collect", j.measured, j.reported)
			wait = append(wait, msOf(j.queued, j.leased))
			work = append(work, msOf(j.leased, j.measured))
			collect = append(collect, msOf(j.measured, j.reported))
		}
		if first < 0 {
			continue
		}
		tr.add(root, o.op, "local_stage", start, first)
		tr.add(root, o.op, "tail", last, end)
		local = append(local, msOf(start, first))
		inflight = append(inflight, msOf(first, last))
		tail = append(tail, msOf(last, end))
	}
	m := map[string]float64{
		"fleet.local_stage_ms_p50": median(local),
		"fleet.inflight_ms_p50":    median(inflight),
		"fleet.tail_ms_p50":        median(tail),
		"fleet.queue_wait_ms_p50":  median(wait),
		"fleet.worker_ms_p50":      median(work),
		"fleet.collect_ms_p50":     median(collect),
	}
	if len(local) > 0 {
		m["fleet.leases_per_batch"] = float64(leases) / float64(len(local))
	}
	if wall > 0 {
		m["fleet.worker_busy_share"] = float64(busy) / float64(wall) / float64(workers)
	}
	return tr, m
}

// probes times the layers a fleet batch passes through, directly: the
// machine model, the in-process measurer on the same batches, and the
// wire codecs.
func (f *fleetInstance) probes() map[string]float64 {
	m := map[string]float64{}
	progs := f.batches[0]
	lows := make([]*ir.Lowered, len(progs))
	for i, s := range progs {
		lows[i], _ = ir.Lower(s) // every program of a batch lowered in set-up
	}
	ns, _, _ := timed(20*len(lows), func(i int) { f.machine.Time(lows[i%len(lows)]) })
	m["sim.time_us"] = ns / 1e3
	var batchMS []float64
	for i := 0; i < 3*fleetBatches; i++ {
		ms := measure.New(f.machine, fleetNoise, 1)
		ms.Workers = 2
		t0 := time.Now()
		ms.MeasureTask(fleetTask, f.batches[i%fleetBatches])
		batchMS = append(batchMS, float64(time.Since(t0))/1e6)
	}
	m["measure.local_batch64_ms"] = median(batchMS)
	var wire []byte
	ns, _, _ = timed(200, func(int) { wire, _ = te.EncodeDAGBinary(f.dag) })
	m["te.encode_dag_us"], m["te.dag_wire_bytes"] = ns/1e3, float64(len(wire))
	ns, _, _ = timed(200, func(int) { _, _ = te.DecodeDAGAuto(wire) })
	m["te.decode_dag_us"] = ns / 1e3
	ns, _, _ = timed(20*len(progs), func(i int) { _, _ = ir.EncodeSteps(progs[i%len(progs)].Steps) })
	m["ir.encode_steps_us"] = ns / 1e3
	return m
}
