package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/te"
)

// chaos_test.go is the deterministic fleet chaos suite: seeded fault
// agents inject worker death, lease expiry, straggler (late) posts and
// duplicate posts into a live mixed avx2/avx512 fleet with near-sibling
// dispatch enabled, and every run must produce output bit-identical to
// an in-process measurement — the package's determinism contract says
// lease slicing, assignment, faults and dispatch distance are invisible
// in results. After every request an agent makes, the broker's
// lease-table invariant (checkLeaseTable) must hold. The suite runs
// under CI's fleet -race gate.

// chaosTTL is the chaos brokers' lease TTL: short enough that a test
// recovers abandoned slices quickly, long enough that healthy posts
// comfortably beat it.
const chaosTTL = 60 * time.Millisecond

// chaosResults honestly measures a grant the way a real worker would:
// on the job target's own machine model (sibling grants included). A nil
// return means the agent could not measure (undecodable grant) and must
// abandon the lease — the broker requeues it for a healthy worker.
func chaosResults(g *LeaseGrant) []WorkerResult {
	m, ok := sim.ByName(g.Target)
	if !ok {
		return nil
	}
	dag, err := te.DecodeDAGBinary(g.DAGBin)
	if err != nil {
		return nil
	}
	var out []WorkerResult
	for k, idx := range g.Indices {
		sec, err := NoiselessTime(m, dag, g.Programs[k])
		if err != nil {
			out = append(out, WorkerResult{Index: idx, Err: err.Error()})
			continue
		}
		out = append(out, WorkerResult{Index: idx, Noiseless: sec})
	}
	return out
}

// startChaosAgent runs one seeded fault agent until test cleanup: it
// leases like a sibling-dispatch worker for host, then rolls one of
// {die, straggle, duplicate, behave} per lease. Dying abandons the
// slice (lease expiry + requeue); straggling holds it past the TTL and
// posts anyway (late/duplicate-result path); duplicating posts the same
// results twice, the second time aboard its next lease request; behaving
// is an ordinary worker, whose results ride on its next lease request.
// All posted results are honestly measured, so whichever post lands
// first is correct — the determinism contract under fire.
func startChaosAgent(t *testing.T, b *Broker, url string, host *sim.Machine, seed int64) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		cl := NewClient(url)
		id := fmt.Sprintf("chaos-%s-%d", host.Name, seed)
		var done *ResultPost // what the next lease request returns
		for ctx.Err() == nil {
			g, err := cl.Lease(LeaseRequest{Worker: id, Target: host.Name, Capacity: 2, MaxDistance: 1, Done: done})
			checkLeaseTable(t, b, id+" lease")
			done = nil
			if err != nil || g == nil {
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Millisecond):
				}
				continue
			}
			fault := rng.Intn(4)
			if fault == 0 {
				continue // die: never post, the slice must requeue
			}
			results := chaosResults(g)
			if results == nil {
				continue
			}
			if fault == 1 {
				// Straggle past the TTL; the post races a requeued slice.
				select {
				case <-ctx.Done():
					return
				case <-time.After(2 * chaosTTL):
				}
			}
			post := ResultPost{Worker: id, Job: g.Job, Lease: g.Lease, Results: results}
			if fault != 3 {
				_, _ = cl.PostResults(post)
				checkLeaseTable(t, b, id+" post")
			}
			if fault != 1 {
				done = &post // fault 2: a duplicate, which must be dropped
			}
		}
	}()
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// TestFleetChaosBitIdentical: a mixed avx2/avx512 fleet with sibling
// dispatch on, three chaos agents rolling faults from a fixed seed, and
// a short lease TTL. At every seed the measured batch is bit-identical
// to the in-process measurer and nothing leaks a training-only flag.
func TestFleetChaosBitIdentical(t *testing.T) {
	machine := sim.IntelXeon()
	states := sampleStates(t, 32)
	local := measure.New(machine, 0.02, 11).MeasureTask("mm", states)

	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			b, bcl := testBroker(t, func(b *Broker) {
				b.LeaseTTL = chaosTTL
				b.MaxFailures = 0 // chaos agents die constantly; never quarantine
			})
			url := bcl.base
			startWorkers(t, url, sim.IntelXeon(), 2)          // native
			startWorkers(t, url, sim.IntelXeonAVX512(), 1, 3) // siblings (MaxDistance 1 default)
			startChaosAgent(t, b, url, sim.IntelXeon(), seed) // native-side faults
			startChaosAgent(t, b, url, sim.IntelXeonAVX512(), seed+100)
			startChaosAgent(t, b, url, sim.IntelXeonAVX512(), seed+200)

			rm := remote(t, url, machine, 0.02, 11)
			res := rm.MeasureTask("mm", states)
			checkLeaseTable(t, b, "the batch")
			assertBitIdentical(t, "chaos", local, res)
			for i, r := range res {
				if r.TrainOnly || r.TrainWeight != 0 {
					t.Fatalf("result %d leaked training-only flags (%v/%v): sim-resolved sibling measurement is full-fidelity", i, r.TrainOnly, r.TrainWeight)
				}
			}
			if err := rm.Err(); err != nil {
				t.Fatalf("latched fleet error under chaos: %v", err)
			}
		})
	}
}

// TestSiblingOnlyFleetBitIdentical: the task's target hosts NO worker at
// all — only avx512 boards are alive — yet the avx2 batch drains
// bit-identically to a local run, because sibling grants are timed on
// the job target's own model. measured_on records the provenance.
func TestSiblingOnlyFleetBitIdentical(t *testing.T) {
	machine := sim.IntelXeon()
	sibling := sim.IntelXeonAVX512()
	states := sampleStates(t, 16)
	local := measure.New(machine, 0.02, 13).MeasureTask("mm", states)

	url := startBroker(t, nil)
	startWorkers(t, url, sibling, 2, 3)
	rm := remote(t, url, machine, 0.02, 13)
	res := rm.MeasureTask("mm", states)
	assertBitIdentical(t, "sibling-only", local, res)
	for i, r := range res {
		if r.Err != nil {
			continue
		}
		if r.TrainOnly {
			t.Fatalf("result %d training-only: sibling emulation must be full-fidelity", i)
		}
		if r.MeasuredOn != sibling.Name {
			t.Fatalf("result %d measured_on = %q, want provenance %q", i, r.MeasuredOn, sibling.Name)
		}
	}
	cl := NewClient(url)
	m, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.SiblingLeases == 0 || m.SiblingPrograms == 0 {
		t.Errorf("sibling counters = %d/%d, want > 0", m.SiblingLeases, m.SiblingPrograms)
	}
}

// startForeignClockWorker runs a raw-protocol sibling worker whose build
// "does not know" the job's target: it measures on its own hosted model
// and tags both measured_on and clock, forcing the client's calibration
// path. (Real workers only do this for machine models missing from
// their binary; the test fakes that condition to pin the client.)
func startForeignClockWorker(t *testing.T, url string, host *sim.Machine) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := NewClient(url)
		for ctx.Err() == nil {
			g, err := cl.Lease(LeaseRequest{Worker: "foreign-" + host.Name, Target: host.Name, Capacity: 4, MaxDistance: 1})
			if err != nil || g == nil {
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Millisecond):
				}
				continue
			}
			dag, err := te.DecodeDAGBinary(g.DAGBin)
			if err != nil {
				continue
			}
			post := ResultPost{Worker: "foreign-" + host.Name, Job: g.Job, Lease: g.Lease}
			for k, idx := range g.Indices {
				sec, err := NoiselessTime(host, dag, g.Programs[k]) // own model, own clock
				wr := WorkerResult{Index: idx, Noiseless: sec, MeasuredOn: host.Name, Clock: host.Name}
				if err != nil {
					wr = WorkerResult{Index: idx, Err: err.Error()}
				}
				post.Results = append(post.Results, wr)
			}
			_, _ = cl.PostResults(post)
		}
	}()
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// TestForeignClockResultsCalibratedTrainingOnly pins the client's
// handling of foreign-clock sibling times: uncalibrated they keep the
// raw sibling seconds at the doubly-discounted training weight; with a
// calibration (the pooled /v1/calibration answer) the seconds are
// scaled and only the sibling discount remains. Either way the result
// is training-only, skips the noise model, and is never recorded.
func TestForeignClockResultsCalibratedTrainingOnly(t *testing.T) {
	machine := sim.IntelXeon()
	sibling := sim.IntelXeonAVX512()
	states := sampleStates(t, 6)
	// What the sibling's own clock reads for these programs.
	sibTimes := measure.New(sibling, 0, 1).MeasureTask("mm", states)

	run := func(cal *measure.Calibration) []measure.Result {
		url := startBroker(t, nil)
		startForeignClockWorker(t, url, sibling)
		rm := remote(t, url, machine, 0.02, 17)
		rm.Calibration = cal
		rec := measure.NewRecorder(nil)
		rm.Recorder = rec
		res := rm.MeasureTask("mm", states)
		if n := len(rec.Log().Records); n != 0 {
			t.Fatalf("%d foreign-clock results were recorded; they must never enter the log", n)
		}
		return res
	}

	uncal := run(nil)
	wantW := measure.WeightSibling * measure.UncalibratedFactor
	for i, r := range uncal {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if !r.TrainOnly || r.TrainWeight != wantW {
			t.Fatalf("result %d: TrainOnly=%v weight=%v, want true/%v", i, r.TrainOnly, r.TrainWeight, wantW)
		}
		if r.Seconds != sibTimes[i].NoiselessSeconds || r.NoiselessSeconds != sibTimes[i].NoiselessSeconds {
			t.Fatalf("result %d: uncalibrated seconds %v, want the raw sibling clock %v", i, r.Seconds, sibTimes[i].NoiselessSeconds)
		}
		if r.MeasuredOn != sibling.Name {
			t.Fatalf("result %d: measured_on = %q", i, r.MeasuredOn)
		}
	}

	scaled := run(&measure.Calibration{Target: machine.Name, Scales: map[string]float64{sibling.Name: 0.75}})
	for i, r := range scaled {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if !r.TrainOnly || r.TrainWeight != measure.WeightSibling {
			t.Fatalf("result %d: calibrated weight = %v, want the plain sibling weight %v (discount applied exactly once)", i, r.TrainWeight, measure.WeightSibling)
		}
		if want := sibTimes[i].NoiselessSeconds * 0.75; r.Seconds != want {
			t.Fatalf("result %d: calibrated seconds %v, want %v", i, r.Seconds, want)
		}
	}
}
