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
			g, err := cl.Lease(LeaseRequest{Worker: id, Target: host.Name, Capacity: 2, Done: done})
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
// to the in-process measurer.
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
			startWorkers(t, url, sim.IntelXeonAVX512(), 1, 3) // siblings (the broker's distance 1 default)
			startChaosAgent(t, b, url, sim.IntelXeon(), seed) // native-side faults
			startChaosAgent(t, b, url, sim.IntelXeonAVX512(), seed+100)
			startChaosAgent(t, b, url, sim.IntelXeonAVX512(), seed+200)

			rm := remote(t, url, machine, 0.02, 11)
			res := rm.MeasureTask("mm", states)
			checkLeaseTable(t, b, "the batch")
			assertBitIdentical(t, "chaos", local, res)
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
