package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/te"
)

// chaos_test.go is the deterministic fleet chaos suite: seeded fault
// agents inject worker death, lease expiry, straggler (late) posts and
// duplicate posts into a live mixed avx2/avx512 fleet measuring jobs for
// both targets at once, and every run must produce output bit-identical
// to an in-process measurement — the package's determinism contract says
// lease slicing, assignment and faults are invisible in results. A time
// is only ever used on the target that measured it, so every grant an
// agent receives must name the target it hosts. After every request an
// agent makes, the broker's lease-table invariant (checkLeaseTable) must
// hold. The suite runs under CI's fleet -race gate.

// chaosTTL is the chaos brokers' lease TTL: short enough that a test
// recovers abandoned slices quickly, long enough that healthy posts
// comfortably beat it.
const chaosTTL = 60 * time.Millisecond

// chaosResults honestly measures a grant on m, the way a real worker
// would. A nil return means the agent could not measure (undecodable
// grant) and must abandon the lease — the broker requeues it for a
// healthy worker.
func chaosResults(m *sim.Machine, g *LeaseGrant) []WorkerResult {
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
// leases like a worker hosting host, checks that the grant is for host,
// then rolls one of {die, straggle, duplicate, behave} per lease. Dying
// abandons the slice (lease expiry + requeue); straggling holds it past
// the TTL and posts anyway (late/duplicate-result path); duplicating
// posts the same results twice, the second time aboard its next lease
// request; behaving is an ordinary worker, whose results ride on its next
// lease request. All posted results are honestly measured, so whichever
// post lands first is correct — the determinism contract under fire.
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
			if g.Target != host.Name {
				t.Errorf("%s, hosting %s, was granted a job for %s", id, host.Name, g.Target)
			}
			fault := rng.Intn(4)
			if fault == 0 {
				continue // die: never post, the slice must requeue
			}
			results := chaosResults(host, g)
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

// TestFleetChaosBitIdentical: an avx2 and an avx512 batch measured at
// once on a mixed fleet — real workers and chaos agents hosting each
// target, rolling faults from a fixed seed — with a short lease TTL. At
// every seed each batch is bit-identical to the in-process measurer of
// its own target.
func TestFleetChaosBitIdentical(t *testing.T) {
	machines := []*sim.Machine{sim.IntelXeon(), sim.IntelXeonAVX512()}
	states := sampleStates(t, 32)
	local := make([][]measure.Result, len(machines))
	for k, m := range machines {
		local[k] = measure.New(m, 0.02, 11).MeasureTask("mm", states)
	}

	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			b, bcl := testBroker(t, func(b *Broker) {
				b.LeaseTTL = chaosTTL
				b.MaxFailures = 0 // chaos agents die constantly; never quarantine
			})
			url := bcl.base
			startWorkers(t, url, machines[0], 2)
			startWorkers(t, url, machines[1], 1, 3)
			startChaosAgent(t, b, url, machines[0], seed)
			startChaosAgent(t, b, url, machines[1], seed+100)
			startChaosAgent(t, b, url, machines[1], seed+200)

			res := make([][]measure.Result, len(machines))
			errs := make([]error, len(machines))
			var wg sync.WaitGroup
			for k, m := range machines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rm := remote(t, url, m, 0.02, 11)
					res[k] = rm.MeasureTask("mm", states)
					errs[k] = rm.Err()
				}()
			}
			wg.Wait()
			checkLeaseTable(t, b, "the batches")
			for k, m := range machines {
				assertBitIdentical(t, "chaos "+m.Name, local[k], res[k])
				if errs[k] != nil {
					t.Fatalf("latched fleet error under chaos on %s: %v", m.Name, errs[k])
				}
			}
		})
	}
}

// TestFleetWithoutTargetWorkerNeverMeasuresElsewhere: a fleet with no
// worker for the job's target — avx512 boards only, an avx2 batch — never
// measures the job on another target. The idle boards are never leased a
// program, and the batch fails at its Timeout with the error latched.
func TestFleetWithoutTargetWorkerNeverMeasuresElsewhere(t *testing.T) {
	machine := sim.IntelXeon()
	b, bcl := testBroker(t, nil)
	url := bcl.base
	startWorkers(t, url, sim.IntelXeonAVX512(), 2, 3)
	rm := remote(t, url, machine, 0.02, 13)
	rm.Timeout = 300 * time.Millisecond

	start := time.Now()
	res := rm.MeasureTask("mm", sampleStates(t, 16))
	if elapsed := time.Since(start); elapsed < rm.Timeout {
		t.Errorf("batch failed after %s, before its %s timeout", elapsed, rm.Timeout)
	}
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("result %d measured with no %s worker in the fleet", i, machine.Name)
		}
	}
	if err := rm.Err(); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("latched error = %v, want the batch timeout", err)
	}
	checkLeaseTable(t, b, "the timed-out batch")
	b.mu.Lock()
	for _, j := range b.jobs {
		if len(j.queue) != len(j.programs) || len(j.leases) != 0 {
			t.Errorf("job %s: %d of %d programs queued, %d leases, want every program queued and none leased",
				j.id, len(j.queue), len(j.programs), len(j.leases))
		}
	}
	b.mu.Unlock()
	m, err := bcl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range m.Workers {
		if ws.Completed != 0 {
			t.Errorf("worker %s (%s) completed %d programs of another target's job", ws.ID, ws.Target, ws.Completed)
		}
	}
}
