package fleet

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anno"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
)

// BenchmarkFleetMeasure compares one measurement batch in-process
// against a loopback fleet of two workers, at the default per-round
// batch size (16, exp.Config.PerRound: one lease) and the full-config
// size (64: four leases of one job) through one long-lived measurer,
// as a tuning run has. The in-process case runs single-threaded
// (Workers=1) so the comparison is transport overhead, not core count.
func BenchmarkFleetMeasure(b *testing.B) {
	machine := sim.IntelXeon()
	bb := te.NewBuilder("mm")
	a := bb.Input("A", 64, 64)
	bb.Matmul(a, 64, true)
	d := bb.MustFinish()
	gen := sketch.NewGenerator(sketch.CPUTarget())
	sks, err := gen.Generate(d)
	if err != nil {
		b.Fatal(err)
	}
	all := anno.NewSampler(sketch.CPUTarget(), 7).SamplePopulation(sks, 64)

	const workers = 2
	for _, batch := range []int{16, 64} {
		states := all[:batch]
		b.Run(fmt.Sprintf("local/batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ms := measure.New(machine, 0.02, 3)
				ms.Workers = 1
				ms.MeasureTask("mm", states)
			}
			reportBatch(b, len(states))
		})
		b.Run(fmt.Sprintf("fleet/batch=%d", batch), func(b *testing.B) {
			broker := NewBroker()
			hs := httptest.NewServer(broker.Handler())
			defer hs.Close()
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				w := NewWorker(hs.URL, fmt.Sprintf("bench-w%d", i), machine, 16)
				wg.Add(1)
				go func() {
					defer wg.Done()
					_ = w.Run(ctx)
				}()
			}
			defer wg.Wait()
			defer cancel()
			rm := NewRemoteMeasurer(hs.URL, machine.Name, 0.02, 3)
			rm.Timeout = time.Minute
			rm.MeasureTask("mm", states) // dials, and finds the workers waiting
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rm.MeasureTask("mm", states)
				if err := rm.Err(); err != nil {
					b.Fatal(err)
				}
			}
			reportBatch(b, len(states))
		})
	}
}

func reportBatch(b *testing.B, n int) {
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "programs/s")
}

// BenchmarkSiblingDispatch quantifies what near-sibling dispatch buys
// on an imbalanced heterogeneous fleet: one avx2 board and three avx512
// boards draining an avx2-only job queue. dispatch=exact (the legacy
// MaxDispatchDistance=0 sharding) leaves the avx512 boards idle while
// the lone native board drains alone; dispatch=sibling (the shipped
// default, distance 1) puts all four to work on the same queue. The
// workers are raw-protocol loops posting honestly-measured results, and
// each program additionally occupies its board for a fixed emulated
// runtime: on a real fleet executing a candidate takes wall-clock time
// on the board, while the analytic model answers in pure CPU time —
// without the occupancy a single-core host time-shares the "boards"
// and hides exactly the serialization dispatch policy is about.
// Reported per drain: s_drain (wall clock to drain the batch) and
// idle_worker_s (summed worker-seconds spent asking for work and
// getting none).
func BenchmarkSiblingDispatch(b *testing.B) {
	machine := sim.IntelXeon()
	sibling := sim.IntelXeonAVX512()
	bb := te.NewBuilder("mm")
	a := bb.Input("A", 64, 64)
	bb.Matmul(a, 64, true)
	d := bb.MustFinish()
	gen := sketch.NewGenerator(sketch.CPUTarget())
	sks, err := gen.Generate(d)
	if err != nil {
		b.Fatal(err)
	}
	states := anno.NewSampler(sketch.CPUTarget(), 7).SamplePopulation(sks, 64)

	const pollEvery = time.Millisecond
	const boardOccupancy = 250 * time.Microsecond // emulated per-program board runtime
	for _, mode := range []struct {
		name string
		dist int
	}{{"dispatch=exact", 0}, {"dispatch=sibling", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			var idleTicks atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				broker := NewBroker()
				broker.MaxDispatchDistance = mode.dist
				hs := httptest.NewServer(broker.Handler())
				ctx, cancel := context.WithCancel(context.Background())
				var wg sync.WaitGroup
				for wi, host := range []*sim.Machine{machine, sibling, sibling, sibling} {
					wg.Add(1)
					go func(wi int, host *sim.Machine) {
						defer wg.Done()
						cl := NewClient(hs.URL)
						id := fmt.Sprintf("bench-%s-%d", host.Name, wi)
						for ctx.Err() == nil {
							g, err := cl.Lease(LeaseRequest{Worker: id, Target: host.Name, Capacity: 4})
							if err != nil || g == nil {
								idleTicks.Add(1)
								select {
								case <-ctx.Done():
									return
								case <-time.After(pollEvery):
								}
								continue
							}
							res := chaosResults(g)
							if res == nil {
								continue
							}
							select {
							case <-ctx.Done():
								return
							case <-time.After(time.Duration(len(res)) * boardOccupancy):
							}
							_, _ = cl.PostResults(ResultPost{Worker: id, Job: g.Job, Lease: g.Lease, Results: res})
						}
					}(wi, host)
				}
				rm := NewRemoteMeasurer(hs.URL, machine.Name, 0.02, 3)
				rm.Timeout = time.Minute
				rm.MeasureTask("mm", states)
				if err := rm.Err(); err != nil {
					b.Fatal(err)
				}
				cancel()
				wg.Wait()
				hs.Close()
			}
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s_drain")
			b.ReportMetric(float64(idleTicks.Load())*pollEvery.Seconds()/float64(b.N), "idle_worker_s")
		})
	}
}
