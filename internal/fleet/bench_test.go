package fleet

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
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
