package fleet

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
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

// BenchmarkWorkerMeasure is a worker's per-program cost from step bytes
// to time — replay as it parses, lower, time — on the programs
// fleet-batch measures (C2D.s1, CPU target), one lease of 16 per arena.
func BenchmarkWorkerMeasure(b *testing.B) {
	dag, encoded := c2dPrograms(b, 64)
	w := Worker{Machine: sim.IntelXeon()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		a := ir.BorrowArena()
		for k := 0; k < 16 && i < b.N; k, i = k+1, i+1 {
			if r := w.measureOne(a, dag, i, encoded[i%len(encoded)]); r.Err != "" {
				b.Fatal(r.Err)
			}
		}
		a.Release()
	}
}

// c2dPrograms samples n complete programs of C2D.s1 for the CPU target
// and returns its DAG with their encoded step lists.
func c2dPrograms(tb testing.TB, n int) (*te.DAG, [][]byte) {
	tb.Helper()
	var dag *te.DAG
	for _, w := range workloads.SingleOps(1) {
		if w.Key == "C2D.s1" {
			dag = w.Build()
		}
	}
	sks, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(dag)
	if err != nil {
		tb.Fatal(err)
	}
	pop := anno.NewSampler(sketch.CPUTarget(), 1).SamplePopulation(sks, n)
	if len(pop) != n {
		tb.Fatalf("sampled %d of %d programs", len(pop), n)
	}
	encoded := make([][]byte, n)
	for k, s := range pop {
		encoded[k], _ = ir.EncodeSteps(s.Steps)
	}
	return dag, encoded
}

func reportBatch(b *testing.B, n int) {
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "programs/s")
}
