package policy

import (
	"fmt"
	"testing"

	"repro/internal/anno"
	"repro/internal/feat"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
	"repro/internal/xgb"
)

// c2dTrainingSet samples C2D.s1 programs from its CPU sketches with a
// fixed seed until their statements number at least rows, and returns
// their feat features and throughputs normalized to the fastest: a
// training set shaped like tune-deep's, where many of the 153 features
// are constant over a node's rows.
func c2dTrainingSet(tb testing.TB, rows int) (progs [][][]float64, y []float64) {
	tb.Helper()
	var dag *te.DAG
	for _, w := range workloads.SingleOps(1) {
		if w.Key == "C2D.s1" {
			dag = w.Build()
		}
	}
	space := sketch.CPUTarget()
	sks, err := sketch.NewGenerator(space).Generate(dag)
	if err != nil {
		tb.Fatal(err)
	}
	m := sim.IntelXeon()
	sampler := anno.NewSampler(space, 1)
	var times []float64
	for n := 0; n < rows; {
		for _, s := range sampler.SamplePopulation(sks, 64) {
			low, err := ir.Lower(s)
			if err != nil {
				continue
			}
			f := feat.Extract(low)
			progs = append(progs, f)
			times = append(times, m.Time(low))
			if n += len(f); n >= rows {
				break
			}
		}
	}
	best := times[0]
	for _, t := range times {
		best = min(best, t)
	}
	for _, t := range times {
		y = append(y, best/t)
	}
	return progs, y
}

// BenchmarkFitC2D is one full cost-model fit of C2D.s1 features at the
// default options on one worker, at 512 and 896 rows, the range of
// tune-deep's fits: the training call that dominates a tune-deep op.
// Unlike xgb's synthetic BenchmarkFitVsBoost, its columns take few
// distinct values, so many of them are constant within a node (29 % of
// the sampled columns a 512-row fit meets at its nodes), and many order
// the rows alike: the 76 varying columns of 512 rows fall into 37 order
// classes.
func BenchmarkFitC2D(b *testing.B) {
	for _, rows := range []int{512, 896} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			progs, y := c2dTrainingSet(b, rows)
			o := xgb.DefaultOpts()
			o.Workers = 1
			m := xgb.NewCostModel(o)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Fit(progs, y)
			}
		})
	}
}
