// Ablation benchmarks for the design choices DESIGN.md calls out: the
// contribution of evolutionary crossover, the learned cost model versus
// an oracle and versus none, the ε-greedy exploration slice, and the
// constant-tensor layout rewrite.
package repro

import (
	"testing"

	"repro/internal/anno"
	"repro/internal/evo"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
)

func ablationTask() policy.Task {
	b := te.NewBuilder("conv")
	x := b.Input("X", 16, 256, 14, 14)
	y := b.Conv2D(x, te.ConvOpts{OutChannels: 512, Kernel: 3, Stride: 2, Pad: 1})
	b.ReLU(y)
	return policy.Task{Name: "conv", DAG: b.MustFinish(), Target: sketch.CPUTarget()}
}

// BenchmarkAblationCrossover compares evolutionary search with and
// without the node-based crossover operator (§5.1), using the exact
// simulator as an oracle scorer so only the operators differ.
func BenchmarkAblationCrossover(b *testing.B) {
	d := ablationTask().DAG
	m := sim.IntelXeon()
	sk, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(d)
	if err != nil {
		b.Fatal(err)
	}
	for _, crossover := range []float64{0, 0.3} {
		name := "off"
		if crossover > 0 {
			name = "on"
		}
		b.Run("crossover="+name, func(b *testing.B) {
			best := 0.0
			for i := 0; i < b.N; i++ {
				pop := anno.NewSampler(sketch.CPUTarget(), int64(i)+1).SamplePopulation(sk, 64)
				search := evo.NewSearch(evo.Config{
					PopulationSize: 64, Generations: 6,
					CrossoverProb: crossover, EliteCount: 8, Seed: int64(i) + 1,
				})
				out := search.Run(d, pop, oracle{m}, 8)
				bt := 1e30
				for _, s := range out {
					if low, err := ir.Lower(s); err == nil {
						if t := m.Time(low); t < bt {
							bt = t
						}
					}
				}
				best = bt
			}
			b.ReportMetric(best*1e6, "best-us")
		})
	}
}

type oracle struct{ m *sim.Machine }

func (o oracle) Score(states []*ir.State) []float64 {
	out := make([]float64, len(states))
	for i, s := range states {
		low, err := ir.Lower(s)
		if err != nil {
			out[i] = -1e30
			continue
		}
		out[i] = -o.m.Time(low)
	}
	return out
}
func (o oracle) NodeScores(s *ir.State) map[string]float64 { return nil }

// BenchmarkAblationCostModel compares the full search against the
// no-fine-tuning ablation at equal trial budgets — the value added by
// the learned cost model plus evolution (Figure 7's central comparison).
func BenchmarkAblationCostModel(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "learned"
		if disable {
			name = "none"
		}
		b.Run("model="+name, func(b *testing.B) {
			best := 0.0
			for i := 0; i < b.N; i++ {
				ms := measure.New(sim.IntelXeon(), 0.02, int64(i)+1)
				opts := policy.DefaultOptions()
				opts.Seed = int64(i) + 1
				opts.DisableFineTuning = disable
				p, err := policy.New(ablationTask(), opts, ms)
				if err != nil {
					b.Fatal(err)
				}
				best = p.Tune(192, 16)
			}
			b.ReportMetric(best*1e6, "best-us")
		})
	}
}

// BenchmarkAblationEpsGreedy varies the ε-greedy exploration fraction of
// the measured batch.
func BenchmarkAblationEpsGreedy(b *testing.B) {
	for _, eps := range []float64{0, 0.15, 0.5} {
		b.Run(fmtFloat(eps), func(b *testing.B) {
			best := 0.0
			for i := 0; i < b.N; i++ {
				ms := measure.New(sim.IntelXeon(), 0.02, int64(i)+1)
				opts := policy.DefaultOptions()
				opts.Seed = int64(i) + 1
				opts.EpsGreedy = eps
				p, err := policy.New(ablationTask(), opts, ms)
				if err != nil {
					b.Fatal(err)
				}
				best = p.Tune(192, 16)
			}
			b.ReportMetric(best*1e6, "best-us")
		})
	}
}

// BenchmarkAblationLayoutRewrite measures the effect of the constant-
// tensor layout rewrite (§4.2) on one well-tiled convolution program.
func BenchmarkAblationLayoutRewrite(b *testing.B) {
	d := ablationTask().DAG
	sk, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(d)
	if err != nil {
		b.Fatal(err)
	}
	sp := anno.NewSampler(sketch.CPUTarget(), 1)
	m := sim.IntelXeon()
	// For every sampled program that used the rewrite, compare against
	// the identical program without it and report the mean and max
	// speedup: the rewrite never hurts and helps programs whose weight
	// accesses straddle cache lines.
	var sum, maxr float64
	n := 0
	for _, s := range sp.SamplePopulation(sk, 200) {
		used := false
		var steps []ir.Step
		for _, st := range s.Steps {
			if _, ok := st.(*ir.LayoutRewriteStep); ok {
				used = true
				continue
			}
			steps = append(steps, st)
		}
		if !used {
			continue
		}
		without, err := ir.Replay(d, steps)
		if err != nil {
			continue
		}
		lw, err1 := ir.Lower(s)
		lo, err2 := ir.Lower(without)
		if err1 != nil || err2 != nil {
			continue
		}
		r := m.Time(lo) / m.Time(lw)
		sum += r
		if r > maxr {
			maxr = r
		}
		n++
	}
	if n == 0 {
		b.Fatal("no sampled program used the layout rewrite")
	}
	for i := 0; i < b.N; i++ {
		_ = sp // the analysis above is the bench body; keep b.N semantics
	}
	b.ReportMetric(sum/float64(n), "mean-speedup-x")
	b.ReportMetric(maxr, "max-speedup-x")
}

func fmtFloat(f float64) string {
	switch f {
	case 0:
		return "eps=0"
	case 0.15:
		return "eps=0.15"
	default:
		return "eps=0.5"
	}
}
