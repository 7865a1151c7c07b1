package exp

import (
	"sort"

	"repro/internal/baselines"
	"repro/internal/policy"
	"repro/internal/te"
)

// Fig7Variant names one curve of the Figure 7 ablation.
type Fig7Variant string

const (
	V7Ansor        Fig7Variant = "Ansor"
	V7BeamSearch   Fig7Variant = "Beam search"
	V7NoFineTuning Fig7Variant = "No fine-tuning"
	V7LimitedSpace Fig7Variant = "Limited space"
)

// Fig7Curve is one performance-vs-trials series (median over runs),
// normalized to the best program found by any variant.
type Fig7Curve struct {
	Variant Fig7Variant
	Trials  []int
	Perf    []float64 // relative throughput in [0, 1]
	Final   float64
}

// Fig7Result holds the four ablation curves.
type Fig7Result struct {
	Curves map[Fig7Variant]Fig7Curve
}

// lastResNetConv builds the test case of Figure 7: the last convolution
// of ResNet-50 with batch size 16.
func lastResNetConv() *te.DAG {
	b := te.NewBuilder("resnet_last_conv")
	x := b.Input("X", 16, 512, 7, 7)
	y := b.Conv2D(x, te.ConvOpts{OutChannels: 512, Kernel: 3, Stride: 1, Pad: 1})
	y = b.BatchNorm(y, 1)
	b.ReLU(y)
	return b.MustFinish()
}

// Fig7 reproduces the Figure 7 ablation: four variants of Ansor on one
// convolution, best-program-so-far vs measurement trials, median of
// `runs` runs (the paper uses 5).
func Fig7(cfg Config, runs int) Fig7Result {
	if runs <= 0 {
		runs = 3
	}
	variants := []Fig7Variant{V7Ansor, V7BeamSearch, V7NoFineTuning, V7LimitedSpace}
	// curvesRaw[v][run] = history of (trials, best time).
	type hist struct {
		trials []int
		best   []float64
	}
	curvesRaw := map[Fig7Variant][]hist{}
	globalBest := 1e30

	for _, v := range variants {
		for r := 0; r < runs; r++ {
			seed := cfg.Seed + int64(r)*1009
			d := lastResNetConv()
			plat := IntelPlatform(false)
			ms := cfg.measurer(plat.Machine, seed)
			var h hist
			record := func(trials int, best float64) {
				h.trials = append(h.trials, trials)
				h.best = append(h.best, best)
				if best < globalBest {
					globalBest = best
				}
			}
			task := policy.Task{Name: d.Name, DAG: d, Target: plat.Target}
			switch v {
			case V7BeamSearch:
				bm := baselines.NewBeam(d, 8, ms, seed)
				// Budget on the searcher-local counter: with a resume
				// cache attached the shared measurer counter stalls at
				// the cached prefix and would never exhaust the budget.
				for bm.Trials < cfg.Trials {
					bm.SearchRound(min(cfg.PerRound, cfg.Trials-bm.Trials))
					record(bm.Trials, bm.BestTime)
				}
			default:
				var p *policy.Policy
				var err error
				switch v {
				case V7Ansor:
					p, err = baselines.NewAnsor(task, ms, seed)
				case V7NoFineTuning:
					p, err = baselines.NewNoFineTuning(task, ms, seed)
				case V7LimitedSpace:
					p, err = baselines.NewLimitedSpace(task, ms, seed)
				}
				if err != nil {
					panic(err)
				}
				p.Obs = cfg.Session.Observer()
				for p.Trials < cfg.Trials {
					p.SearchRound(min(cfg.PerRound, cfg.Trials-p.Trials))
					record(p.Trials, p.BestTime)
				}
				p.Release()
			}
			curvesRaw[v] = append(curvesRaw[v], h)
		}
	}

	res := Fig7Result{Curves: map[Fig7Variant]Fig7Curve{}}
	for _, v := range variants {
		hs := curvesRaw[v]
		n := len(hs[0].trials)
		c := Fig7Curve{Variant: v}
		for i := 0; i < n; i++ {
			var med []float64
			for _, h := range hs {
				if i < len(h.best) {
					med = append(med, h.best[i])
				}
			}
			sort.Float64s(med)
			best := med[len(med)/2]
			c.Trials = append(c.Trials, hs[0].trials[i])
			c.Perf = append(c.Perf, globalBest/best)
		}
		c.Final = c.Perf[len(c.Perf)-1]
		res.Curves[v] = c
	}

	cfg.printf("\nFigure 7: ablation on ResNet-50's last conv (batch 16), median of %d runs\n", runs)
	cfg.printf("%-10s", "trials")
	for _, v := range variants {
		cfg.printf("%16s", v)
	}
	cfg.printf("\n")
	ansor := res.Curves[V7Ansor]
	for i := range ansor.Trials {
		cfg.printf("%-10d", ansor.Trials[i])
		for _, v := range variants {
			c := res.Curves[v]
			if i < len(c.Perf) {
				cfg.printf("%16.3f", c.Perf[i])
			} else {
				cfg.printf("%16s", "-")
			}
		}
		cfg.printf("\n")
	}
	return res
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
