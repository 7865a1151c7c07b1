// Package exp implements the experiment harnesses that regenerate every
// figure of the paper's evaluation (§7). Each harness returns structured
// results and can print the same rows/series the paper reports. Scale
// (measurement trials per test case) is configurable: the paper uses
// 1,000 trials per case; the default bench configuration uses fewer so
// the whole suite runs in minutes, with the shape of the results
// preserved.
package exp

import (
	"fmt"
	"io"
	"math"

	"repro/ansor"
	"repro/internal/baselines"
	"repro/internal/measure"
	"repro/internal/policy"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
)

// Config scales an experiment.
type Config struct {
	// Trials is the measurement budget per test case (paper: 1000).
	Trials int
	// PerRound is the batch size per search round.
	PerRound int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the goroutines used by measurement, search and the
	// task scheduler (0 = GOMAXPROCS). Results are bit-identical for any
	// value.
	Workers int
	// Out receives the printed rows (nil = discard).
	Out io.Writer
	// Session is the assembled run the figures' searches measure, record,
	// warm-start and narrate through (nil = in-process measurement and
	// nothing else). It is shared by every figure run off this config,
	// and whoever opened it closes it. Only Ansor warm-starts from it:
	// the baselines must stay the published cold baselines, or the
	// comparison is meaningless.
	Session *session.Session
}

// measurer builds a measurer for the machine through the config's run.
func (c Config) measurer(m *sim.Machine, seed int64) *measure.Measurer {
	return c.Session.Measurer(m, seed, c.Workers)
}

// warmStart seeds an Ansor policy from the run's warm-start source, if
// it has one. A broken source is infrastructure failure and must not be
// recorded as an Ansor result (+Inf means "framework unsupported here"),
// so it panics.
func (c Config) warmStart(p *policy.Policy, machine string) {
	if err := c.Session.WarmStart(p, machine); err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
}

// DefaultConfig is the reduced-scale configuration used by the benches.
func DefaultConfig() Config {
	return Config{Trials: 64, PerRound: 16, Seed: 1}
}

func (c Config) printf(format string, args ...interface{}) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// Framework identifies one system under comparison.
type Framework string

const (
	FwPyTorch    Framework = "PyTorch"
	FwTensorFlow Framework = "TensorFlow"
	FwTensorRT   Framework = "TensorRT-TF"
	FwTFLite     Framework = "TFLite"
	FwHalide     Framework = "Halide"
	FwFlexTensor Framework = "FlexTensor"
	FwAutoTVM    Framework = "AutoTVM"
	FwAnsor      Framework = "Ansor"
)

// Platform bundles a machine with the matching search-space target.
type Platform struct {
	Name string
	// Machine used by the search frameworks (AVX-512 disabled on the
	// Intel CPU for the single-op and subgraph benchmarks, §7.1).
	Machine *sim.Machine
	// VendorMachine used by vendor libraries (always full ISA).
	VendorMachine *sim.Machine
	Target        sketch.Target
}

// IntelPlatform returns the 20-core Intel CPU platform. vendorAVX512
// follows §7: true everywhere; searchAVX512 is false in §7.1/§7.2 and
// true in §7.3.
func IntelPlatform(searchAVX512 bool) Platform {
	t := ansor.TargetIntelCPU(searchAVX512)
	return Platform{
		Name:          "Intel CPU",
		Machine:       t.Machine,
		VendorMachine: ansor.TargetIntelCPU(true).Machine,
		Target:        t.Space,
	}
}

// GPUPlatform returns the NVIDIA V100 platform.
func GPUPlatform() Platform {
	t := ansor.TargetNVIDIAGPU()
	return Platform{Name: "NVIDIA GPU", Machine: t.Machine, VendorMachine: t.Machine, Target: t.Space}
}

// ARMPlatform returns the 4-core Cortex-A53 platform.
func ARMPlatform() Platform {
	t := ansor.TargetARMCPU()
	return Platform{Name: "ARM CPU", Machine: t.Machine, VendorMachine: t.Machine, Target: t.Space}
}

// searchFramework runs one search framework on one DAG with the given
// budget and returns the best latency found. name attributes the case's
// measurements in tuning logs; it must be unique per workload shape (a
// bare DAG name collides across the shapes of one operator family).
func searchFramework(fw Framework, name string, d *te.DAG, plat Platform, cfg Config) float64 {
	task := policy.Task{Name: name, DAG: d, Target: plat.Target, Weight: 1}
	switch fw {
	case FwHalide:
		ms := cfg.measurer(plat.Machine, cfg.Seed)
		bm := baselines.NewBeam(d, ms, cfg.Seed)
		bm.Task = name
		return bm.Tune(cfg.Trials, cfg.PerRound)
	case FwFlexTensor:
		ms := cfg.measurer(plat.Machine, cfg.Seed)
		p, err := baselines.NewFlexTensor(task, ms, cfg.Seed)
		if err != nil {
			return math.Inf(1)
		}
		defer p.Release()
		return p.Tune(cfg.Trials, cfg.PerRound)
	case FwAutoTVM:
		ms := cfg.measurer(plat.Machine, cfg.Seed)
		p, err := baselines.NewAutoTVM(task, ms, cfg.Seed)
		if err != nil {
			return math.Inf(1)
		}
		defer p.Release()
		return p.Tune(cfg.Trials, cfg.PerRound)
	case FwAnsor:
		ms := cfg.measurer(plat.Machine, cfg.Seed)
		p, err := baselines.NewAnsor(task, ms, cfg.Seed)
		if err != nil {
			return math.Inf(1)
		}
		defer p.Release()
		p.Obs = cfg.Session.Observer()
		cfg.warmStart(p, plat.Machine.Name)
		return p.Tune(cfg.Trials, cfg.PerRound)
	case FwPyTorch:
		return baselines.VendorTime(plat.VendorMachine, baselines.PyTorch, d)
	case FwTensorFlow:
		return baselines.VendorTime(plat.VendorMachine, baselines.TensorFlow, d)
	case FwTensorRT:
		return baselines.VendorTime(plat.VendorMachine, baselines.TensorRT, d)
	case FwTFLite:
		if !baselines.VendorSupports(baselines.TFLite, d) {
			return math.Inf(1)
		}
		return baselines.VendorTime(plat.VendorMachine, baselines.TFLite, d)
	}
	return math.Inf(1)
}

// geomean returns the geometric mean of xs (0 if any is non-positive).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// NormalizedRow holds one figure row: per-framework performance
// normalized to the best framework (1.0 = best), as in Figures 6, 8, 9.
type NormalizedRow struct {
	Case   string
	Perf   map[Framework]float64 // normalized throughput; 0 = unsupported
	BestFw Framework
}

func normalizeRow(caseName string, lat map[Framework]float64) NormalizedRow {
	row := NormalizedRow{Case: caseName, Perf: map[Framework]float64{}}
	best := math.Inf(1)
	for fw, l := range lat {
		if l > 0 && l < best {
			best = l
			row.BestFw = fw
		}
	}
	for fw, l := range lat {
		if l <= 0 || math.IsInf(l, 1) {
			row.Perf[fw] = 0
			continue
		}
		row.Perf[fw] = best / l
	}
	return row
}

func printRows(cfg Config, title string, fws []Framework, rows []NormalizedRow) {
	cfg.printf("\n%s (normalized performance, 1.00 = best)\n", title)
	cfg.printf("%-16s", "case")
	for _, fw := range fws {
		cfg.printf("%12s", fw)
	}
	cfg.printf("\n")
	for _, r := range rows {
		cfg.printf("%-16s", r.Case)
		for _, fw := range fws {
			if r.Perf[fw] == 0 {
				cfg.printf("%12s", "n/a")
			} else {
				cfg.printf("%12.2f", r.Perf[fw])
			}
		}
		cfg.printf("\n")
	}
}

// wins counts the rows where fw is within tol of the best.
func wins(rows []NormalizedRow, fw Framework, tol float64) int {
	n := 0
	for _, r := range rows {
		if r.Perf[fw] >= 1-tol {
			n++
		}
	}
	return n
}
