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
	"sort"
	"sync"

	"repro/internal/baselines"
	"repro/internal/fleet"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/regserver"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/warm"
	"repro/internal/workloads"
)

// Config scales an experiment.
type Config struct {
	// Trials is the measurement budget per test case (paper: 1000).
	Trials int
	// PerRound is the batch size per search round.
	PerRound int
	// Seed drives all randomness.
	Seed int64
	// Noise is the relative measurement jitter.
	Noise float64
	// Workers bounds the goroutines used by measurement, search and the
	// task scheduler (0 = GOMAXPROCS). Results are bit-identical for any
	// value.
	Workers int
	// Out receives the printed rows (nil = discard).
	Out io.Writer
	// Recorder, when non-nil, receives every fresh successful
	// measurement of the experiment's searches as a durable record
	// (shared across all machines a figure touches).
	Recorder *measure.Recorder
	// Cache, when non-nil, serves previously recorded measurements so a
	// re-run of a figure replays its logged work instead of re-measuring
	// (the resume path; see DESIGN.md, "Persistence layer").
	Cache *measure.MeasuredSet
	// RegistryURL names a shared ansor-registry server; ConnectRegistry
	// wires it into the Recorder so every fresh measurement of the
	// experiments also publishes there. Publishing is passive: figures
	// are bit-identical with or without it.
	RegistryURL string
	// WarmStart names warm-start sources for the Ansor policies the
	// experiments build — the same file|URL|"registry" forms as
	// ansor.TuningOptions.WarmStartFrom (resolve with ConnectWarmStart).
	// Only Ansor warm-starts: the baselines must stay the published cold
	// baselines, or the comparison is meaningless. Warm starting
	// deliberately changes results — unlike Resume, which replays the
	// cold trajectory.
	WarmStart string
	// WarmStartLimit caps the records each warm-start source
	// contributes per task (0 = unbounded); see
	// ansor.TuningOptions.WarmStartLimit.
	WarmStartLimit int
	// FleetURL runs every search framework's measurements on the
	// distributed fleet behind this broker URL instead of in-process
	// (ConnectFleet pings it eagerly). Figures are bit-identical with or
	// without it — the fleet changes where the machine model runs, never
	// what it returns.
	FleetURL string
	// Obs narrates every Ansor search the experiments run (round and
	// phase events, latency histograms, fleet batch timelines) into one
	// shared observer. Nil is off; figures are bit-identical either way
	// (events are narration, never inputs).
	Obs *obs.Observer

	// warmSrc is the resolved WarmStart source, shared by every figure
	// run off this config.
	warmSrc warm.Source
	// fleetMs tracks every RemoteMeasurer built off this config (the
	// pointer is shared across the by-value copies the figure runners
	// take), so FleetErr can surface a mid-run broker failure — a
	// fleet-measured figure with silently skipped batches is exactly the
	// divergent run ansor.TuneNetwork refuses to return.
	fleetMs *fleetMeasurers
}

type fleetMeasurers struct {
	mu sync.Mutex
	ms []*fleet.RemoteMeasurer
}

// ConnectFleet pings the FleetURL broker eagerly so a bad URL fails
// before any tuning work, and arms FleetErr tracking. No-op without
// one.
func (c *Config) ConnectFleet() error {
	if c.FleetURL == "" {
		return nil
	}
	if err := fleet.NewClient(c.FleetURL).Ping(); err != nil {
		return err
	}
	c.fleetMs = &fleetMeasurers{}
	return nil
}

// FleetErr returns the first broker failure any of the config's remote
// measurers latched; callers check it after their figures, the way they
// check Recorder.Close. Always nil for local measurement.
func (c Config) FleetErr() error {
	if c.fleetMs == nil {
		return nil
	}
	c.fleetMs.mu.Lock()
	defer c.fleetMs.mu.Unlock()
	for _, rm := range c.fleetMs.ms {
		if err := rm.Err(); err != nil {
			return err
		}
	}
	return nil
}

// ConnectWarmStart resolves the WarmStart spec eagerly (a bad path or
// unreachable server fails here, before any tuning). No-op without one.
func (c *Config) ConnectWarmStart() error {
	if c.WarmStart == "" {
		return nil
	}
	src, err := warm.Open(c.WarmStart, c.RegistryURL, c.WarmStartLimit)
	if err != nil {
		return err
	}
	c.warmSrc = src
	return nil
}

// warmStart seeds an Ansor policy from the config's warm source; no-op
// without one. Fetch/replay failures are fatal like they are in the
// ansor API: silently starting cold would misattribute results.
func (c Config) warmStart(p *policy.Policy, machine string) error {
	if c.warmSrc == nil {
		return nil
	}
	recs, err := warm.Records(c.warmSrc, p.Task.Name, machine)
	if err != nil {
		return err
	}
	_, err = p.WarmStartWeighted(recs)
	return err
}

// ConnectRegistry attaches the config's RegistryURL to its Recorder
// (creating an in-memory recorder when none is set), so every fresh
// measurement of the experiments publishes to the shared registry
// server. seedLogs name existing log files (e.g. the -log/-resume
// files) to upload first, so a resumed experiment's server still holds
// the replayed records. No-op without a RegistryURL.
func (c *Config) ConnectRegistry(seedLogs ...string) error {
	if c.RegistryURL == "" {
		return nil
	}
	rec, err := regserver.AttachRecorder(c.Recorder, c.RegistryURL, seedLogs...)
	if err != nil {
		return err
	}
	c.Recorder = rec
	return nil
}

// measurer builds a measurer wired to the config's worker setting and
// persistence sinks: in-process, or remote when FleetURL is set.
func (c Config) measurer(m *sim.Machine, seed int64) measure.Interface {
	if c.FleetURL != "" {
		rm := fleet.NewRemoteMeasurer(c.FleetURL, m.Name, c.Noise, seed)
		rm.Workers = c.Workers
		rm.Recorder = c.Recorder
		rm.Cache = c.Cache
		rm.Obs = c.Obs
		if c.fleetMs != nil {
			c.fleetMs.mu.Lock()
			c.fleetMs.ms = append(c.fleetMs.ms, rm)
			c.fleetMs.mu.Unlock()
		}
		return rm
	}
	ms := measure.New(m, c.Noise, seed)
	ms.Workers = c.Workers
	ms.Recorder = c.Recorder
	ms.Cache = c.Cache
	return ms
}

// DefaultConfig is the reduced-scale configuration used by the benches.
func DefaultConfig() Config {
	return Config{Trials: 64, PerRound: 16, Seed: 1, Noise: 0.02}
}

// PaperConfig is the paper-scale configuration (1,000 trials per case).
func PaperConfig() Config {
	c := DefaultConfig()
	c.Trials = 1000
	c.PerRound = 64
	return c
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
	m := sim.IntelXeon()
	if searchAVX512 {
		m = sim.IntelXeonAVX512()
	}
	return Platform{
		Name:          "Intel CPU",
		Machine:       m,
		VendorMachine: sim.IntelXeonAVX512(),
		Target:        sketch.CPUTarget(),
	}
}

// GPUPlatform returns the NVIDIA V100 platform.
func GPUPlatform() Platform {
	return Platform{
		Name:          "NVIDIA GPU",
		Machine:       sim.NVIDIAV100(),
		VendorMachine: sim.NVIDIAV100(),
		Target:        sketch.GPUTarget(),
	}
}

// ARMPlatform returns the 4-core Cortex-A53 platform.
func ARMPlatform() Platform {
	arm := sketch.CPUTarget()
	arm.VectorLanes = 4
	return Platform{
		Name:          "ARM CPU",
		Machine:       sim.ARMCortexA53(),
		VendorMachine: sim.ARMCortexA53(),
		Target:        arm,
	}
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
		bm := baselines.NewBeam(d, 8, ms, cfg.Seed)
		bm.Task = name
		return bm.Tune(cfg.Trials, cfg.PerRound)
	case FwFlexTensor:
		ms := cfg.measurer(plat.Machine, cfg.Seed)
		p, err := baselines.NewFlexTensor(task, ms, cfg.Seed)
		if err != nil {
			return math.Inf(1)
		}
		return p.Tune(cfg.Trials, cfg.PerRound)
	case FwAutoTVM:
		ms := cfg.measurer(plat.Machine, cfg.Seed)
		p, err := baselines.NewAutoTVM(task, ms, cfg.Seed)
		if err != nil {
			return math.Inf(1)
		}
		return p.Tune(cfg.Trials, cfg.PerRound)
	case FwAnsor:
		ms := cfg.measurer(plat.Machine, cfg.Seed)
		p, err := baselines.NewAnsor(task, ms, cfg.Seed)
		if err != nil {
			return math.Inf(1)
		}
		p.Obs = cfg.Obs
		if err := cfg.warmStart(p, plat.Machine.Name); err != nil {
			// Inf means "framework unsupported here"; a broken warm-start
			// source is infrastructure failure and must not be recorded
			// as an Ansor result (same convention as TuneNetworks).
			panic(fmt.Sprintf("exp: warm start %s: %v", name, err))
		}
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

// netTaskPolicies builds one policy per network task.
func netTaskPolicies(net workloads.Network, plat Platform, cfg Config,
	mk func(policy.Task, measure.Interface, int64) (*policy.Policy, error),
	ms measure.Interface) ([]*policy.Policy, error) {
	var out []*policy.Policy
	for i, task := range net.Tasks {
		p, err := mk(policy.Task{
			Name: task.Name, DAG: task.Build(), Target: plat.Target, Weight: task.Weight,
		}, ms, cfg.Seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("task %s: %w", task.Name, err)
		}
		p.Obs = cfg.Obs
		out = append(out, p)
	}
	return out, nil
}

// policyTuner adapts a policy to the task scheduler.
type policyTuner struct {
	p        *policy.Policy
	perRound int
	tag      string
	flops    float64
}

func (t *policyTuner) Name() string          { return t.p.Task.Name }
func (t *policyTuner) BestLatency() float64  { return bestOrInf(t.p) }
func (t *policyTuner) AllocateUnit()         { t.p.SearchRound(t.perRound) }
func (t *policyTuner) Prepare()              { t.p.Propose(t.perRound) }
func (t *policyTuner) TaskFlops() float64    { return t.flops }
func (t *policyTuner) SimilarityTag() string { return t.tag }

func bestOrInf(p *policy.Policy) float64 {
	if p.BestState == nil {
		return math.Inf(1)
	}
	return p.BestTime
}

var _ sched.Tuner = (*policyTuner)(nil)

// sortedFrameworks returns fws in a stable display order.
func sortedCases(rows []NormalizedRow) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Case < rows[j].Case })
}
