// Command bench is this repository's benchmark: four closed-loop
// workloads that drive the tuner, the measurement fleet and the registry
// server through their public functions, report the end-to-end metrics
// with tracing off and the per-layer metrics in a separate traced run,
// and check every output. README.md in this directory defines the
// metrics and records why each workload exists.
//
//	go run -C bench . --workload tune-net --seed 1 --seconds 20 --trace 0
//	go run -C bench . --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	measure  time.Duration
	traced   bool
	// root is the checkout the benchmark runs in; everything it writes
	// goes under root/.bench_build.
	root string
	// tmp is this process's scratch directory, removed on exit.
	tmp string
}

// phase is the outcome of one measured phase.
type phase struct {
	samples []sample
	// allocBytes is the MemStats.TotalAlloc delta over the phase.
	allocBytes uint64
	// progSeconds are the run times, on the machine model, of the
	// programs the ops returned.
	progSeconds []float64
	failed      int
	firstFail   string
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
}

// failf counts one failed op and keeps the first failure's description.
func (p *phase) failf(format string, args ...interface{}) {
	p.failed++
	if p.firstFail == "" {
		p.firstFail = fmt.Sprintf(format, args...)
	}
}

// instance is one fully set-up workload: inputs generated, the system
// under test constructed and warmed.
type instance interface {
	// measure runs ops closed-loop until d has elapsed (an op in flight
	// at the deadline completes) and checks their outputs.
	measure(d time.Duration) *phase
	close() error
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name string
	// blocks is how many consecutive groups blockStats cuts the ops
	// into: about a second's worth of short ops, or a handful of long
	// ones, per group.
	blocks int
	// setup generates the inputs from cfg.seed, constructs the system
	// and runs the warm-up pass. With traced set it also attaches the
	// observers and wrappers the per-layer metrics are read from.
	setup func(cfg *config) (instance, error)
}

var workloadTable = []workload{
	{name: "tune-net", blocks: 5, setup: setupTuneNet},
	{name: "tune-deep", blocks: 5, setup: setupTuneDeep},
	{name: "fleet-batch", blocks: 20, setup: setupFleetBatch},
	{name: "serve-mix", blocks: 20, setup: setupServeMix},
}

// setupReps is how often the untraced run repeats the whole set-up; the
// median is reported as setup_s and the last instance is measured.
const setupReps = 3

func main() {
	var cfg config
	var seconds float64
	var traceFlag int
	var compare bool
	var out string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&out, "out", "", "append the result, tagged with workload and seed, to this JSONL file (input of --compare)")
	flag.BoolVar(&compare, "compare", false, "compare two --out files given as arguments: base.jsonl new.jsonl")
	flag.Parse()
	if compare {
		os.Exit(runCompare(flag.Args(), os.Stdout))
	}
	cfg.measure = time.Duration(seconds * float64(time.Second))
	cfg.traced = traceFlag != 0
	if err := run(&cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadTable {
		names = append(names, w.name)
	}
	return names
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of an --out file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	result
}

func run(cfg *config, out string) error {
	var w *workload
	for i := range workloadTable {
		if workloadTable[i].name == cfg.workload {
			w = &workloadTable[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown --workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.measure <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	var err error
	if cfg.root, err = findRoot(); err != nil {
		return err
	}
	cfg.tmp = filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.tmp)
	fmt.Printf("# %s seed=%d seconds=%g trace=%v %s GOMAXPROCS=%d nproc=%d\n",
		w.name, cfg.seed, cfg.measure.Seconds(), cfg.traced, runtime.Version(), procs, runtime.NumCPU())

	reps := setupReps
	if cfg.traced {
		reps = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	var inst instance
	var setups []float64
	for r := 0; r < reps; r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return fmt.Errorf("%s: close: %w", w.name, err)
			}
		}
		t0 := time.Now()
		if inst, err = w.setup(cfg); err != nil {
			return fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	steal0, total0 := cpuTimes()
	ph := inst.measure(cfg.measure)
	if steal1, total1 := cpuTimes(); total1 > total0 {
		// Time the hypervisor gave to other tenants: a run with a large
		// share here is not worth comparing.
		fmt.Printf("# cpu time stolen during the measured phase: %.1f %%\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if err := inst.close(); err != nil {
		return fmt.Errorf("%s: close: %w", w.name, err)
	}

	res := result{
		Correct:   ph.failed == 0 && len(ph.samples) > 0,
		Attempted: len(ph.samples),
		Failed:    ph.failed,
		Metrics:   map[string]metricValue{},
	}
	if cfg.traced {
		ph.layers["proc.peak_rss_mb"] = peakRSSMB()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		ph.layers["proc.gc_cpu_share"] = ms.GCCPUFraction
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metricValue{Value: ph.layers[m.name], Unit: m.unit}
			delete(ph.layers, m.name)
		}
		for name := range ph.layers {
			return fmt.Errorf("%s: per-layer metric %q is not in the metric table", w.name, name)
		}
	} else {
		st := blockStats(ph.samples, w.blocks)
		work := 0
		for _, s := range ph.samples {
			work += s.work
		}
		values := map[string]float64{
			"setup_s":            median(setups),
			"work_per_s":         st.workPerS,
			"op_ms_p50":          st.p50,
			"op_ms_p95":          st.p95,
			"alloc_kb_per_work":  float64(ph.allocBytes) / 1024 / float64(work),
			"program_latency_us": geomean(ph.progSeconds) * 1e6,
		}
		for _, def := range endToEnd {
			res.Metrics[def.name] = metricValue{Value: values[def.name], Unit: def.unit}
		}
	}
	printTable(res, len(ph.samples))
	if out != "" {
		if err := appendRecord(out, record{Workload: w.name, Seed: cfg.seed, Traced: cfg.traced, result: res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed their output check; first: %s", w.name, ph.failed, len(ph.samples), ph.firstFail)
	}
	return nil
}

func printTable(res result, ops int) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %d ops, %d failed\n", ops, res.Failed)
	for _, n := range names {
		fmt.Printf("# %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("--out: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("--out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("--out: %w", err)
	}
	return nil
}

// findRoot locates the checkout: the nearest directory at or above the
// working directory that holds BENCHMARK.json (`go run -C bench` starts
// the program inside bench/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no BENCHMARK.json at or above %s: run from the checkout", dir)
		}
	}
}

// cpuTimes reads the stolen and the total CPU time, in clock ticks since
// boot, from the first line of /proc/stat; zeros where there is none.
func cpuTimes() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// closedLoop is the single-client measured phase shared by the tuner
// and fleet workloads: op(i) runs back to back until d has elapsed. op
// times its own critical section and returns it with the work done;
// whatever else it does (output checks) is not part of its latency.
func closedLoop(d time.Duration, ph *phase, op func(i int) (time.Duration, int)) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		took, work := op(i)
		ph.samples = append(ph.samples, sample{end: time.Since(start), ms: float64(took) / 1e6, work: work})
	}
	runtime.ReadMemStats(&m1)
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
}
