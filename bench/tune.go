package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/ansor"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// Sizing of the two tuner workloads. The ops are kept short so that a
// measured phase holds a few dozen of them: each op runs on its own
// tuning seed, and both the time and the result of a search depend on
// the seed, so a run's metrics only repeat when they average over many.
const (
	// tune-net: resnet-50, batch 1, 24 tasks; 2 rounds of 8 measurements
	// per task = 48 rounds and 384 trials per op.
	netTrialsPerTask = 16
	netPerRound      = 8
	netWarmOps       = 3

	// tune-deep: C2D.s1 tuned deepTrials in rounds of deepPerRound, each
	// op warm-started from the log the op before it recorded. How often a
	// search finds a new best (and so refits its model from scratch
	// instead of boosting it) depends on how good its history's best is;
	// chaining gives every op a history of its own, where one shared
	// history would be a single draw colouring every op of the run.
	deepOp       = "C2D.s1"
	deepTrials   = 256
	deepPerRound = 64
	deepWarmOps  = 4

	// verifyLimit admits C2D.s1 (1.2e8 iterations) to ir.VerifyAgainstNaive.
	verifyLimit = 1 << 28
)

// derive maps the run's seed to an independent positive seed for one
// named input stream, so every generated input is a function of --seed.
func derive(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return int64(h.Sum64()&(1<<62-1)) + 1
}

// tuneOutcome is what one tune op returned.
type tuneOutcome struct {
	// seconds is the final result: NetworkResult.Latency or
	// Program.Seconds.
	seconds float64
	trials  int
	// parts are the per-task latencies in task order (tune-net).
	parts []float64
	// sig is the best program's signature and state the program itself
	// (tune-deep).
	sig   string
	state *ir.State
}

func (a tuneOutcome) same(b tuneOutcome) bool {
	if a.seconds != b.seconds || a.trials != b.trials || a.sig != b.sig || len(a.parts) != len(b.parts) {
		return false
	}
	for i := range a.parts {
		if a.parts[i] != b.parts[i] {
			return false
		}
	}
	return true
}

// tuneInstance is a set-up tuner workload. Op i tunes with seed
// derive(seed, name, i); the warm-up ran op 0's seed, so op 0 doubles as
// the determinism check.
type tuneInstance struct {
	cfg  *config
	name string
	// tune runs one op; o is nil with tracing off. It returns the time
	// of the calls into the tuner only.
	tune func(i int, o *obs.Observer) (tuneOutcome, time.Duration, error)
	// check validates one op's outcome beyond determinism.
	check func(i int, out tuneOutcome) error
	// verify, when set, is the expensive check, run once per phase on op
	// 0's outcome.
	verify func(out tuneOutcome) error
	// probes times direct calls into the layers (traced run only).
	probes func() (map[string]float64, error)
	warm   tuneOutcome
}

func (t *tuneInstance) close() error { return nil }

func (t *tuneInstance) measure(d time.Duration) *phase {
	ph := &phase{}
	var tt *tuneTrace
	if t.cfg.traced {
		tt = newTuneTrace(time.Now())
	}
	var first, prev tuneOutcome
	var overhead []float64 // observed / unobserved op time, per seed
	var prevTook time.Duration
	closedLoop(d, ph, func(i int) (time.Duration, int) {
		// A traced run tunes every seed twice, once observed and once
		// not, alternating which goes first: the pair must return the
		// same outcome (events are narration, never inputs), and the
		// ratio of their times is what turning events on costs.
		idx, second, observed := i, false, false
		if tt != nil {
			idx, second = i/2, i%2 == 1
			observed = second == (idx%2 == 1)
		}
		var o *obs.Observer
		var sink *obs.MemorySink
		if observed {
			sink = &obs.MemorySink{}
			o = obs.New(sink, obs.NewRegistry())
		}
		start := time.Now()
		out, took, err := t.tune(idx, o)
		end := time.Now()
		switch {
		case err != nil:
			ph.failf("%s op %d: %v", t.name, i, err)
		case idx == 0 && !out.same(t.warm):
			ph.failf("%s op %d repeats the warm-up's seed but returned %v trials=%d, warm-up %v trials=%d",
				t.name, i, out.seconds, out.trials, t.warm.seconds, t.warm.trials)
		case second && !out.same(prev):
			ph.failf("%s op %d: observed and unobserved runs of one seed differ: %v vs %v",
				t.name, i, out.seconds, prev.seconds)
		default:
			if err := t.check(idx, out); err != nil {
				ph.failf("%s op %d: %v", t.name, i, err)
			}
		}
		if i == 0 {
			first = out
		}
		if err == nil {
			ph.progSeconds = append(ph.progSeconds, out.seconds)
		}
		if observed {
			tt.addOp(i, start, end, sink.Events())
		}
		if second {
			ratio := float64(took) / float64(prevTook)
			if !observed {
				ratio = 1 / ratio
			}
			overhead = append(overhead, ratio)
		}
		prev, prevTook = out, took
		return took, out.trials
	})
	if t.verify != nil && ph.failed == 0 {
		if err := t.verify(first); err != nil {
			ph.failf("%s op 0: %v", t.name, err)
		}
	}
	if tt != nil {
		ph.layers = tt.metrics()
		if len(overhead) > 0 {
			ph.layers["obs.trace_overhead_pct"] = (median(overhead) - 1) * 100
		}
		probes, err := t.probes()
		if err != nil {
			ph.failf("%s probes: %v", t.name, err)
		}
		for k, v := range probes {
			ph.layers[k] = v
		}
		if err := tt.tr.write(filepath.Join(t.cfg.root, ".bench_build", "spans-"+t.name+".jsonl")); err != nil {
			ph.failf("%v", err)
		}
	}
	return ph
}

// warmUp runs n warm-up ops, the last of them on op 0's seed (kept as
// the reference of the determinism check); the others run seeds of their
// own (negative indices) so the process is warm without being primed for
// exactly the measured inputs.
func (t *tuneInstance) warmUp(n int) error {
	for k := n - 1; k >= 0; k-- {
		out, _, err := t.tune(-k, nil)
		if err == nil {
			err = t.check(-k, out)
		}
		if err != nil {
			return err
		}
		t.warm = out
	}
	return nil
}

func setupTuneNet(cfg *config) (instance, error) {
	net, err := ansor.BuiltinNetwork("resnet-50", 1)
	if err != nil {
		return nil, err
	}
	target := ansor.TargetIntelCPU(false)
	t := &tuneInstance{cfg: cfg, name: "tune-net"}
	t.tune = func(i int, o *obs.Observer) (tuneOutcome, time.Duration, error) {
		t0 := time.Now()
		res, err := ansor.TuneNetwork(net, target, ansor.TuningOptions{
			Trials: netTrialsPerTask, MeasuresPerRound: netPerRound, Workers: 2,
			Seed: derive(cfg.seed, "tune-net", i), Observer: o,
		})
		took := time.Since(t0)
		out := tuneOutcome{seconds: res.Latency, trials: res.Trials}
		for _, task := range net.Tasks {
			out.parts = append(out.parts, res.TaskLatencies[task.Name])
		}
		return out, took, err
	}
	t.check = func(i int, out tuneOutcome) error {
		if want := netTrialsPerTask * len(net.Tasks); out.trials != want {
			return fmt.Errorf("spent %d trials, want %d", out.trials, want)
		}
		// The network latency must be the weighted sum of the task
		// latencies it was returned with, summed in task order.
		var sum float64
		for k, task := range net.Tasks {
			if !(out.parts[k] > 0) || math.IsInf(out.parts[k], 0) {
				return fmt.Errorf("task %s latency %v", task.Name, out.parts[k])
			}
			sum += float64(task.Weight) * out.parts[k]
		}
		if sum != out.seconds {
			return fmt.Errorf("latency %v is not the weighted task sum %v", out.seconds, sum)
		}
		return nil
	}
	// The probes run on the network's first 3x3 convolution.
	t.probes = func() (map[string]float64, error) { return searchProbes(net.Tasks[2].Build(), cfg.seed) }
	return t, t.warmUp(netWarmOps)
}

func setupTuneDeep(cfg *config) (instance, error) {
	var build func() *ansor.DAG
	for _, w := range workloads.SingleOps(1) {
		if w.Key == deepOp {
			build = w.Build
		}
	}
	if build == nil {
		return nil, fmt.Errorf("workload %s not found", deepOp)
	}
	target := ansor.TargetIntelCPU(false)
	task := ansor.NewTask(deepOp, build(), target)

	// Op i warm-starts from the log op i-1 recorded and records a log of
	// its own, as one tuning job hands its history to the next. (The
	// first warm-up op has no predecessor and starts cold.) Logs stay on
	// disk until the process exits: the next op reads them.
	t := &tuneInstance{cfg: cfg, name: "tune-deep"}
	logPath := func(i int) string { return filepath.Join(cfg.tmp, fmt.Sprintf("rec%+d.jsonl", i)) }
	t.tune = func(i int, o *obs.Observer) (tuneOutcome, time.Duration, error) {
		if err := os.Remove(logPath(i)); err != nil && !os.IsNotExist(err) {
			return tuneOutcome{}, 0, err
		}
		from := logPath(i - 1)
		if _, err := os.Stat(from); err != nil {
			from = ""
		}
		t0 := time.Now()
		tuner, err := ansor.NewTuner(task, ansor.TuningOptions{
			Trials: deepTrials, MeasuresPerRound: deepPerRound, Workers: 2,
			Seed: derive(cfg.seed, "tune-deep", i), WarmStartFrom: from, RecordTo: logPath(i), Observer: o,
		})
		if err != nil {
			return tuneOutcome{}, time.Since(t0), err
		}
		best, err := tuner.Tune()
		if cerr := tuner.Close(); err == nil {
			err = cerr
		}
		took := time.Since(t0)
		if err != nil {
			return tuneOutcome{}, took, err
		}
		return tuneOutcome{seconds: best.Seconds, trials: tuner.Trials(), sig: best.State.Signature(), state: best.State}, took, nil
	}
	t.check = func(i int, out tuneOutcome) error {
		if out.trials != deepTrials {
			return fmt.Errorf("spent %d trials, want %d", out.trials, deepTrials)
		}
		// The persistence spine's output: the log holds one record per
		// trial, and the returned best is the fastest record of history
		// and log together, replaying to the returned program.
		var best *measure.Record
		for _, path := range []string{logPath(i - 1), logPath(i)} {
			l, err := measure.LoadFile(path) // a missing history reads as empty
			if err != nil {
				return err
			}
			if path == logPath(i) && len(l.Records) != deepTrials {
				return fmt.Errorf("log holds %d records, want %d", len(l.Records), deepTrials)
			}
			for k := range l.Records {
				if best == nil || l.Records[k].Seconds < best.Seconds {
					best = &l.Records[k]
				}
			}
		}
		if best.Seconds != out.seconds {
			return fmt.Errorf("best %v is not the fastest record %v", out.seconds, best.Seconds)
		}
		s, err := best.Replay(task.DAG)
		if err != nil {
			return fmt.Errorf("replay best record: %w", err)
		}
		if s.Signature() != out.sig {
			return fmt.Errorf("best program %s is not the fastest record's %s", out.sig, s.Signature())
		}
		return nil
	}
	t.verify = func(out tuneOutcome) error {
		if err := ir.VerifyAgainstNaive(out.state, verifyLimit); err != nil {
			return fmt.Errorf("best program is not a legal rewrite of its DAG: %w", err)
		}
		return nil
	}
	t.probes = func() (map[string]float64, error) { return modelProbes(task, logPath(0), cfg) }
	return t, t.warmUp(deepWarmOps)
}
