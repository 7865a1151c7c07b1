// Package measure implements the measurer of Figure 4: it builds and
// "runs" candidate programs on the target (the analytic machine model),
// returning execution times that feed both the search and the cost-model
// training data. Optional seeded noise models real-hardware jitter.
package measure

import (
	"hash/fnv"
	"math"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/pool"
	"repro/internal/sim"
)

// Result is the outcome of measuring one program.
type Result struct {
	State   *ir.State
	Lowered *ir.Lowered
	// Seconds is the measured execution time (with noise); zero if invalid.
	Seconds float64
	// NoiselessSeconds is the model's exact time, used as ground truth in
	// cost-model experiments.
	NoiselessSeconds float64
	// Cached marks a result served from the measurer's MeasuredSet (a
	// previously recorded measurement) instead of a fresh trial. Cached
	// results are bit-identical to what a fresh measurement would
	// return, but cost no trial.
	Cached bool
	Err    error

	// MeasuredOn names the machine that physically timed the program
	// when it differs from the requested target (near-sibling fleet
	// dispatch); empty means the target itself measured it.
	MeasuredOn string
	// TrainOnly marks a time that lives on a foreign clock even after
	// calibration: it may train the cost model but must never enter the
	// best-k pool or claim a measured best (the cross-target warm-start
	// rule, applied to live fleet results).
	TrainOnly bool
	// TrainWeight scales the result's contribution to cost-model
	// training; 0 means the default weight 1. Sibling-measured results
	// carry the warm-start discount schedule.
	TrainWeight float64

	// EncSteps carries the canonical step encoding when the measurer
	// already made it (for the cache lookup, for the fleet), so NewRecord
	// does not encode the program a second time.
	EncSteps []byte
}

// GFLOPS returns the measured throughput.
func (r Result) GFLOPS() float64 {
	if r.Seconds <= 0 || r.Lowered == nil {
		return 0
	}
	return r.Lowered.TotalFlops() / r.Seconds / 1e9
}

// Interface is the batch-measurement surface the search layers depend
// on: policy, the baseline searchers, the experiment harnesses and the
// public ansor API all measure through it. Two implementations exist:
// *Measurer, which hosts the analytic machine model in-process, and
// fleet.RemoteMeasurer, which ships batches to a measurement broker and
// reassembles worker results in submission order. Implementations must
// be safe for concurrent use, keep out[i] corresponding to states[i],
// and return bit-identical results for the same (seed, program) — the
// determinism contract of DESIGN.md extends across the interface.
type Interface interface {
	// Measure lowers and times the given programs; out[i] always
	// corresponds to states[i]. Measurements are attributed to the empty
	// task.
	Measure(states []*ir.State) []Result
	// MeasureTask is Measure with task attribution: cache lookups and
	// emitted records are scoped to (target, task).
	MeasureTask(task string, states []*ir.State) []Result
	// Trials returns the total fresh measurements performed so far
	// (results served from a resume cache are free and not counted).
	Trials() int
	// TargetName names the machine the measurements are (or claim to
	// be) taken on — sim.Machine.Name for the in-process measurer, the
	// job's target for a remote one. Records and warm-start filtering
	// key on it.
	TargetName() string
}

// Measurer measures batches of programs on one machine. A Measurer may be
// shared by concurrent searches: Measure is safe for concurrent use and
// trial accounting is atomic.
type Measurer struct {
	Machine *sim.Machine
	// NoiseStd is the relative standard deviation of measurement noise
	// (e.g. 0.02 for ±2% jitter). Noise is a deterministic function of
	// the program, emulating repeatable per-program measurement bias.
	NoiseStd float64
	Seed     int64
	// Workers bounds the goroutines lowering and timing one batch
	// (0 = GOMAXPROCS). Results are order-stable and bit-identical for
	// any value: each program's measurement is a pure function of the
	// program and the measurer's seed.
	Workers int

	// Cache, when non-nil, serves programs already present in it (same
	// target, task and signature) from their recorded times instead of
	// measuring: the resume path of the persistence layer. Lookups are
	// trajectory-neutral — a served result equals the fresh measurement
	// bit for bit (deterministic machine model + deterministic noise) —
	// so attaching a cache never changes search outcomes, only how many
	// fresh trials they cost.
	Cache *MeasuredSet
	// Recorder, when non-nil, receives every fresh successful
	// measurement as a durable Record tagged with the machine name and
	// the task passed to MeasureTask.
	Recorder *Recorder

	// trials counts fresh measurements performed (cache hits excluded),
	// the unit of search budget in all of §7's experiments; read it
	// through Trials.
	trials atomic.Int64
}

// New returns a measurer for the machine.
func New(m *sim.Machine, noiseStd float64, seed int64) *Measurer {
	return &Measurer{Machine: m, NoiseStd: noiseStd, Seed: seed}
}

// Trials returns the total fresh measurements performed so far across
// all callers of Measure/MeasureTask; results served from the attached
// MeasuredSet are free and not counted.
func (ms *Measurer) Trials() int { return int(ms.trials.Load()) }

// TargetName returns the hosted machine model's name.
func (ms *Measurer) TargetName() string { return ms.Machine.Name }

// WorkerCount exposes the configured lowering/timing parallelism so
// policies built on this measurer can inherit it (see policy.New).
func (ms *Measurer) WorkerCount() int { return ms.Workers }

var _ Interface = (*Measurer)(nil)

// Measure lowers and times the given programs across Workers goroutines.
// out[i] always corresponds to states[i]. Measurements are attributed to
// the empty task; searches that persist records use MeasureTask.
func (ms *Measurer) Measure(states []*ir.State) []Result {
	return ms.MeasureTask("", states)
}

// MeasureTask is Measure with task attribution: cache lookups and
// emitted records are scoped to (machine, task), so identical programs
// of different tasks never share results and a resumed task replays
// exactly the records it wrote.
func (ms *Measurer) MeasureTask(task string, states []*ir.State) []Result {
	out := make([]Result, len(states))
	pool.New(ms.Workers).Map(len(states), func(i int) {
		out[i] = ms.measureOne(task, states[i])
	})
	var fresh int64
	for i := range out {
		if !out[i].Cached {
			fresh++
		}
	}
	ms.trials.Add(fresh)
	if ms.Recorder != nil {
		for _, r := range out {
			if r.Cached || r.Err != nil || r.Seconds <= 0 {
				continue
			}
			rec, err := NewRecord(task, ms.Machine.Name, r)
			if err != nil {
				continue
			}
			_, _ = ms.Recorder.Record(rec)
		}
	}
	return out
}

func (ms *Measurer) measureOne(task string, s *ir.State) Result {
	low, err := ir.Lower(s)
	if err != nil {
		return Result{State: s, Err: err}
	}
	var encSteps []byte
	if ms.Cache != nil {
		// The exact cache key is the program's canonical step encoding:
		// the structural Signature is too coarse (it exists for search
		// dedupe) to guarantee the served time belongs to this program.
		if enc, eerr := ir.EncodeSteps(s.Steps); eerr == nil {
			if rec, ok := ms.Cache.Lookup(ms.Machine.Name, task, DAGFingerprint(s.DAG), enc); ok {
				// Serve the recorded noiseless time and re-apply THIS
				// measurer's deterministic noise: the result is bitwise
				// what a fresh measurement would return, even when the
				// log was recorded under a different noise seed.
				noisy := rec.Noiseless
				if ms.NoiseStd > 0 {
					noisy = rec.Noiseless * ms.noiseFactor(s.Signature())
				}
				return Result{State: s, Lowered: low, Seconds: noisy,
					NoiselessSeconds: rec.Noiseless, Cached: true, EncSteps: enc}
			}
			encSteps = enc
		}
	}
	t := ms.Machine.Time(low)
	noisy := t
	if ms.NoiseStd > 0 {
		noisy = t * ms.noiseFactor(s.Signature())
	}
	return Result{State: s, Lowered: low, Seconds: noisy, NoiselessSeconds: t, EncSteps: encSteps}
}

// noiseFactor returns a deterministic lognormal-ish factor per program.
func (ms *Measurer) noiseFactor(sig string) float64 {
	return NoiseFactor(ms.Seed, ms.NoiseStd, sig)
}

// NoiseFactor is the deterministic measurement-noise model: a
// lognormal-ish factor that is a pure function of (seed, program
// signature), emulating repeatable per-program measurement bias. It is
// exported so every measurement path — in-process, cache-served, or a
// remote fleet reassembling worker results — derives bitwise the same
// noisy time from the same noiseless time (DESIGN.md's determinism
// contract; noise is keyed by the tuning seed, never by who measured).
func NoiseFactor(seed int64, noiseStd float64, sig string) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(sig))
	var sb [8]byte
	for i := range sb {
		sb[i] = byte(seed >> (8 * i))
	}
	_, _ = h.Write(sb[:])
	u := float64(h.Sum64()%1e6)/1e6*2 - 1 // [-1, 1)
	return math.Exp(u * noiseStd)
}
