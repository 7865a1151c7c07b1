// Package measure implements the measurer of Figure 4: it builds and
// "runs" candidate programs on the target (the analytic machine model, in
// process or behind a Backend such as the measurement fleet), returning
// execution times that feed both the search and the cost-model training
// data. A result carries a time, never a program artifact: the lowering
// Machine.Time reads is borrowed and handed back inside the measurement.
// Optional seeded noise models real-hardware jitter.
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
	State *ir.State
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

	// EncSteps carries the canonical step encoding when the measurer (for
	// the cache lookup) or its Backend (for the wire) already made it, so
	// NewRecord does not encode the program a second time. Read-only: it
	// may be a piece of a larger buffer.
	EncSteps []byte
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
	// Workers bounds the goroutines preparing and timing one batch
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

	// Backend, when non-nil, times the batch's fresh programs in place of
	// Machine.Time in process (a measurement fleet sets it). It is handed
	// the batch and the indices that were not served from Cache, and sets
	// on each of exactly those either NoiselessSeconds — positive, the
	// exact time of the model named Machine.Name — or Err. The measurer
	// lowers nothing it hands a Backend and encodes a program's steps
	// only for the Cache: a program arrives with EncSteps when the lookup
	// made them and without otherwise. The Backend encodes what it ships
	// (ir.AppendSteps) and leaves those bytes in EncSteps, which it must
	// never write again, so records share them; a step list the encoder
	// refuses and a program that does not lower are the Backend's errors.
	// Noise, trial counting and records stay with the measurer, so where a
	// program was timed never shows in a result. Safe for concurrent use,
	// like MeasureTask.
	Backend func(task string, out []Result, fresh []int)

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

// Measure times the given programs across Workers goroutines.
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
		out[i] = ms.prepare(task, states[i])
	})
	if ms.Backend != nil {
		fresh := make([]int, 0, len(out))
		for i := range out {
			if !out[i].Cached {
				fresh = append(fresh, i)
			}
		}
		ms.Backend(task, out, fresh)
	}
	var trials int64
	for i := range out {
		r := &out[i]
		if !r.Cached {
			trials++
		}
		if r.Err != nil {
			continue
		}
		// Cache-served, timed in process or timed by the backend, the noisy
		// time is the same function of the noiseless one: a served result is
		// bitwise what a fresh measurement returns, even from a log recorded
		// under another noise seed.
		r.Seconds = r.NoiselessSeconds
		if ms.NoiseStd > 0 {
			r.Seconds *= NoiseFactor(ms.Seed, ms.NoiseStd, r.State.Signature())
		}
		if ms.Recorder == nil || r.Cached || r.Seconds <= 0 {
			continue
		}
		if rec, err := NewRecord(task, ms.Machine.Name, *r); err == nil {
			_, _ = ms.Recorder.Record(rec)
		}
	}
	ms.trials.Add(trials)
	return out
}

// prepare is the per-program front half: look the program up in the
// cache and — without a Backend — time it on the machine model. The steps
// are encoded only for the cache (a list the codec refuses just misses
// it); the program is lowered only to be timed here.
func (ms *Measurer) prepare(task string, s *ir.State) Result {
	r := Result{State: s}
	if ms.Cache != nil {
		// The exact cache key is the program's canonical step encoding:
		// the structural Signature is too coarse (it exists for search
		// dedupe) to guarantee the served time belongs to this program.
		if enc, err := ir.EncodeSteps(s.Steps); err == nil {
			r.EncSteps = enc
			if rec, ok := ms.Cache.Lookup(ms.Machine.Name, task, DAGFingerprint(s.DAG), enc); ok {
				r.NoiselessSeconds, r.Cached = rec.Noiseless, true
				return r
			}
		}
	}
	if ms.Backend != nil {
		return r
	}
	// Time reads the lowering once: borrow it (ir.LowerBorrowed).
	low, err := ir.LowerBorrowed(s)
	if err != nil {
		r.Err = err
		return r
	}
	r.NoiselessSeconds = ms.Machine.Time(low)
	low.Release()
	return r
}

// NoiseFactor is the deterministic measurement-noise model: a
// lognormal-ish factor that is a pure function of (seed, program
// signature), emulating repeatable per-program measurement bias. Noise
// is keyed by the tuning seed, never by who measured (DESIGN.md's
// determinism contract).
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
