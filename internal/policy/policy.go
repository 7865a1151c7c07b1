// Package policy implements Ansor's per-task search policy: the loop of
// Figure 4 that samples an initial population from the sketch space,
// fine-tunes it with evolutionary search under the learned cost model,
// measures the most promising candidates on the target, and retrains the
// cost model from the accumulated measurement data (§3, §5).
package policy

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/anno"
	"repro/internal/evo"
	"repro/internal/feat"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/xgb"
)

// Task is one program-generation task: a subgraph to optimize on a target
// machine (§6: "a task is a process performed to generate high-performance
// programs for a subgraph").
type Task struct {
	// Name identifies the task (dedup across a network uses it).
	Name string
	DAG  *te.DAG
	// Target carries the structural search-space parameters.
	Target sketch.Target
	// Weight is the number of appearances of the subgraph in the DNN(s).
	Weight int
}

// Options configures the search policy.
type Options struct {
	// SampleInitSize random programs are drawn per round (§5: "re-sampled
	// new programs as well as good programs from previous iterations").
	SampleInitSize int
	// KeepBest previously measured programs seed the population.
	KeepBest int
	// Evolution parameters.
	Population  int
	Generations int
	// EpsGreedy is the fraction of each measured batch chosen randomly
	// instead of by predicted score, for exploration.
	EpsGreedy float64
	// DisableFineTuning reproduces the "No fine-tuning" ablation: the
	// batch is picked from random samples only (§7.1).
	DisableFineTuning bool
	// DisableIncremental forces every round's retraining to refit the
	// whole ensemble from scratch. Default (false) trains incrementally:
	// rounds that did not move the per-DAG normalization boost the
	// previous ensemble with residual trees over the round's new data,
	// and full refits happen only at fingerprint-drift checkpoints (a
	// new best time rescales every label) or when the ensemble hits its
	// growth bound. Both modes are bit-deterministic; they just spend
	// different training time (see xgb.CostModel.Boost).
	DisableIncremental bool
	// Space restrictions, used by the baseline frameworks and the
	// "Limited space" ablation; all false for Ansor.
	DisableFusion     bool
	DisableCacheWrite bool
	DisableRFactor    bool
	DisableInline     bool
	// Structure overrides the target's multi-level tile structure
	// (e.g. "SSRS" for template-style two-level tiles); empty keeps it.
	Structure string
	// FixedAnnotation uses the deterministic annotation policy of the
	// template baselines.
	FixedAnnotation bool
	Seed            int64
	// Workers bounds the goroutines used for candidate scoring, evolution
	// and cost-model training (0 = inherit the measurer's setting, which
	// itself defaults to GOMAXPROCS). Search results are bit-identical
	// for any value.
	Workers int
}

// DefaultOptions returns the configuration used in the evaluation.
func DefaultOptions() Options {
	return Options{
		SampleInitSize: 50,
		KeepBest:       12,
		Population:     96,
		Generations:    4,
		EpsGreedy:      0.15,
		Seed:           1,
	}
}

// Policy runs the search for one task.
type Policy struct {
	Task Task
	Opts Options

	// Measurer is what the policy spends its budget through; whether it
	// times programs in process or on a fleet, search results are
	// bit-identical.
	Measurer *measure.Measurer

	// Obs narrates the search when set: round and phase events, model
	// training and best-improved events, and the round/phase latency
	// histograms. Nil (the default) is observability off; either way the
	// search output is bit-identical — events and histograms are
	// narration, never inputs (the obs package contract).
	Obs *obs.Observer

	// round is the 1-based index of the round last proposed, carried into
	// phase and training events. Observability only.
	round int

	// pending is the proposal waiting for its commit (see Propose).
	pending *proposal

	sketches []*ir.State
	sampler  *anno.Sampler
	model    *xgb.CostModel
	rng      *rand.Rand
	pool     *pool.Pool

	// feats memoizes Lower+Extract per program signature across rounds:
	// best-k states reseed every round's population and evolution keeps
	// re-deriving equal programs, so each distinct program is featurized
	// exactly once per task. Its rows are borrowed memory, given back in
	// Release; progFeats holds the rows Keep moved to the heap.
	feats *feat.Cache

	// Incremental-training state: the program count at the last model
	// fit and the normalization minimum it used. A changed minimum is a
	// fingerprint-drift checkpoint — every label rescales, so the next
	// fit must be a full refit rather than a residual boost. stale marks
	// a model that has not seen the latest commit or warm start: the fit
	// runs where a score is next needed (see fit).
	fittedProgs int
	lastFitMin  float64
	stale       bool

	// Accumulated training data, every program measured on this target.
	progFeats [][][]float64
	progTimes []float64

	measuredSigs map[string]bool
	bestStates   []*ir.State // sorted by measured time, ascending
	bestTimes    []float64

	// BestTime is the best measured execution time so far (+Inf before
	// any measurement); BestState the corresponding program.
	BestTime  float64
	BestState *ir.State

	// Trials counts the measurements performed by THIS policy. It is the
	// policy's own budget unit: unlike the shared measurer's global
	// counter it stays deterministic when independent tasks tune
	// concurrently against one measurer.
	Trials int

	// History records (policy-local trial count, best time) after every
	// round, for tuning curves.
	History []HistoryPoint
}

// HistoryPoint is one point of the tuning curve.
type HistoryPoint struct {
	Trials   int
	BestTime float64
}

// New builds a policy for the task: it generates the task's sketches once
// (the search space construction of §4.1).
func New(task Task, opts Options, ms *measure.Measurer, extraRules ...sketch.Rule) (*Policy, error) {
	target := task.Target
	if opts.Structure != "" {
		target.Structure = opts.Structure
		if n := strings.Count(opts.Structure, "S"); target.FuseOuterLevels >= n {
			target.FuseOuterLevels = n - 1
		}
	}
	gen := sketch.NewGenerator(target)
	gen.DisableFusion = opts.DisableFusion
	gen.DisableCacheWrite = opts.DisableCacheWrite
	gen.DisableRFactor = opts.DisableRFactor
	gen.DisableInline = opts.DisableInline
	for _, r := range extraRules {
		gen.RegisterRule(r)
	}
	sketches, err := gen.Generate(task.DAG)
	if err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	sampler := anno.NewSampler(target, opts.Seed)
	sampler.Fixed = opts.FixedAnnotation
	if opts.Workers == 0 && ms != nil {
		opts.Workers = ms.Workers
	}
	mopts := xgb.DefaultOpts()
	mopts.Workers = opts.Workers
	return &Policy{
		Task:         task,
		Opts:         opts,
		Measurer:     ms,
		sketches:     sketches,
		sampler:      sampler,
		model:        xgb.NewCostModel(mopts),
		rng:          rand.New(rand.NewSource(opts.Seed ^ 0x5eed)),
		pool:         pool.New(opts.Workers),
		feats:        feat.NewCache(1 << 16),
		measuredSigs: map[string]bool{},
		BestTime:     1e30,
	}, nil
}

// Sketches exposes the generated sketches (read-only).
func (p *Policy) Sketches() []*ir.State { return p.sketches }

// proposal is the pure half of a round: the batch Propose picked, held
// until the commit that measures it.
type proposal struct {
	// n is the batch size asked for; the commit must ask for the same.
	n int
	// batch is what to measure: empty when nothing is left in the space.
	batch []*ir.State
	// start is round_start's clock reading (narration only).
	start time.Time
}

// SearchRound performs one tuning round: sample, evolve, pick a batch of
// numMeasure programs, measure them, and absorb the results. It returns
// the measurement results (§5's iterative fine-tuning). A round is a
// proposal (Propose, which SearchRound calls unless one is pending) and
// its commit.
func (p *Policy) SearchRound(numMeasure int) []measure.Result {
	p.Propose(numMeasure)
	prop := p.pending
	p.pending = nil
	p.Obs.Count("proposals_committed")
	if len(prop.batch) == 0 {
		p.Obs.Emit(obs.Event{Type: obs.EvRoundEnd, Task: p.Task.Name, Round: p.round,
			Trials: p.Trials, Detail: "space exhausted"})
		return nil
	}
	// Task-attributed measurement: records land in the tuning log under
	// this task's name, and a resume cache serves exactly the records
	// this task wrote. Cache hits cost no measurer trial but still count
	// against the policy-local budget, so a resumed search replays the
	// original trial accounting bit for bit.
	var results []measure.Result
	p.phase("measure", func() {
		results = p.Measurer.MeasureTask(p.Task.Name, prop.batch)
	})
	p.Trials += len(prop.batch)
	p.update(results)
	secs := p.Obs.SinceSeconds(prop.start)
	p.Obs.Observe("round_seconds", secs)
	p.Obs.Emit(obs.Event{Type: obs.EvRoundEnd, Task: p.Task.Name, Round: p.round,
		Count: len(prop.batch), Trials: p.Trials, DurMS: secs * 1000})
	return results
}

// Propose does the part of the next round that needs no measurement: it
// brings the cost model up to date, samples, evolves and picks the batch
// of numMeasure programs, and leaves it pending for SearchRound to
// measure. It is a no-op while a proposal is pending.
//
// A proposal may be computed any time before its commit — a scheduler
// prepares tasks it has not decided to run yet — because Propose reads
// and advances only state that nothing but this policy's own commit (and
// WarmStart) writes: its two RNGs, feature cache, cost model, best pool
// and measured set. It spends no trial, writes no record and moves
// nothing that BestTime, Trials or History report, so the batch is the
// same whenever it is computed and invisible until its commit. The
// caller's side (DESIGN.md, determinism rule 6): one call at a time on
// one policy, and a commit that asks for the batch size proposed —
// anything else panics rather than silently recomputing.
func (p *Policy) Propose(numMeasure int) {
	if p.pending != nil {
		if p.pending.n != numMeasure {
			panic(fmt.Sprintf("policy: task %s has a proposal of %d programs pending, asked for %d",
				p.Task.Name, p.pending.n, numMeasure))
		}
		return
	}
	p.round = len(p.History) + 1
	prop := &proposal{n: numMeasure, start: p.Obs.Now()}
	p.pending = prop
	p.Obs.Count("proposals_prepared")
	p.Obs.Emit(obs.Event{Type: obs.EvRoundStart, Task: p.Task.Name, Round: p.round,
		Trials: p.Trials})
	p.fit()
	// What is sampled, and what evolution derives, lives in borrowed
	// arenas until the proposal is made: only the batch, detached here,
	// outlives them. One scorer serves the whole proposal, so programs
	// featurized during evolution are not re-lowered for batch selection;
	// it is borrowed for the proposal too.
	arena := ir.BorrowArena()
	releaseEvolved := func() {}
	sc := p.scorer()
	hits0, misses0, _ := p.feats.Stats()
	defer func() {
		for i, s := range prop.batch {
			if s.InArena() {
				prop.batch[i] = s.Clone()
			}
		}
		arena.Release()
		releaseEvolved()
		hits, misses, _ := p.feats.Stats()
		p.Obs.Add("feat_cache_hits", hits-hits0)
		p.Obs.Add("feat_cache_misses", misses-misses0)
		p.Obs.Add("score_memo_hits", sc.hits.Load())
		p.Obs.Add("score_memo_misses", sc.misses.Load())
		sc.release()
	}()
	var init []*ir.State
	p.phase("sketch", func() {
		init = p.sampler.SamplePopulationIn(arena, p.sketches, p.Opts.SampleInitSize)
	})
	for i, s := range p.bestStates {
		if i >= p.Opts.KeepBest {
			break
		}
		init = append(init, s)
	}
	if len(init) == 0 {
		return
	}
	candidates := init
	if !p.Opts.DisableFineTuning && p.model.Trained() {
		search := evo.NewSearch(evo.Config{
			PopulationSize: p.Opts.Population,
			Generations:    p.Opts.Generations,
			CrossoverProb:  0.15,
			EliteCount:     p.Opts.Population / 8,
			Seed:           p.rng.Int63(),
			Workers:        p.Opts.Workers,
		})
		p.phase("evolve", func() {
			candidates, releaseEvolved = search.RunBorrowed(p.Task.DAG, init, sc, 4*numMeasure)
		})
	}
	p.phase("score", func() { prop.batch = p.pickBatch(sc, candidates, numMeasure) })
}

// Abandon closes a proposal that will never be committed because the run
// is over (a scheduler prepared the task and then never picked it), so
// the narration leaves no round open. Nothing the search reports moves.
func (p *Policy) Abandon() {
	if p.pending == nil {
		return
	}
	p.Obs.Count("proposals_unused")
	p.Obs.Emit(obs.Event{Type: obs.EvRoundEnd, Task: p.Task.Name, Round: p.round,
		Trials: p.Trials, DurMS: p.Obs.SinceSeconds(p.pending.start) * 1000, Detail: "unused"})
	p.pending = nil
}

// PhaseNames lists the pprof-labeled search phases in execution order.
// The observer's phase events and latency histograms cover exactly
// these names (the evolve phase appears only once the cost model is
// trained and fine-tuning is enabled); tests pin the correspondence.
var PhaseNames = []string{"sketch", "evolve", "score", "measure", "train"}

// phase runs fn with a pprof "phase" label so CPU and heap profiles
// split by search stage (sketch / evolve / score / measure / train).
// Labels propagate to goroutines started inside fn, so the sharded
// evolution's workers are attributed to their phase too. With an
// observer attached the phase is also timed into its latency histogram
// and narrated as a phase event; timing is narration only and never
// feeds back into the search.
func (p *Policy) phase(name string, fn func()) {
	t0 := p.Obs.Now()
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) {
		fn()
	})
	if p.Obs == nil {
		return
	}
	secs := p.Obs.SinceSeconds(t0)
	p.Obs.Observe(PhaseHistogram(name), secs)
	p.Obs.Emit(obs.Event{Type: obs.EvPhase, Task: p.Task.Name, Round: p.round,
		Phase: name, DurMS: secs * 1000})
}

// PhaseHistogram maps a phase label to the latency histogram it feeds:
// the measure and train phases own the measure_batch_seconds and
// train_seconds histograms of the observability contract; the purely
// computational phases land in phase_<name>_seconds.
func PhaseHistogram(name string) string {
	switch name {
	case "measure":
		return "measure_batch_seconds"
	case "train":
		return "train_seconds"
	}
	return "phase_" + name + "_seconds"
}

// pickBatch selects the programs to measure: mostly the best-scoring
// unmeasured candidates, with an ε fraction chosen at random (§6.2's
// ε-greedy exploration applied at the program level).
func (p *Policy) pickBatch(sc evo.Scorer, candidates []*ir.State, n int) []*ir.State {
	var fresh []*ir.State
	for _, c := range candidates {
		if !p.measuredSigs[c.Signature()] {
			fresh = append(fresh, c)
		}
	}
	if len(fresh) == 0 {
		fresh = candidates
	}
	if p.model.Trained() && !p.Opts.DisableFineTuning {
		scores := p.scoreAll(sc, fresh)
		idx := make([]int, len(fresh))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
		ordered := make([]*ir.State, len(fresh))
		for i, j := range idx {
			ordered[i] = fresh[j]
		}
		fresh = ordered
	}
	var batch []*ir.State
	nRandom := int(float64(n)*p.Opts.EpsGreedy + 0.5)
	for len(batch) < n-nRandom && len(fresh) > 0 {
		batch = append(batch, fresh[0])
		fresh = fresh[1:]
	}
	// The ε slice measures genuinely random samples so the search never
	// commits fully to a possibly-wrong cost model.
	for len(batch) < n {
		extra := p.sampler.SamplePopulation(p.sketches, 1)
		if len(extra) == 0 {
			if len(fresh) == 0 {
				break
			}
			batch = append(batch, fresh[0])
			fresh = fresh[1:]
			continue
		}
		batch = append(batch, extra[0])
	}
	return batch
}

// update records measurements, maintains the best-k pool, and marks the
// cost model stale.
func (p *Policy) update(results []measure.Result) {
	for _, r := range results {
		if r.Err != nil || r.Seconds <= 0 {
			continue
		}
		e, ok := p.feats.Keep(r.State)
		if !ok {
			continue
		}
		p.absorb(r.State, e.Feats, r.Seconds)
	}
	p.rebuildBestPool()
	p.stale = true
	p.History = append(p.History, HistoryPoint{Trials: p.Trials, BestTime: p.BestTime})
}

// absorb folds one measured program into the accumulated training data,
// the measured set and best tracking (pool rebuild and marking the model
// stale are the caller's job). feats come from the feature cache's Keep:
// they are on the heap and outlive its Release.
func (p *Policy) absorb(s *ir.State, feats [][]float64, seconds float64) {
	p.progFeats = append(p.progFeats, feats)
	p.progTimes = append(p.progTimes, seconds)
	p.measuredSigs[s.Signature()] = true
	if seconds < p.BestTime {
		p.BestTime = seconds
		p.BestState = s
		p.Obs.Emit(obs.Event{Type: obs.EvBestImproved, Task: p.Task.Name, Round: p.round,
			Signature: s.Signature(), Seconds: seconds, Trials: p.Trials})
	}
	p.bestStates = append(p.bestStates, s)
	p.bestTimes = append(p.bestTimes, seconds)
}

// rebuildBestPool keeps the best pool sorted and bounded.
func (p *Policy) rebuildBestPool() {
	idx := make([]int, len(p.bestStates))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.bestTimes[idx[a]] < p.bestTimes[idx[b]] })
	limit := 4 * p.Opts.KeepBest
	if len(idx) > limit {
		idx = idx[:limit]
	}
	states := make([]*ir.State, len(idx))
	times := make([]float64, len(idx))
	for i, j := range idx {
		states[i], times[i] = p.bestStates[j], p.bestTimes[j]
	}
	p.bestStates, p.bestTimes = states, times
}

// fit brings the cost model up to date with the accumulated data, if a
// commit or the warm start has added any since the last fit: labels are
// throughputs normalized to [0,1] per DAG (§5.2). It runs where a score
// is first needed — at the head of the next proposal, or when somebody
// asks for the fingerprint — so the fit after a task's last round, which
// nobody would read, never runs. A proposal separates every two arrivals
// of data, so each fit that does run sees the data, and makes the
// decision, it would have seen run eagerly. Training is
// incremental by default: when the normalization minimum is unchanged
// since the last fit (so every existing label is still valid), the
// previous ensemble is boosted with residual trees over only the new
// programs. A new best time is a fingerprint-drift checkpoint — every
// label rescales — and forces a full refit, as does reaching the
// ensemble growth bound (xgb.Opts.MaxTrees). The refit/boost decision
// depends only on the measurement sequence, never on timing, so resumed
// and fleet-measured searches replay the identical call sequence and
// land on bit-identical models.
func (p *Policy) fit() {
	if !p.stale {
		return
	}
	p.stale = false
	if len(p.progTimes) == 0 || p.Opts.DisableFineTuning {
		return
	}
	p.phase("train", p.retrainModel)
}

func (p *Policy) retrainModel() {
	minT := p.progTimes[0]
	for _, t := range p.progTimes {
		if t < minT {
			minT = t
		}
	}
	y := make([]float64, len(p.progTimes))
	for i, t := range p.progTimes {
		y[i] = minT / t
	}
	mode := "boost"
	switch {
	case p.Opts.DisableIncremental, !p.model.Trained(), minT != p.lastFitMin,
		p.model.NumTrees()+p.model.Opts.BoostTrees > p.model.Opts.MaxTrees:
		mode = "refit"
		p.model.Fit(p.progFeats, y)
	default:
		p.model.Boost(p.progFeats, y, p.fittedProgs)
	}
	p.lastFitMin = minT
	p.fittedProgs = len(p.progFeats)
	p.Obs.Emit(obs.Event{Type: obs.EvModelTrained, Task: p.Task.Name, Round: p.round,
		Count: len(p.progFeats), Detail: mode})
}

// WarmStart replays previously recorded programs of this policy's task
// into the accumulated training data and best-k pool and marks the cost
// model stale — so the very first proposal fits it to history and evolves
// under that model instead of sampling blind (§5.2 trains "from all
// accumulated measurements"; the TVM-style transfer-from-logs path).
// A time is only ever used on the target that measured it: records of
// other tasks, or of any target but the measurer's (a record without one
// included), are skipped, as are non-positive times, records that no
// longer replay on this DAG and programs already absorbed. Warm-started
// programs enter measuredSigs, so pickBatch never re-measures them.
// Trials and History stay untouched: warm-start is free budget-wise.
// Returns how many records were absorbed and the first replay/lowering
// error encountered.
func (p *Policy) WarmStart(recs []measure.Record) (int, error) {
	if p.pending != nil {
		panic(fmt.Sprintf("policy: task %s warm-started with a proposal pending", p.Task.Name))
	}
	var n int
	var first error
	for _, rec := range recs {
		if rec.Task != p.Task.Name || rec.Seconds <= 0 {
			continue
		}
		if p.Measurer != nil && rec.Target != p.Measurer.Machine.Name {
			continue
		}
		s, err := rec.Replay(p.Task.DAG)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		if p.measuredSigs[s.Signature()] {
			continue
		}
		e, ok := p.feats.Keep(s)
		if !ok {
			// The cache records the failure; re-lower once to surface the
			// actual error to the caller.
			if first == nil {
				if _, err := ir.Lower(s); err != nil {
					first = err
				}
			}
			continue
		}
		p.absorb(s, e.Feats, rec.Seconds)
		n++
	}
	if n > 0 {
		p.rebuildBestPool()
		p.stale = true
	}
	return n, first
}

// Release hands the feature cache's memory back once the search is over.
// The policy must not propose or commit again (the cache panics); what it
// reports, its training data and ModelFingerprint stay valid.
func (p *Policy) Release() { p.feats.Release() }

// ModelFingerprint hashes the cost-model ensemble trained on everything
// absorbed so far, fitting it first if it is stale; equal fingerprints
// mean bit-identical models (see xgb.Fingerprint). Used by the
// persistence layer's determinism checks.
func (p *Policy) ModelFingerprint() uint64 {
	p.fit()
	return p.model.Fingerprint()
}

// scoreAll shards scoring over the policy's worker pool with order-stable
// results.
func (p *Policy) scoreAll(sc evo.Scorer, states []*ir.State) []float64 {
	return evo.ScoreAll(p.pool, sc, states)
}

// Tune runs rounds until the trial budget is exhausted and returns the
// best measured time. The budget is policy-local, so tuners sharing one
// measurer spend independent budgets.
func (p *Policy) Tune(totalTrials, perRound int) float64 {
	start := p.Trials
	for p.Trials-start < totalTrials {
		n := perRound
		if rem := totalTrials - (p.Trials - start); rem < n {
			n = rem
		}
		if len(p.SearchRound(n)) == 0 {
			break
		}
	}
	return p.BestTime
}
