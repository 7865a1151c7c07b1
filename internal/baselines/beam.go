package baselines

import (
	"math/rand"
	"sort"

	"repro/internal/anno"
	"repro/internal/feat"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/te"
	"repro/internal/xgb"
)

// Beam reproduces the sequential-construction-based search of the Halide
// auto-scheduler (§2, Figure 2b): it unfolds the DAG node by node, making
// per-node decisions, and prunes to the top-k *incomplete* programs using
// a cost model trained on complete programs — the strategy whose
// weaknesses Figure 3 and Figure 7 demonstrate. Its decision space also
// reflects the paper's findings: it never splits reduction loops, never
// adds cache stages or rfactor, and computes padding outside the
// reduction loops.
type Beam struct {
	DAG *te.DAG
	// Task attributes measurements in tuning logs and resume caches;
	// empty falls back to the DAG name. Callers tuning several shapes of
	// one operator family must set distinct names, or their records
	// collide.
	Task string

	Measurer *measure.Measurer
	model    *xgb.CostModel
	rng      *rand.Rand

	progFeats [][][]float64
	progTimes []float64
	measured  map[string]bool

	BestTime  float64
	BestState *ir.State
	History   []measure.Result

	// Trials counts the measurements requested by THIS searcher. Like
	// policy.Policy's counter it is the local budget unit: it advances
	// even when a resume cache serves the measurement for free, so a
	// replayed search consumes its budget exactly like the original run.
	Trials int
}

// beamWidth is how many incomplete programs survive each node's pruning.
const beamWidth = 8

// NewBeam returns a beam searcher over the DAG.
func NewBeam(dag *te.DAG, ms *measure.Measurer, seed int64) *Beam {
	return &Beam{
		DAG:      dag,
		Measurer: ms,
		model:    xgb.NewCostModel(xgb.DefaultOpts()),
		rng:      rand.New(rand.NewSource(seed)),
		measured: map[string]bool{},
		BestTime: 1e30,
	}
}

// SearchRound constructs programs by beam search and measures numMeasure
// of the surviving candidates.
func (b *Beam) SearchRound(numMeasure int) []measure.Result {
	finals := b.construct()
	// Measure the top candidates not yet measured.
	var batch []*ir.State
	for _, s := range finals {
		if len(batch) >= numMeasure {
			break
		}
		if !b.measured[s.Signature()] {
			batch = append(batch, s)
		}
	}
	for i := 0; len(batch) < numMeasure && i < len(finals); i++ {
		batch = append(batch, finals[i])
	}
	task := b.Task
	if task == "" {
		task = b.DAG.Name
	}
	results := b.Measurer.MeasureTask(task, batch)
	b.Trials += len(batch)
	for _, r := range results {
		if r.Err != nil || r.Seconds <= 0 {
			continue
		}
		f, err := features(r.State)
		if err != nil {
			continue
		}
		b.measured[r.State.Signature()] = true
		b.progFeats = append(b.progFeats, f)
		b.progTimes = append(b.progTimes, r.Seconds)
		if r.Seconds < b.BestTime {
			b.BestTime = r.Seconds
			b.BestState = r.State
		}
	}
	if len(b.progTimes) > 0 {
		minT := b.progTimes[0]
		for _, t := range b.progTimes {
			if t < minT {
				minT = t
			}
		}
		y := make([]float64, len(b.progTimes))
		for i, t := range b.progTimes {
			y[i] = minT / t
		}
		b.model.Fit(b.progFeats, y)
	}
	b.History = append(b.History, results...)
	return results
}

// Tune runs rounds until the trial budget is exhausted. The budget is
// searcher-local (cache-served measurements count), so tuners sharing a
// measurer — or resuming from a log — spend deterministic budgets.
func (b *Beam) Tune(totalTrials, perRound int) float64 {
	start := b.Trials
	for b.Trials-start < totalTrials {
		n := perRound
		if rem := totalTrials - (b.Trials - start); rem < n {
			n = rem
		}
		if len(b.SearchRound(n)) == 0 {
			break
		}
	}
	return b.BestTime
}

// construct performs one beam pass over the DAG, returning the surviving
// complete programs sorted by (inaccurate) predicted score.
func (b *Beam) construct() []*ir.State {
	beam := []*ir.State{ir.NewState(b.DAG)}
	nStages := len(beam[0].Stages)
	for i := nStages - 1; i >= 0; i-- {
		var next []*ir.State
		for _, s := range beam {
			next = append(next, b.expand(s, i)...)
		}
		if len(next) == 0 {
			continue
		}
		// Early pruning on incomplete programs: score with the model
		// trained on complete programs (the core inaccuracy of §2).
		sort.SliceStable(next, func(a, c int) bool {
			return b.score(next[a]) > b.score(next[c])
		})
		if len(next) > beamWidth {
			next = next[:beamWidth]
		}
		beam = next
	}
	return beam
}

// expand enumerates the per-node decisions for stage index i.
func (b *Beam) expand(s *ir.State, i int) []*ir.State {
	st := s.Stages[i]
	// Decision 1: inline simple elementwise nodes (not boundary/padding
	// nodes, which Halide computes separately).
	if st.Node.StrictInlinable && !st.Node.Predicated && len(s.ConsumerStages(st)) > 0 {
		c := s.Clone()
		if err := c.Apply(&ir.InlineStep{Stage: st.Name}); err == nil {
			return []*ir.State{c}
		}
		return []*ir.State{s}
	}
	// Decision 2: tile the space loops of compute nodes (never the
	// reduction) and annotate with a fixed policy.
	if st.Node.DataReuse {
		var out []*ir.State
		for v := 0; v < 4; v++ {
			c := s.Clone()
			nSp := len(st.Node.SpaceAxes)
			factors := make([][]int, nSp)
			for a := 0; a < nSp; a++ {
				factors[a] = anno.RandomFactors(b.rng, st.Node.SpaceAxes[a].Extent, 2)
			}
			if err := c.Apply(&ir.MultiLevelTileStep{
				Stage: st.Name, Structure: "SS", SpaceFactors: factors,
			}); err != nil {
				continue
			}
			// Fixed annotation: parallel over the fused outer block,
			// vectorize the innermost space loop.
			if err := c.Apply(&ir.FuseStep{Stage: st.Name, First: 0, Count: nSp}); err == nil {
				_ = c.Apply(&ir.AnnotateStep{Stage: st.Name, IterIdx: 0, Ann: ir.AnnParallel})
			}
			cst := c.Stage(st.Name)
			last := len(cst.Iters) - 1
			if cst.Iters[last].Kind == te.Space && cst.Iters[last].Extent > 1 {
				_ = c.Apply(&ir.AnnotateStep{Stage: st.Name, IterIdx: last, Ann: ir.AnnVectorize})
			}
			_ = c.Apply(&ir.PragmaStep{Stage: st.Name, AutoUnrollMax: 16})
			out = append(out, c)
		}
		if len(out) == 0 {
			out = []*ir.State{s}
		}
		return out
	}
	// Default: keep the node's naive loops but parallelize the outer one.
	c := s.Clone()
	if len(st.Iters) > 0 && st.Iters[0].Kind == te.Space && st.Iters[0].Extent > 1 && !st.Attached {
		_ = c.Apply(&ir.AnnotateStep{Stage: st.Name, IterIdx: 0, Ann: ir.AnnParallel})
	}
	return []*ir.State{c}
}

// score predicts the final performance of a (possibly partially
// scheduled) program.
func (b *Beam) score(s *ir.State) float64 {
	if !b.model.Trained() {
		return b.rng.Float64()
	}
	f, err := features(s)
	if err != nil {
		return -1e30
	}
	return b.model.Score(f)
}

// features extracts s's feature rows from a borrowed lowering: Extract
// copies them into a slab of their own, so nothing outlives Release.
func features(s *ir.State) ([][]float64, error) {
	low, err := ir.LowerBorrowed(s)
	if err != nil {
		return nil, err
	}
	defer low.Release()
	return feat.Extract(low), nil
}
