// Package evo implements Ansor's evolutionary fine-tuning (§5.1):
// fitness-proportional selection over a population of complete programs,
// with mutation operators that rewrite the programs' rewriting steps (the
// "genes") — tile-size mutation, parallel/vectorization granularity
// mutation, annotation mutation, compute-location mutation — and a
// node-based crossover that merges the per-node steps of two parents.
// Every offspring is verified by replaying its step list; invalid
// offspring are discarded.
//
// Scoring and offspring generation are sharded across a worker pool.
// Determinism is independent of the worker count: every offspring attempt
// owns a private RNG (an 8-byte SplitMix64 stream, so seeding one per
// attempt costs nothing) derived from (Seed, generation, attempt index),
// so no goroutine ever reads a shared random stream (see DESIGN.md).
package evo

import (
	"errors"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/pool"
	"repro/internal/te"
)

// Config controls the evolutionary search.
type Config struct {
	PopulationSize int
	Generations    int
	// CrossoverProb is the probability of producing an offspring by
	// crossover rather than mutation.
	CrossoverProb float64
	// EliteCount survivors copied unchanged each generation.
	EliteCount int
	Seed       int64
	// Workers bounds the goroutines used for scoring and offspring
	// generation (0 = GOMAXPROCS). Results are bit-identical for any
	// value.
	Workers int
}

// DefaultConfig returns the configuration used in the evaluation.
func DefaultConfig() Config {
	return Config{
		PopulationSize: 128,
		Generations:    4,
		CrossoverProb:  0.15,
		EliteCount:     16,
		Seed:           1,
	}
}

// Scorer predicts the fitness of programs (higher = better). It also
// exposes per-node scores for crossover donor selection.
//
// Implementations must be safe for concurrent calls: the search shards
// Score over disjoint sub-slices and calls NodeScores from offspring
// workers in parallel.
type Scorer interface {
	// Score returns a fitness per state.
	Score(states []*ir.State) []float64
	// NodeScores returns per-node-tag scores of one state (may be nil if
	// unavailable; crossover then picks donors at random). The map is
	// read-only: an implementation may hand the same one to every caller
	// that asks about the same program.
	NodeScores(s *ir.State) map[string]float64
}

// IntoScorer is an optional Scorer extension for the zero-alloc score
// path: ScoreInto writes the score of states[i] to dst[i] (len(dst) ==
// len(states)) instead of allocating a result slice per call. ScoreAll
// shards thousands of small chunks per round; with ScoreInto each chunk
// writes straight into the caller's result buffer. Scores must be
// identical to Score's.
type IntoScorer interface {
	Scorer
	ScoreInto(dst []float64, states []*ir.State)
}

// Search runs evolutionary fine-tuning.
type Search struct {
	Cfg  Config
	pool *pool.Pool
}

// NewSearch returns a seeded evolutionary search.
func NewSearch(cfg Config) *Search {
	return &Search{Cfg: cfg, pool: pool.New(cfg.Workers)}
}

// attemptSeed derives the private RNG seed of one offspring attempt from
// the search seed, the generation, and the attempt ordinal. SplitMix64
// finalization decorrelates neighbouring attempts.
func attemptSeed(seed int64, gen, attempt int) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15*(uint64(gen)*1000003+uint64(attempt)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// splitMix64 is the source behind every attempt's RNG. A search makes a
// few hundred attempts and most draw a handful of numbers, so the source
// must be cheap to seed: this one is its 8-byte seed, where math/rand's
// own source fills a 607-word table first.
type splitMix64 uint64

func (s *splitMix64) Seed(seed int64) { *s = splitMix64(seed) }

func (s *splitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitMix64) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Run evolves the initial population for the configured generations and
// returns the `out` highest-scoring distinct programs seen, all of them on
// the heap: every child is replayed into a borrowed arena, and what Run
// hands out of one (or of the caller's, through init) is a clone.
func (e *Search) Run(dag *te.DAG, init []*ir.State, scorer Scorer, out int) []*ir.State {
	res, release := e.RunBorrowed(dag, init, scorer, out)
	defer release()
	for i, s := range res {
		if s.InArena() {
			res[i] = s.Clone()
		}
	}
	return res
}

// RunBorrowed is Run without the clones: the children it returns live in
// the arenas it borrowed, which stay borrowed until the caller calls
// release, exactly once, after cloning what it keeps. The run's
// bookkeeping is borrowed too, and goes back with them.
func (e *Search) RunBorrowed(dag *te.DAG, init []*ir.State, scorer Scorer, out int) (res []*ir.State, release func()) {
	// The attempters this Run has made and no attempt is in: an attempt
	// takes one for as long as it runs, so each is one goroutine's at a
	// time, and the children live in their arenas until release.
	idle := make(chan *attempter, e.pool.Workers())
	t := borrowTables()
	release = func() {
		t.release()
		close(idle)
		for w := range idle {
			w.a.Release()
		}
	}
	if len(init) == 0 {
		return nil, release
	}
	pop, next := append(t.pop, init...), t.next
	scores := t.scoreAll(e.pool, scorer, pop)
	t.record(pop, scores)
	for gen := 0; gen < e.Cfg.Generations; gen++ {
		next = t.elites(next[:0], pop, scores, e.Cfg.EliteCount)
		sel := newRoulette(t.cum, scores)
		t.cum = sel.cum
		// Offspring attempts run in waves. A wave's size depends only on
		// how many children are still missing — never on the worker count
		// — and each attempt's outcome is a pure function of its seed and
		// the (frozen) parent population, so valid children arrive in a
		// deterministic order regardless of scheduling.
		maxAttempts := 20 * e.Cfg.PopulationSize
		attempt := 0
		for len(next) < e.Cfg.PopulationSize && attempt < maxAttempts {
			// First wave: exactly the missing count (most attempts are
			// valid, so surplus offspring would just be discarded).
			// Top-up waves double the missing count to converge fast when
			// this sketch's validity rate proves low. The partition never
			// changes the result: children are taken in attempt order, and
			// attempt k's outcome is independent of wave boundaries.
			wave := e.Cfg.PopulationSize - len(next)
			if attempt > 0 {
				wave *= 2
			}
			if wave > maxAttempts-attempt {
				wave = maxAttempts - attempt
			}
			children := slices.Grow(t.children[:0], wave)[:wave]
			t.children = children
			e.attempts(children, idle, dag, pop, sel, scorer, gen, attempt)
			attempt += wave
			for _, c := range children {
				if c != nil && len(next) < e.Cfg.PopulationSize {
					next = append(next, c)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		pop, next = next, pop
		scores = t.scoreAll(e.pool, scorer, pop)
		t.record(pop, scores)
	}
	t.pop, t.next = pop, next
	return t.cut(out), release
}

// attempts makes the attempts base, base+1, ... of generation gen, one
// per slot of children, each writing its child (or nil) to its slot.
func (e *Search) attempts(children []*ir.State, idle chan *attempter, dag *te.DAG, pop []*ir.State, sel roulette, scorer Scorer, gen, base int) {
	e.pool.Map(len(children), func(k int) {
		var w *attempter
		select {
		case w = <-idle:
		default:
			w = &attempter{a: ir.BorrowArena()}
			w.rng = rand.New(&w.src)
		}
		w.rng.Seed(attemptSeed(e.Cfg.Seed, gen, base+k))
		children[k] = e.offspring(w.a, dag, pop, sel, scorer, w.rng)
		idle <- w
	})
}

// attempter is what an offspring attempt runs in: a borrowed arena, and
// an RNG that the attempt reseeds, so it draws exactly what a new one
// would.
type attempter struct {
	a   *ir.Arena
	src splitMix64
	rng *rand.Rand
}

// offspring produces one child (or nil) from its private RNG, in the
// arena: the genes are assembled in a step buffer the arena owns, and an
// attempt that yields no child gives back all it took.
func (e *Search) offspring(a *ir.Arena, dag *te.DAG, pop []*ir.State, sel roulette, scorer Scorer, rng *rand.Rand) *ir.State {
	m := a.Mark()
	var steps []ir.Step
	ok := true
	if rng.Float64() < e.Cfg.CrossoverProb && len(pop) >= 2 {
		x, y := pop[sel.pick(rng)], pop[sel.pick(rng)]
		steps = crossoverSteps(a.Steps(len(x.Steps))[:0], x, y, scorer.NodeScores(x), scorer.NodeScores(y), rng)
	} else {
		parent := pop[sel.pick(rng)]
		steps, ok = mutateSteps(a.Steps(len(parent.Steps))[:0], parent.Steps, rng)
	}
	if ok {
		if child, err := replayChild(a, dag, steps); err == nil {
			return child
		}
	}
	a.Rewind(m)
	return nil
}

// scoreChunk is the fixed shard size of ScoreAll. It depends only on the
// data, never on the worker count, so scores are identical either way.
const scoreChunk = 8

// ScoreAll shards scorer.Score over the pool in contiguous chunks with
// order-stable results; scorer must tolerate concurrent calls on
// disjoint sub-slices. It is shared by the evolutionary search and the
// policy's batch selection.
func ScoreAll(pl *pool.Pool, scorer Scorer, states []*ir.State) []float64 {
	out := make([]float64, len(states))
	ScoreAllInto(pl, scorer, states, out)
	return out
}

// ScoreAllInto is ScoreAll writing into the caller's buffer (len(out)
// == len(states)). Scorers implementing IntoScorer fill their chunk of
// the buffer directly; others pay one slice allocation per chunk.
func ScoreAllInto(pl *pool.Pool, scorer Scorer, states []*ir.State, out []float64) {
	into, zeroAlloc := scorer.(IntoScorer)
	chunks := (len(states) + scoreChunk - 1) / scoreChunk
	pl.Map(chunks, func(c int) {
		lo := c * scoreChunk
		hi := lo + scoreChunk
		if hi > len(states) {
			hi = len(states)
		}
		if zeroAlloc {
			into.ScoreInto(out[lo:hi], states[lo:hi])
			return
		}
		copy(out[lo:hi], scorer.Score(states[lo:hi]))
	})
}

// roulette implements fitness-proportional selection with a shift making
// all weights positive. It is immutable after construction; callers pass
// their own RNG to pick, so concurrent picks stay independent.
type roulette struct {
	cum []float64
}

// newRoulette returns the roulette of scores, its weights in cum's
// memory.
func newRoulette(cum, scores []float64) roulette {
	min := 0.0
	for _, s := range scores {
		if s < min {
			min = s
		}
	}
	cum = cum[:0]
	total := 0.0
	for _, s := range scores {
		total += s - min + 1e-6
		cum = append(cum, total)
	}
	return roulette{cum}
}

func (r roulette) pick(rng *rand.Rand) int {
	if len(r.cum) == 0 {
		return 0
	}
	x := rng.Float64() * r.cum[len(r.cum)-1]
	return sort.SearchFloat64s(r.cum, x)
}

// mutateSteps appends the parent's step list to dst with one randomly
// chosen evolution operation applied; ok is false when the operation
// found nothing to edit. A step is immutable once a state holds it, so
// the child shares the parent's steps and only the edited one is a copy.
func mutateSteps(dst, parent []ir.Step, rng *rand.Rand) (steps []ir.Step, ok bool) {
	steps = dst
	for _, s := range parent {
		steps = append(steps, inherit(s))
	}
	switch rng.Intn(5) {
	case 0:
		ok = mutateTileSize(steps, rng)
	case 1:
		ok = mutateAnnotation(steps, rng)
	case 2:
		ok = mutateParallelGranularity(steps, rng)
	case 3:
		ok = mutateComputeLocation(steps, rng)
	case 4:
		ok = mutatePragma(steps, rng)
	}
	return steps, ok
}

var errIncomplete = errors.New("evo: offspring has unfilled tile sizes")

// replayChild verifies an offspring's step list the way §5.1 prescribes:
// replay from the naive program, then check the result is complete and
// structurally valid — in the arena, to which a rejected program gives its
// memory back. The search discards the error; tests read it.
func replayChild(a *ir.Arena, dag *te.DAG, steps []ir.Step) (*ir.State, error) {
	m := a.Mark()
	s, err := a.Replay(dag, steps)
	if err == nil && !s.Complete() {
		err = errIncomplete
	}
	if err == nil {
		err = s.Validate()
	}
	if err != nil {
		a.Rewind(m)
		return nil, err
	}
	return s, nil
}

// inherit returns the step an offspring takes over from a parent: the
// parent's own, except that a tiling step with an empty (non-nil) factor
// list — an axis tiled at a single level, as under "SSRS" — is copied,
// as every inherited step used to be. MultiLevelTileStep.Clone turns such
// a list into a missing one, so those offspring replay to an incomplete
// program and are discarded: a defect recorded in ROADMAP.md that sharing
// the step would silently repair, moving every template-space baseline.
func inherit(s ir.Step) ir.Step {
	if t, ok := s.(*ir.MultiLevelTileStep); ok {
		for _, group := range [2][][]int{t.SpaceFactors, t.ReduceFactors} {
			for _, fs := range group {
				if fs != nil && len(fs) == 0 {
					return t.Clone()
				}
			}
		}
	}
	return s
}

// count returns how many steps have type T and pass keep (nil = all).
func count[T ir.Step](steps []ir.Step, keep func(T) bool) int {
	n := 0
	for _, s := range steps {
		if t, ok := s.(T); ok && (keep == nil || keep(t)) {
			n++
		}
	}
	return n
}

// edit replaces the k-th step of type T that passes keep with a private
// copy and returns the copy for the caller to rewrite.
func edit[T ir.Step](steps []ir.Step, k int, keep func(T) bool) T {
	for i, s := range steps {
		if t, ok := s.(T); ok && (keep == nil || keep(t)) {
			if k == 0 {
				c := t.Clone().(T)
				steps[i] = c
				return c
			}
			k--
		}
	}
	panic("evo: edit past the last candidate step")
}

// mutateTileSize implements the paper's tile size mutation: divide one
// tile level by a factor and multiply another level of the same axis by
// the same factor, keeping the product equal to the loop length.
func mutateTileSize(steps []ir.Step, rng *rand.Rand) bool {
	filled := func(t *ir.MultiLevelTileStep) bool { return t.SpaceFactors != nil }
	tiles := count(steps, filled)
	rfs := count[*ir.RFactorStep](steps, nil)
	if tiles == 0 && rfs == 0 {
		return false
	}
	if rfs > 0 && (tiles == 0 || rng.Float64() < 0.2) {
		// Mutate an rfactor split factor.
		rf := edit[*ir.RFactorStep](steps, rng.Intn(rfs), nil)
		if rng.Intn(2) == 0 {
			rf.Factor *= 2
		} else if rf.Factor%2 == 0 {
			rf.Factor /= 2
		}
		return rf.Factor >= 2
	}
	t := edit(steps, rng.Intn(tiles), filled)
	all := [][][]int{t.SpaceFactors, t.ReduceFactors}
	group := all[rng.Intn(2)]
	if len(group) == 0 {
		group = t.SpaceFactors
	}
	if len(group) == 0 {
		return false
	}
	fs := group[rng.Intn(len(group))]
	if len(fs) == 0 {
		return false
	}
	// Pick a source level with a factor > 1 and move a divisor of it to
	// another level (or to the derived outer level by just dividing).
	srcCandidates := []int{}
	for i, f := range fs {
		if f > 1 {
			srcCandidates = append(srcCandidates, i)
		}
	}
	if len(srcCandidates) == 0 {
		// All inner levels are 1: steal from the derived outer level by
		// multiplying one inner level (replay checks divisibility).
		fs[rng.Intn(len(fs))] *= []int{2, 3, 4}[rng.Intn(3)]
		return true
	}
	src := srcCandidates[rng.Intn(len(srcCandidates))]
	ds := anno.Divisors(fs[src])
	f := ds[1+rng.Intn(len(ds)-1)] // a divisor > 1
	fs[src] /= f
	if rng.Intn(len(fs)+1) > 0 { // sometimes move to outer (derived)
		dst := rng.Intn(len(fs))
		fs[dst] *= f
	}
	return true
}

// mutateAnnotation rewrites one annotation step's kind.
func mutateAnnotation(steps []ir.Step, rng *rand.Rand) bool {
	anns := count[*ir.AnnotateStep](steps, nil)
	if anns == 0 {
		return false
	}
	a := edit[*ir.AnnotateStep](steps, rng.Intn(anns), nil)
	choices := []ir.Annotation{ir.AnnNone, ir.AnnVectorize, ir.AnnUnroll, ir.AnnParallel}
	a.Ann = choices[rng.Intn(len(choices))]
	return true
}

// mutateParallelGranularity changes how many outer loops are fused for
// the parallel annotation (the paper's parallel granularity mutation).
func mutateParallelGranularity(steps []ir.Step, rng *rand.Rand) bool {
	outermost := func(f *ir.FuseStep) bool { return f.First == 0 }
	if count(steps, outermost) == 0 {
		return false
	}
	f := edit(steps, 0, outermost)
	if rng.Intn(2) == 0 {
		f.Count++
	} else if f.Count > 2 {
		f.Count--
	}
	return true
}

// mutateComputeLocation moves the fusion point of a fused consumer.
func mutateComputeLocation(steps []ir.Step, rng *rand.Rand) bool {
	fcs := count[*ir.FuseConsumerStep](steps, nil)
	if fcs == 0 {
		return false
	}
	f := edit[*ir.FuseConsumerStep](steps, rng.Intn(fcs), nil)
	if rng.Intn(2) == 0 && f.OuterLevels > 1 {
		f.OuterLevels--
	} else {
		f.OuterLevels++
	}
	return true
}

// mutatePragma rewrites an auto_unroll_max_step pragma.
func mutatePragma(steps []ir.Step, rng *rand.Rand) bool {
	candidates := []int{0, 16, 64, 512}
	if count[*ir.PragmaStep](steps, nil) == 0 {
		return false
	}
	edit[*ir.PragmaStep](steps, 0, nil).AutoUnrollMax = candidates[rng.Intn(len(candidates))]
	return true
}

// crossoverSteps merges two parents at node granularity (§5.1): for every
// node tag, the steps of the parent whose node scores higher are kept. It
// appends the merged step list of parents a and b to dst: a's sequence
// with the steps of every node tag donated by b replaced, position for
// position, by b's same-type steps of that tag. A nil score
// map makes the donor of every tag a coin flip. The child shares its
// parents' steps (see inherit): nothing here edits one.
func crossoverSteps(dst []ir.Step, a, b *ir.State, scoreA, scoreB map[string]float64, rng *rand.Rand) []ir.Step {
	// Decide the donor of each tag, in order of first appearance in a.
	type choice struct {
		tag   string
		fromB bool
	}
	var buf [8]choice
	tags := buf[:0]
	fromB := func(tag string) (donor, known bool) {
		for _, c := range tags {
			if c.tag == tag {
				return c.fromB, true
			}
		}
		return false, false
	}
	for _, s := range a.Steps {
		tag := ir.BaseStage(s.StageName())
		if _, known := fromB(tag); known {
			continue
		}
		if scoreA == nil || scoreB == nil {
			tags = append(tags, choice{tag, rng.Intn(2) == 0})
		} else {
			tags = append(tags, choice{tag, scoreB[tag] > scoreA[tag]})
		}
	}
	same := func(s ir.Step, tag, kind string) bool {
		return s.Name() == kind && ir.BaseStage(s.StageName()) == tag
	}
	steps := dst
	for i, s := range a.Steps {
		tag, kind := ir.BaseStage(s.StageName()), s.Name()
		if donor, _ := fromB(tag); donor {
			// The n-th step of this tag and kind in a takes b's n-th.
			n := 0
			for _, prev := range a.Steps[:i] {
				if same(prev, tag, kind) {
					n++
				}
			}
			for _, t := range b.Steps {
				if same(t, tag, kind) {
					if n == 0 {
						s = t
						break
					}
					n--
				}
			}
		}
		steps = append(steps, inherit(s))
	}
	return steps
}
