// Package anno implements Ansor's random annotation (§4.2): it turns
// incomplete sketches into complete programs by randomly filling tile
// sizes, parallelizing outer loops, vectorizing inner loops, unrolling a
// few inner loops, tweaking compute locations, and rewriting constant
// tensor layouts.
package anno

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/ir"
	"repro/internal/sketch"
	"repro/internal/te"
)

// Sampler draws complete programs from sketches.
type Sampler struct {
	Target sketch.Target
	// Fixed selects the deterministic annotation policy used by the
	// template-guided baselines (§7.1: FlexTensor's "fixed unrolling
	// policy", templates that pre-decide parallel/vectorize placement):
	// tile sizes remain random, but annotations and compute locations
	// are fixed.
	Fixed bool
	src   *Source
	rng   *rand.Rand
	// tiles remembers, per sketch, the nodes its unfilled tiling steps
	// split (see tilePlan). It is the tree's one map keyed by a state's
	// address, and safe as one: sketches are heap states, never an
	// arena's, whose addresses come round again.
	tiles map[*ir.State][]*te.Node
}

// NewSampler returns a sampler seeded deterministically, drawing from a
// borrowed source that Release gives back.
func NewSampler(t sketch.Target, seed int64) *Sampler {
	src := BorrowSource(seed)
	return &Sampler{Target: t, src: src, rng: rand.New(src.Source64)}
}

// Release gives the sampler's source back; the sampler must not sample
// again.
func (sp *Sampler) Release() { sp.src.Release() }

// divisors memoizes Divisors: tile sampling and tile-size mutation ask
// for the same few hundred extents millions of times, from many
// goroutines.
var divisors sync.Map // int → []int

// Divisors returns the positive divisors of n in increasing order. The
// slice is shared between callers and must not be modified.
func Divisors(n int) []int {
	if ds, ok := divisors.Load(n); ok {
		return ds.([]int)
	}
	var out []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
			if d != n/d {
				out = append(out, n/d)
			}
		}
	}
	// insertion sort; divisor lists are tiny
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	divisors.Store(n, out)
	return out
}

// RandomFactors samples parts-1 inner tile lengths whose product divides
// extent (the outermost length is derived by the split).
func RandomFactors(rng *rand.Rand, extent, parts int) []int {
	return randomFactors(make([]int, parts-1), rng, extent)
}

// randomFactors fills fs with RandomFactors' draws.
func randomFactors(fs []int, rng *rand.Rand, extent int) []int {
	rem := extent
	for i := range fs {
		ds := Divisors(rem)
		fs[i] = ds[rng.Intn(len(ds))]
		rem /= fs[i]
	}
	return fs
}

// SampleIn draws one complete random program from a sketch into the
// arena's memory (nil: the heap's), the steps it makes and their step
// list included. The result's step list fully determines it
// (replayable); an error means this draw produced an invalid program,
// which gives back everything it took, and the caller should redraw.
func (sp *Sampler) SampleIn(a *ir.Arena, sk *ir.State) (*ir.State, error) {
	m := a.Mark()
	s, err := a.Replay(sk.DAG, sp.fillStructure(a, sk))
	if err == nil {
		err = sp.annotate(a, s)
	}
	if err == nil && !s.Complete() {
		err = fmt.Errorf("anno: sampled program still incomplete")
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

// SamplePopulation draws n valid programs, spreading draws across
// sketches (§4.2: "randomly pick one sketch").
func (sp *Sampler) SamplePopulation(sketches []*ir.State, n int) []*ir.State {
	return sp.SamplePopulationIn(nil, sketches, n)
}

// SamplePopulationIn is SamplePopulation into the arena's memory.
func (sp *Sampler) SamplePopulationIn(a *ir.Arena, sketches []*ir.State, n int) []*ir.State {
	var out []*ir.State
	attempts := 0
	for len(out) < n && attempts < 20*n {
		attempts++
		sk := sketches[sp.rng.Intn(len(sketches))]
		s, err := sp.SampleIn(a, sk)
		if err != nil {
			continue
		}
		out = append(out, s)
	}
	return out
}

// tilePlan returns, for every unfilled tiling step of the sketch, the
// node whose axes it splits (nil for other steps, and for a tiling step
// whose stage does not exist at that point of the replay). The nodes are
// read off one replay of the sketch and kept: which node a stage computes
// depends only on the cache-write and rfactor steps before it, which
// sampling never touches, so every sample of the sketch sees the same.
func (sp *Sampler) tilePlan(sk *ir.State) []*te.Node {
	if plan, ok := sp.tiles[sk]; ok {
		return plan
	}
	plan := make([]*te.Node, len(sk.Steps))
	state := ir.NewState(sk.DAG)
	for i, st := range sk.Steps {
		if t, ok := st.(*ir.MultiLevelTileStep); ok && t.SpaceFactors == nil {
			if stage := state.Stage(t.Stage); stage != nil {
				plan[i] = stage.Node
			}
		}
		// A step that fails here fails in SampleIn's Replay too, which
		// reports it.
		_ = state.Apply(st)
	}
	if sp.tiles == nil {
		sp.tiles = map[*ir.State][]*te.Node{}
	}
	sp.tiles[sk] = plan
	return plan
}

// annotationRoom bounds the steps annotate appends per stage: a fuse,
// three annotations, a pragma and a layout rewrite.
const annotationRoom = 6

// fillStructure returns the sketch's steps with unfilled tile factors
// randomly filled and, occasionally, the compute location (the fused
// consumer's split point) tweaked, in the arena with the room annotate
// needs. Steps it does not change are the sketch's own: a step is
// immutable once a state holds it.
func (sp *Sampler) fillStructure(a *ir.Arena, sk *ir.State) []ir.Step {
	plan := sp.tilePlan(sk)
	steps := a.Steps(len(sk.Steps) + annotationRoom*len(sk.Stages))[:len(sk.Steps)]
	for i, st := range sk.Steps {
		steps[i] = st
		switch t := st.(type) {
		case *ir.MultiLevelTileStep:
			if node := plan[i]; node != nil {
				c := ir.NewStep(a, *t)
				nSp, nRe := countLevels(t.Structure)
				c.SpaceFactors = a.Lists(len(node.SpaceAxes))
				for k, ax := range node.SpaceAxes {
					c.SpaceFactors[k] = randomFactors(a.Ints(nSp-1), sp.rng, ax.Extent)
				}
				c.ReduceFactors = a.Lists(len(node.ReduceAxes))
				for k, ax := range node.ReduceAxes {
					c.ReduceFactors[k] = randomFactors(a.Ints(nRe-1), sp.rng, ax.Extent)
				}
				steps[i] = c
			}
		case *ir.FuseConsumerStep:
			// Compute-location tweak: occasionally move the fusion point
			// one tile level out or in (§4.2 "randomly change the
			// computation location of some nodes").
			if !sp.Fixed && sp.rng.Float64() < 0.2 {
				c := ir.NewStep(a, *t)
				if sp.rng.Intn(2) == 0 && c.OuterLevels > 1 {
					c.OuterLevels--
				} else {
					c.OuterLevels++
				}
				steps[i] = c
			}
		}
	}
	return steps
}

func countLevels(structure string) (nSpace, nReduce int) {
	for _, c := range structure {
		if c == 'S' {
			nSpace++
		} else {
			nReduce++
		}
	}
	return
}

// annotate applies the random annotation pass to a complete state, its
// steps in the state's arena.
func (sp *Sampler) annotate(a *ir.Arena, s *ir.State) error {
	// auto_unroll_max_step candidates, as in TVM's auto_scheduler.
	unrollCandidates := []int{0, 16, 64, 512}
	for _, st := range s.Stages {
		if st.Inlined {
			continue
		}
		name := st.Name
		if !st.Attached {
			// Root stage: fuse a prefix of space loops and parallelize.
			nSpace := 0
			for _, it := range st.Iters {
				if it.Kind != te.Space {
					break
				}
				nSpace++
			}
			if nSpace > 0 {
				// Never fuse past an attach point: the attached producer
				// must keep recomputing once per fused iteration.
				maxFuse := nSpace
				for _, child := range s.Stages {
					if child.Attached && child.AttachTarget == name && child.AttachIdx+1 < maxFuse {
						maxFuse = child.AttachIdx + 1
					}
				}
				nf := maxFuse
				if !sp.Fixed && !sp.Target.GPU && maxFuse > 1 {
					// CPUs sometimes parallelize fewer levels.
					nf = 1 + sp.rng.Intn(maxFuse)
				}
				if nf >= 2 {
					if err := s.Apply(ir.NewStep(a, ir.FuseStep{Stage: name, First: 0, Count: nf})); err != nil {
						return err
					}
				}
				// GPU thread binding is mandatory: a kernel without a
				// block-distributed loop is not a valid GPU program.
				if st.Iters[0].Extent != 1 && (sp.Fixed || sp.Target.GPU || sp.rng.Float64() < 0.95) {
					if err := s.Apply(ir.NewStep(a, ir.AnnotateStep{Stage: name, IterIdx: 0, Ann: ir.AnnParallel})); err != nil {
						return err
					}
				}
			}
		}
		// Vectorize the innermost loop when it is a space loop.
		if n := len(st.Iters); n > 0 {
			last := st.Iters[n-1]
			if last.Kind == te.Space && last.Extent != 1 && last.Ann == ir.AnnNone &&
				(sp.Fixed || sp.Target.GPU || sp.rng.Float64() < 0.85) {
				if err := s.Apply(ir.NewStep(a, ir.AnnotateStep{Stage: name, IterIdx: n - 1, Ann: ir.AnnVectorize})); err != nil {
					return err
				}
			}
		}
		// Unroll pragma.
		if len(st.Node.ReduceAxes) > 0 || st.Attached {
			max := unrollCandidates[sp.rng.Intn(len(unrollCandidates))]
			if sp.Fixed {
				max = 16 // the baselines' fixed unrolling policy
			}
			if max > 0 {
				if err := s.Apply(ir.NewStep(a, ir.PragmaStep{Stage: name, AutoUnrollMax: max})); err != nil {
					return err
				}
			}
		}
		// Occasionally explicitly unroll a small inner reduce loop.
		if !sp.Fixed && sp.rng.Float64() < 0.3 {
			for i := len(st.Iters) - 1; i >= 0; i-- {
				it := st.Iters[i]
				if it.Kind == te.Reduce && it.Extent > 1 && it.Extent <= 16 && it.Ann == ir.AnnNone {
					if err := s.Apply(ir.NewStep(a, ir.AnnotateStep{Stage: name, IterIdx: i, Ann: ir.AnnUnroll})); err != nil {
						return err
					}
					break
				}
			}
		}
		// Layout-rewrite constant tensors of tiled stages (§4.2; always
		// profitable for inference, applied with high probability so the
		// cost model sees both variants).
		if st.TiledSpaceLevels > 0 && sp.rng.Float64() < 0.9 {
			hasConst := false
			for _, rd := range st.Node.Reads {
				if rd.Tensor.Const {
					hasConst = true
				}
			}
			if hasConst {
				if err := s.Apply(ir.NewStep(a, ir.LayoutRewriteStep{Stage: name})); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
