// Package sketch implements Ansor's sketch generation (§4.1): the
// derivation-based enumeration that recursively applies the rules of
// Table 1 to produce the high-level structures ("sketches") of the search
// space. Sketches are incomplete programs — tile structures without tile
// sizes or loop annotations; the annotation sampler (package anno)
// completes them. The rule set is Table 1's, closed: §4.1's
// user-registered rules are not offered (DESIGN.md says why).
package sketch

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/te"
)

// Target carries the hardware-dependent structural parameters.
type Target struct {
	// Structure is the multi-level tile structure: "SSRSRS" on CPUs,
	// "SSSRRSRS" on GPUs (§4.1).
	Structure string
	// FuseOuterLevels is how many outer space tile levels the fused
	// consumer owns.
	FuseOuterLevels int
	// VectorLanes guides the reduction-factorization split choices.
	VectorLanes int
	// GPU selects GPU annotation conventions downstream.
	GPU bool
}

// CPUTarget returns the CPU structural parameters used in the paper.
func CPUTarget() Target {
	return Target{Structure: "SSRSRS", FuseOuterLevels: 2, VectorLanes: 8}
}

// GPUTarget returns the GPU structural parameters.
func GPUTarget() Target {
	return Target{Structure: "SSSRRSRS", FuseOuterLevels: 3, VectorLanes: 32, GPU: true}
}

// sigma is one state σ = (S, i) of the derivation: a rewritten program and
// the next working-stage index (the derivation is terminal when i < 0).
type sigma struct {
	s *ir.State
	i int
}

// maxSketches bounds the enumeration (safety valve; the DAGs in the
// paper's workloads generate a handful of sketches each).
const maxSketches = 64

// Restrictions model the limited search spaces of the baseline frameworks
// (§7.1's "Limited space" ablation, FlexTensor's missing fusion, Halide's
// missing reduction splitting). All false for Ansor.
type Restrictions struct {
	DisableFusion     bool // no rule 4 (consumer fusion)
	DisableCacheWrite bool // no rule 5
	DisableRFactor    bool // no rule 6
	DisableInline     bool // no rule 2
}

// Generator enumerates sketches for a DAG.
type Generator struct {
	Target Target
	Restrictions
}

// NewGenerator returns a sketch generator for the target.
func NewGenerator(t Target) *Generator { return &Generator{Target: t} }

// Generate returns all sketches of the DAG: every terminal state of the
// derivation, deduplicated by structural signature.
func (g *Generator) Generate(dag *te.DAG) ([]*ir.State, error) {
	if err := dag.Validate(); err != nil {
		return nil, fmt.Errorf("sketch: %w", err)
	}
	init := ir.NewState(dag)
	queue := []sigma{{init, len(init.Stages) - 1}}
	var out []*ir.State
	seen := map[string]bool{}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.i < 0 {
			sig := cur.s.Signature()
			if !seen[sig] {
				seen[sig] = true
				out = append(out, cur.s)
			}
			if len(out) >= maxSketches {
				break
			}
			continue
		}
		queue = append(queue, g.derive(cur.s, cur.i)...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sketch: no sketches derived for dag %q", dag.Name)
	}
	return out, nil
}

// derive applies the rules of Table 1 that hold at state (s, i). Inline
// and tiling rules are exclusive ("apply and skip rest" in priority
// order); the cache-stage and rfactor rules add extra branches; skip
// fires only when nothing else did. The rule set is closed: a new rule
// is a meets/apply pair added here, in Table 1's priority order.
func (g *Generator) derive(s *ir.State, i int) []sigma {
	st := s.Stages[i]
	var next []sigma
	switch {
	case !g.DisableInline && meetsAlwaysInline(s, st):
		next = applyAlwaysInline(s, i)
	case !g.DisableFusion && hasDataReuse(st) && fusibleConsumer(s, st) != nil: // rule 4
		next = applyTilingWithFusion(g.Target, s, i)
		if !g.DisableRFactor && meetsRFactor(st) {
			next = append(next, applyRFactor(g.Target.VectorLanes, s, i)...)
		}
	case hasDataReuse(st): // rule 3
		next = applyMultiLevelTiling(g.Target.Structure, s, i)
		if !g.DisableCacheWrite && meetsAddCacheStage(s, st) {
			next = append(next, applyAddCacheStage(s, i)...)
		}
		if !g.DisableRFactor && meetsRFactor(st) {
			next = append(next, applyRFactor(g.Target.VectorLanes, s, i)...)
		}
	default: // rule 1: skip
		next = []sigma{{s, i - 1}}
	}
	return next
}

// ---- Predicates (the condition column of Table 1) ----

// hasDataReuse: compute-intensive stage, still untransformed. It is rule
// 3's condition, and rules 4–6 add theirs to it.
func hasDataReuse(st *ir.Stage) bool {
	return st.Node.DataReuse && !st.Inlined && !st.Attached && st.TiledSpaceLevels == 0
}

// fusibleConsumer returns the stage's effective consumer if rule 4 can
// fuse into it, else nil.
func fusibleConsumer(s *ir.State, st *ir.Stage) *ir.Stage {
	c := s.EffectiveConsumer(st)
	if c == nil || c.Attached || c.Inlined || c.TiledSpaceLevels > 0 {
		return nil
	}
	if len(c.Node.ReduceAxes) > 0 || len(c.Node.SpaceAxes) != len(st.Node.SpaceAxes) {
		return nil
	}
	if c.Node.SpaceSize() != st.Node.SpaceSize() {
		return nil
	}
	return c
}

// meetsAlwaysInline is rule 2's condition: a simple elementwise stage with
// at least one consumer.
func meetsAlwaysInline(s *ir.State, st *ir.Stage) bool {
	return st.Node.StrictInlinable && !st.Inlined && !st.Attached &&
		len(st.Node.ReduceAxes) == 0 && len(s.ConsumerStages(st)) > 0
}

// meetsAddCacheStage is rule 5's condition: a data-reuse stage with no
// fusible consumer.
func meetsAddCacheStage(s *ir.State, st *ir.Stage) bool {
	return hasDataReuse(st) && fusibleConsumer(s, st) == nil && st.Kind == ir.StageNormal
}

// meetsRFactor is rule 6's condition: a data-reuse stage with more
// parallelism in its reduction than in its space.
func meetsRFactor(st *ir.Stage) bool {
	return hasDataReuse(st) && st.Kind == ir.StageNormal && st.Node.HasMoreReductionParallel()
}

// ---- Rules (the application column of Table 1) ----
//
// Each apply clones s and leaves it unmodified.

// applyAlwaysInline is rule 2.
func applyAlwaysInline(s *ir.State, i int) []sigma {
	c := s.Clone()
	if err := c.Apply(&ir.InlineStep{Stage: c.Stages[i].Name}); err != nil {
		return nil
	}
	return []sigma{{c, i - 1}}
}

// applyMultiLevelTiling is rule 3.
func applyMultiLevelTiling(structure string, s *ir.State, i int) []sigma {
	c := s.Clone()
	if err := c.Apply(&ir.MultiLevelTileStep{Stage: c.Stages[i].Name, Structure: structure}); err != nil {
		return nil
	}
	return []sigma{{c, i - 1}}
}

// applyTilingWithFusion is rule 4.
func applyTilingWithFusion(t Target, s *ir.State, i int) []sigma {
	st := s.Stages[i]
	cons := fusibleConsumer(s, st)
	c := s.Clone()
	if err := c.Apply(&ir.MultiLevelTileStep{Stage: st.Name, Structure: t.Structure}); err != nil {
		return nil
	}
	if err := c.Apply(&ir.FuseConsumerStep{
		Producer: st.Name, Consumer: cons.Name, OuterLevels: t.FuseOuterLevels,
	}); err != nil {
		return nil
	}
	return []sigma{{c, i - 1}}
}

// applyAddCacheStage is rule 5. It keeps the working index on the
// inserted cache stage, which then satisfies rule 4 (the copy-out stage is
// its fusible consumer).
func applyAddCacheStage(s *ir.State, i int) []sigma {
	c := s.Clone()
	if err := c.Apply(&ir.CacheWriteStep{Stage: c.Stages[i].Name}); err != nil {
		return nil
	}
	// The cache stage was inserted at index i; revisit it.
	return []sigma{{c, i}}
}

// applyRFactor is rule 6: rfactor a reduction-heavy stage, branching over
// a few vectorization-friendly factors. The factor remains mutable during
// fine-tuning (tile-size mutation rewrites it).
func applyRFactor(lanes int, s *ir.State, i int) []sigma {
	st := s.Stages[i]
	// Pick the largest reduce axis and factor it.
	best, bestExt := -1, 0
	for ri, a := range st.Node.ReduceAxes {
		if a.Extent > bestExt {
			best, bestExt = ri, a.Extent
		}
	}
	if best < 0 {
		return nil
	}
	var out []sigma
	for _, f := range []int{lanes, 4 * lanes} {
		if f <= 1 || bestExt%f != 0 || f >= bestExt {
			continue
		}
		c := s.Clone()
		if err := c.Apply(&ir.RFactorStep{Stage: st.Name, ReduceIdx: best, Factor: f}); err != nil {
			continue
		}
		out = append(out, sigma{c, i - 1})
	}
	return out
}
