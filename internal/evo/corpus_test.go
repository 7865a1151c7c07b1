package evo

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/anno"
	"repro/internal/feat"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
)

// The golden corpus pins the whole program path — replay, validation,
// printing, lowering, feature extraction, simulation and step-failure
// diagnostics — on a seeded walk over every operator family and both
// target classes. It lives next to the representation it pins
// (internal/ir/testdata) and is driven from here because the walk needs
// the mutation and crossover operators.

const corpusPath = "../ir/testdata/corpus.golden"

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the golden program corpus from the current run")

// walkTarget is one target class of the walk.
type walkTarget struct {
	name    string
	space   sketch.Target
	machine *sim.Machine
}

func walkTargets() []walkTarget {
	return []walkTarget{
		{"cpu", sketch.CPUTarget(), sim.IntelXeon()},
		{"gpu", sketch.GPUTarget(), sim.NVIDIAV100()},
	}
}

// walkFamilies returns the first shape of every single-operator family
// and of both subgraph families.
func walkFamilies() []workloads.Workload {
	var out []workloads.Workload
	seen := map[string]bool{}
	for _, w := range append(workloads.SingleOps(1), workloads.Subgraphs(1)...) {
		if !seen[w.Op] {
			seen[w.Op] = true
			out = append(out, w)
		}
	}
	return out
}

// candidate is one program the walk derived: a step list and what
// replaying it gave.
type candidate struct {
	label string
	steps []ir.Step
	state *ir.State // nil when the program is invalid
	err   error
}

// walk derives programs of one DAG the way the search does: sketches,
// random annotation, then mutations and node crossovers of what has been
// found valid so far — in the arena's memory (nil: the heap's), as the
// search's are. Everything is a function of seed; invalid programs are
// yielded too, and must have given back what they took.
func walk(t *testing.T, a *ir.Arena, dag *te.DAG, tgt sketch.Target, seed int64, samples, mutations, crossovers int) []candidate {
	t.Helper()
	sketches, err := sketch.NewGenerator(tgt).Generate(dag)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	sampler := anno.NewSampler(tgt, seed)
	var out []candidate
	var pop []*ir.State
	before := a.Mark()
	add := func(label string, steps []ir.Step, s *ir.State, err error) {
		out = append(out, candidate{label, steps, s, err})
		if s != nil {
			pop = append(pop, s)
			if s.InArena() != (a != nil) {
				t.Fatalf("%s %s: program in an arena: %v, walking in one: %v", dag.Name, label, s.InArena(), a != nil)
			}
		} else if a.Mark() != before {
			t.Fatalf("%s %s: rejected program left the arena at %v, was at %v", dag.Name, label, a.Mark(), before)
		}
		before = a.Mark()
	}
	for i := 0; i < samples; i++ {
		s, err := sampler.SampleIn(a, sketches[rng.Intn(len(sketches))])
		var steps []ir.Step
		if s != nil {
			steps = s.Steps
		}
		add(fmt.Sprintf("sample %d", i), steps, s, err)
	}
	if len(pop) == 0 {
		t.Fatalf("%s: no valid sample in %d draws", dag.Name, samples)
	}
	for i := 0; i < mutations; i++ {
		label := fmt.Sprintf("mutation %d", i)
		steps, ok := mutateSteps(nil, pop[rng.Intn(len(pop))].Steps, rng)
		if !ok {
			add(label, nil, nil, fmt.Errorf("nothing to mutate"))
			continue
		}
		s, err := replayChild(a, dag, steps)
		add(label, steps, s, err)
	}
	for i := 0; i < crossovers; i++ {
		x, y := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
		steps := crossoverSteps(nil, x, y, nil, nil, rng)
		s, err := replayChild(a, dag, steps)
		add(fmt.Sprintf("crossover %d", i), steps, s, err)
	}
	return out
}

func short(k te.AxisKind) string {
	if k == te.Reduce {
		return "R"
	}
	return "S"
}

// dumpLowered renders every loop and every stride coefficient.
func dumpLowered(b *strings.Builder, low *ir.Lowered) {
	access := func(tag string, a *ir.FlatAccess) {
		fmt.Fprintf(b, "  %s %s", tag, a.Tensor.Name)
		for d := range a.Tensor.Shape {
			fmt.Fprintf(b, " %v", a.Row(d))
		}
		b.WriteByte('\n')
	}
	for _, st := range low.Stmts {
		fmt.Fprintf(b, " stmt %s unroll=%d zero=%v packed=%v flops=%v\n  loops",
			st.Stage.Name, st.AutoUnrollMax, st.ZeroFrac, st.PackedConst, st.Flops)
		for _, l := range st.Loops {
			fused := ""
			if l.FusedWithPrev {
				fused = "+"
			}
			fmt.Fprintf(b, " %s%s/%s:%d:%s:%s", fused, l.Owner.Name, l.Name(), l.Extent, short(l.Kind), l.Ann)
		}
		b.WriteByte('\n')
		for i := range st.Reads {
			access("read", &st.Reads[i])
		}
		access("write", st.Write)
	}
}

// dumpCandidate renders one program of the corpus.
func dumpCandidate(b *strings.Builder, c candidate, m *sim.Machine) {
	if c.state == nil {
		fmt.Fprintf(b, "error: %v\n", c.err)
		return
	}
	s := c.state
	fmt.Fprintf(b, "sig: %s\nfamily: %s\n%s", s.Signature(), s.FamilySignature(), s.Print())
	low, err := ir.Lower(s)
	if err != nil {
		fmt.Fprintf(b, "lower error: %v\n", err)
		return
	}
	dumpLowered(b, low)
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range feat.Extract(low) {
		for _, v := range row {
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	fmt.Fprintf(b, " feat: %016x\n sim: %016x\n", h.Sum64(), math.Float64bits(m.Time(low)))
}

// handBuilt lists step sequences the walk never derives: split chains
// (whose loop names nest), reorders, compute-at and compute-root, and a
// failing last step for the diagnostics of every step kind. Each case
// applies its steps in order to the naive program and stops at the first
// failure.
func handBuilt() []struct {
	name  string
	dag   *te.DAG
	steps []ir.Step
} {
	mm := func() *te.DAG { return matmulReLU(64, 64, 64) }
	conv := func() *te.DAG {
		b := te.NewBuilder("conv_relu")
		x := b.Input("X", 1, 32, 16, 16)
		b.ReLU(b.Conv2D(x, te.ConvOpts{OutChannels: 32, Kernel: 3, Pad: 1}))
		return b.MustFinish()
	}
	nrm := func() *te.DAG {
		b := te.NewBuilder("nrm")
		b.Norm(b.Input("X", 2, 16, 16))
		return b.MustFinish()
	}
	tiled := &ir.MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS",
		SpaceFactors: [][]int{{4, 2, 2}, {2, 4, 2}}, ReduceFactors: [][]int{{8}}}
	type c = struct {
		name  string
		dag   *te.DAG
		steps []ir.Step
	}
	return []c{
		{"split chain", mm(), []ir.Step{
			&ir.SplitStep{Stage: "matmul", IterIdx: 0, Factors: []int{8, 2}},
			&ir.SplitStep{Stage: "matmul", IterIdx: 1, Factors: []int{2}},
			&ir.SplitStep{Stage: "matmul", IterIdx: 2, Factors: []int{2}},
			&ir.FuseStep{Stage: "matmul", First: 0, Count: 2},
			&ir.FuseStep{Stage: "matmul", First: 0, Count: 2},
			&ir.ReorderStep{Stage: "matmul", Perm: []int{0, 2, 1, 4, 3}},
			&ir.AnnotateStep{Stage: "matmul", IterIdx: 0, Ann: ir.AnnParallel},
			&ir.AnnotateStep{Stage: "matmul", IterIdx: 4, Ann: ir.AnnUnroll},
			&ir.SplitStep{Stage: "matmul", IterIdx: 0, Factors: []int{2}},
		}},
		{"split unfilled", mm(), []ir.Step{
			&ir.MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS"},
			&ir.SplitStep{Stage: "matmul", IterIdx: 3, Factors: []int{ir.Unfilled}},
			&ir.SplitStep{Stage: "matmul", IterIdx: 0, Factors: nil},
		}},
		{"split errors", mm(), []ir.Step{
			&ir.SplitStep{Stage: "matmul", IterIdx: 0, Factors: []int{8}},
			&ir.SplitStep{Stage: "matmul", IterIdx: 1, Factors: []int{ir.Unfilled}},
		}},
		{"split bad factor", mm(), []ir.Step{
			&ir.SplitStep{Stage: "matmul", IterIdx: 0, Factors: []int{4}},
			&ir.SplitStep{Stage: "matmul", IterIdx: 1, Factors: []int{3}},
		}},
		{"split range", mm(), []ir.Step{&ir.SplitStep{Stage: "matmul", IterIdx: 9, Factors: []int{2}}}},
		{"split missing", mm(), []ir.Step{&ir.SplitStep{Stage: "nosuch", IterIdx: 0, Factors: []int{2}}}},
		{"reorder bad", mm(), []ir.Step{&ir.ReorderStep{Stage: "matmul", Perm: []int{0, 0, 1}}}},
		{"reorder size", mm(), []ir.Step{&ir.ReorderStep{Stage: "matmul", Perm: []int{1, 0}}}},
		{"fuse mixed", mm(), []ir.Step{&ir.FuseStep{Stage: "matmul", First: 1, Count: 2}}},
		{"fuse range", mm(), []ir.Step{&ir.FuseStep{Stage: "matmul", First: 2, Count: 2}}},
		{"annotate reduce", mm(), []ir.Step{
			&ir.SplitStep{Stage: "matmul", IterIdx: 2, Factors: []int{4}},
			&ir.FuseStep{Stage: "matmul", First: 2, Count: 2},
			&ir.AnnotateStep{Stage: "matmul", IterIdx: 2, Ann: ir.AnnVectorize},
		}},
		{"inline reduce", mm(), []ir.Step{&ir.InlineStep{Stage: "matmul"}}},
		{"inline sink", mm(), []ir.Step{&ir.InlineStep{Stage: "relu"}}},
		{"pragma missing", mm(), []ir.Step{&ir.PragmaStep{Stage: "nosuch", AutoUnrollMax: 16}}},
		{"layout no const", mm(), []ir.Step{&ir.LayoutRewriteStep{Stage: "relu"}}},
		{"tile twice", mm(), []ir.Step{tiled, tiled}},
		{"tile structure", mm(), []ir.Step{&ir.MultiLevelTileStep{Stage: "matmul", Structure: "SXS"}}},
		{"tile no reduce", mm(), []ir.Step{&ir.MultiLevelTileStep{Stage: "relu", Structure: "SRS"}}},
		{"tile factor count", mm(), []ir.Step{&ir.MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS",
			SpaceFactors: [][]int{{4, 2}, {2, 4, 2}}, ReduceFactors: [][]int{{8}}}}},
		{"tile reduce factor", mm(), []ir.Step{&ir.MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS",
			SpaceFactors: [][]int{{4, 2, 2}, {2, 4, 2}}, ReduceFactors: [][]int{{5}}}}},
		{"tile space only", mm(), []ir.Step{&ir.MultiLevelTileStep{Stage: "matmul", Structure: "SS",
			SpaceFactors: [][]int{{4}, {8}}}}},
		{"fuse consumer", mm(), []ir.Step{tiled,
			&ir.FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 2},
			&ir.FuseStep{Stage: "relu", First: 0, Count: 4},
			&ir.FuseStep{Stage: "relu", First: 0, Count: 2},
		}},
		{"fuse consumer levels", mm(), []ir.Step{tiled,
			&ir.FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 5}}},
		{"fuse consumer twice", mm(), []ir.Step{tiled,
			&ir.FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 1},
			&ir.FuseConsumerStep{Producer: "matmul", Consumer: "relu", OuterLevels: 1}}},
		{"fuse consumer missing", mm(), []ir.Step{&ir.FuseConsumerStep{Producer: "matmul", Consumer: "nosuch", OuterLevels: 1}}},
		{"fuse consumer not elementwise", conv(), []ir.Step{
			&ir.MultiLevelTileStep{Stage: "pad", Structure: "SS"},
			&ir.FuseConsumerStep{Producer: "pad", Consumer: "relu", OuterLevels: 1}}},
		{"cache write", mm(), []ir.Step{
			&ir.CacheWriteStep{Stage: "matmul"},
			&ir.CacheWriteStep{Stage: "matmul.cache"}}},
		{"rfactor", nrm(), []ir.Step{
			&ir.RFactorStep{Stage: "norm_sumsq", ReduceIdx: 1, Factor: 4},
			&ir.RFactorStep{Stage: "norm_sumsq", ReduceIdx: 0, Factor: 3}}},
		{"rfactor range", nrm(), []ir.Step{&ir.RFactorStep{Stage: "norm_sumsq", ReduceIdx: 7, Factor: 4}}},
		{"rfactor twice", nrm(), []ir.Step{
			&ir.RFactorStep{Stage: "norm_sumsq", ReduceIdx: 0, Factor: 4},
			&ir.RFactorStep{Stage: "norm_sumsq.rf", ReduceIdx: 0, Factor: 2}}},
		{"compute at", conv(), []ir.Step{
			&ir.MultiLevelTileStep{Stage: "conv2d", Structure: "SSRSRS",
				SpaceFactors: [][]int{{1, 1, 1}, {4, 2, 2}, {2, 2, 2}, {2, 2, 2}}, ReduceFactors: [][]int{{4}, {3}, {1}}},
			&ir.ComputeAtStep{Stage: "pad", Target: "conv2d", IterIdx: 7},
			&ir.AnnotateStep{Stage: "pad", IterIdx: 3, Ann: ir.AnnVectorize},
			&ir.ComputeRootStep{Stage: "pad"},
			&ir.ComputeRootStep{Stage: "pad"}}},
		{"compute at fused target", conv(), []ir.Step{
			&ir.MultiLevelTileStep{Stage: "conv2d", Structure: "SSRSRS",
				SpaceFactors: [][]int{{1, 1, 1}, {2, 2, 4}, {4, 2, 1}, {1, 4, 2}}, ReduceFactors: [][]int{{8}, {1}, {3}}},
			&ir.FuseStep{Stage: "conv2d", First: 0, Count: 3},
			&ir.ComputeAtStep{Stage: "pad", Target: "conv2d", IterIdx: 4},
			&ir.FuseStep{Stage: "conv2d", First: 0, Count: 2},
			&ir.AnnotateStep{Stage: "conv2d", IterIdx: 0, Ann: ir.AnnParallel},
			&ir.PragmaStep{Stage: "pad", AutoUnrollMax: 16}}},
		{"compute at unfilled", conv(), []ir.Step{
			&ir.MultiLevelTileStep{Stage: "conv2d", Structure: "SSRSRS"},
			&ir.ComputeAtStep{Stage: "pad", Target: "conv2d", IterIdx: 7}}},
		{"compute at reduce", mm(), []ir.Step{&ir.ComputeAtStep{Stage: "matmul", Target: "relu", IterIdx: 0}}},
		{"compute at range", conv(), []ir.Step{&ir.ComputeAtStep{Stage: "pad", Target: "conv2d", IterIdx: 70}}},
		{"compute at unrelated", conv(), []ir.Step{&ir.ComputeAtStep{Stage: "pad", Target: "relu", IterIdx: 0}}},
		{"compute at inlined", conv(), []ir.Step{
			&ir.InlineStep{Stage: "pad"},
			&ir.ComputeAtStep{Stage: "pad", Target: "conv2d", IterIdx: 0}}},
		{"inline attached", conv(), []ir.Step{
			&ir.ComputeAtStep{Stage: "pad", Target: "conv2d", IterIdx: 3},
			&ir.FuseStep{Stage: "conv2d", First: 2, Count: 2},
			&ir.InlineStep{Stage: "pad"}}},
	}
}

// corpusMode is where the walked programs of a rendering live.
type corpusMode int

const (
	onHeap   corpusMode = iota // replayed onto the heap, as the corpus was recorded
	inArena                    // replayed into a borrowed arena and rendered there
	detached                   // replayed into an arena, cloned, rendered after its release
)

func renderCorpus(t *testing.T, mode corpusMode) []byte {
	var b strings.Builder
	for _, c := range handBuilt() {
		fmt.Fprintf(&b, "== hand-built %s\n", c.name)
		s := ir.NewState(c.dag)
		for i, step := range c.steps {
			if err := s.Apply(step); err != nil {
				fmt.Fprintf(&b, "step %d (%s) error: %v\n", i, step.Name(), err)
				break
			}
		}
		fmt.Fprintf(&b, "sig: %s\n%s", s.Signature(), s.Print())
		if low, err := ir.Lower(s); err != nil {
			fmt.Fprintf(&b, "lower error: %v\n", err)
		} else {
			dumpLowered(&b, low)
		}
	}
	for fi, w := range walkFamilies() {
		for ti, tgt := range walkTargets() {
			dag := w.Build()
			// The sketches themselves: incomplete programs, whose unfilled
			// tile sizes print as placeholders named after their loops.
			sketches, err := sketch.NewGenerator(tgt.space).Generate(dag)
			if err != nil {
				t.Fatal(err)
			}
			for i, sk := range sketches {
				fmt.Fprintf(&b, "== %s %s sketch %d\nsig: %s\n%s", w.Key, tgt.name, i, sk.Signature(), sk.Print())
			}
			// Every walk borrows afresh: its programs go into the chunks
			// the walk before it left.
			var a *ir.Arena
			if mode != onHeap {
				a = ir.BorrowArena()
			}
			cands := walk(t, a, dag, tgt.space, int64(100*fi+ti+1), 4, 8, 3)
			if mode == detached {
				for i := range cands {
					if cands[i].state != nil {
						cands[i].state = cands[i].state.Clone()
					}
				}
				a.Release()
			}
			for _, c := range cands {
				fmt.Fprintf(&b, "== %s %s %s\n", w.Key, tgt.name, c.label)
				dumpCandidate(&b, c, tgt.machine)
			}
			if mode == inArena {
				a.Release()
			}
		}
	}
	return []byte(b.String())
}

// TestGoldenCorpus replays the recorded walk and compares every byte:
// signatures, printed nests, loops, stride coefficients, feature bits,
// simulated time bits and error text. It replays it three times — onto the
// heap, into borrowed arenas, and into arenas that are released before
// their programs' heap clones are read — and every rendering must be the
// recorded one: where a program lives changes nothing a reader can see.
func TestGoldenCorpus(t *testing.T) {
	if *updateCorpus {
		if err := os.WriteFile(corpusPath, renderCorpus(t, onHeap), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(corpusPath)
	if err != nil {
		t.Fatalf("%v (run with -update-corpus to create it)", err)
	}
	for _, mode := range []corpusMode{onHeap, inArena, detached} {
		compareCorpus(t, mode, renderCorpus(t, mode), want)
	}
}

func compareCorpus(t *testing.T, mode corpusMode, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			section = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("mode %d: corpus diverges at line %d (%s)\n got: %s\nwant: %s", mode, i+1, section, gl[i], wl[i])
		}
	}
	t.Fatalf("mode %d: corpus length differs: got %d lines, want %d", mode, len(gl), len(wl))
}

// miniFamilies builds every family of walkFamilies at a size the
// iteration-space checker can enumerate.
func miniFamilies() []workloads.Workload {
	conv := func(name string, emit func(b *te.Builder, x *te.Tensor)) func() *te.DAG {
		return func() *te.DAG {
			b := te.NewBuilder(name)
			emit(b, b.Input("X", 1, 8, 6, 6))
			return b.MustFinish()
		}
	}
	return []workloads.Workload{
		{Key: "C1D", Build: func() *te.DAG {
			b := te.NewBuilder("c1d")
			b.ReLU(b.Conv1D(b.Input("X", 1, 8, 16), te.ConvOpts{OutChannels: 8, Kernel: 3, Pad: 1}))
			return b.MustFinish()
		}},
		{Key: "C2D", Build: conv("c2d", func(b *te.Builder, x *te.Tensor) {
			b.ReLU(b.Conv2D(x, te.ConvOpts{OutChannels: 8, Kernel: 3, Pad: 1}))
		})},
		{Key: "C3D", Build: func() *te.DAG {
			b := te.NewBuilder("c3d")
			b.ReLU(b.Conv3D(b.Input("X", 1, 4, 4, 4, 4), te.ConvOpts{OutChannels: 4, Kernel: 3, Pad: 1}))
			return b.MustFinish()
		}},
		{Key: "GMM", Build: func() *te.DAG {
			b := te.NewBuilder("gmm")
			b.BatchMatmul(b.Input("A", 2, 8, 16), b.Input("B", 2, 16, 8), te.MatmulOpts{})
			return b.MustFinish()
		}},
		{Key: "GRP", Build: conv("grp", func(b *te.Builder, x *te.Tensor) {
			b.ReLU(b.Conv2D(x, te.ConvOpts{OutChannels: 8, Kernel: 3, Pad: 1, Groups: 4}))
		})},
		{Key: "DIL", Build: conv("dil", func(b *te.Builder, x *te.Tensor) {
			b.ReLU(b.Conv2D(x, te.ConvOpts{OutChannels: 8, Kernel: 3, Pad: 2, Dilation: 2}))
		})},
		{Key: "DEP", Build: conv("dep", func(b *te.Builder, x *te.Tensor) {
			b.ReLU(b.DepthwiseConv2D(x, te.ConvOpts{Kernel: 3, Pad: 1}))
		})},
		{Key: "T2D", Build: conv("t2d", func(b *te.Builder, x *te.Tensor) {
			b.ReLU(b.TransposedConv2D(x, te.ConvOpts{OutChannels: 4, Kernel: 4, Stride: 2, Pad: 1}))
		})},
		{Key: "CAP", Build: conv("cap", func(b *te.Builder, x *te.Tensor) {
			b.CapsuleConv2D(x, te.ConvOpts{OutChannels: 8, Kernel: 3, Pad: 1})
		})},
		{Key: "NRM", Build: func() *te.DAG {
			b := te.NewBuilder("nrm")
			b.Norm(b.Input("X", 2, 16, 16))
			return b.MustFinish()
		}},
		{Key: "ConvLayer", Build: conv("convlayer", func(b *te.Builder, x *te.Tensor) {
			b.ReLU(b.BatchNorm(b.Conv2D(x, te.ConvOpts{OutChannels: 8, Kernel: 3, Pad: 1}), 1))
		})},
		{Key: "TBG", Build: func() *te.DAG { return workloads.TBG(1, 2, 8, 4) }},
	}
}

// checkLegal asserts what must hold of every program the search can
// emit: it lowers, every access stays inside its tensor (CheckBounds), and its step
// list survives the wire encoding. With verify set it is also compared,
// write for write, with the naive program.
func checkLegal(t *testing.T, where string, dag *te.DAG, m *sim.Machine, c candidate, verify bool) {
	t.Helper()
	s := c.state
	if s.InArena() {
		// Where a program lives is invisible: its heap replay and its heap
		// clone read as it does, down to feature and simulated-time bits.
		var here, heap, clone strings.Builder
		dumpCandidate(&here, c, m)
		again, err := ir.Replay(dag, s.Steps)
		dumpCandidate(&heap, candidate{state: again, err: err}, m)
		dumpCandidate(&clone, candidate{state: s.Clone()}, m)
		if here.String() != heap.String() || here.String() != clone.String() {
			t.Errorf("%s: arena replay, heap replay and clone differ:\n%s\n%s\n%s", where, &here, &heap, &clone)
		}
	}
	low, err := ir.Lower(s)
	if err != nil {
		t.Errorf("%s: valid program does not lower: %v\n%s", where, err, s.Print())
		return
	}
	if err := low.CheckBounds(); err != nil {
		t.Errorf("%s: %v\n%s", where, err, s.Print())
	}
	enc, err := ir.EncodeSteps(s.Steps)
	if err != nil {
		t.Fatalf("%s: encode: %v", where, err)
	}
	dec, err := ir.DecodeSteps(enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", where, err)
	}
	if again, err := ir.Replay(dag, dec); err != nil || again.Signature() != s.Signature() {
		t.Errorf("%s: steps do not round-trip: %v", where, err)
	}
	if verify {
		if err := ir.VerifyAgainstNaive(s, 1<<22); err != nil {
			t.Errorf("%s: %v\n%s", where, err, s.Print())
		}
	}
}

// TestWalkLegality is ROADMAP item 5(c)'s generator: the walk of the
// golden corpus, longer, with the legality oracle pointed at every valid
// program it derives — mutation and crossover offspring included. The
// programs live where the search's do, in a borrowed arena, one per walk.
func TestWalkLegality(t *testing.T) {
	run := func(fams []workloads.Workload, verify bool, mutations, crossovers int) {
		for fi, w := range fams {
			for ti, tgt := range walkTargets() {
				dag := w.Build()
				valid := 0
				a := ir.BorrowArena()
				for _, c := range walk(t, a, dag, tgt.space, int64(1000+100*fi+ti), 6, mutations, crossovers) {
					if c.state != nil {
						valid++
						checkLegal(t, fmt.Sprintf("%s %s %s", w.Key, tgt.name, c.label), dag, tgt.machine, c, verify)
					}
				}
				a.Release()
				if valid < 8 {
					t.Errorf("%s %s: only %d valid programs walked", w.Key, tgt.name, valid)
				}
			}
		}
	}
	// The write-count enumeration is single-threaded arithmetic that the
	// race detector only slows thirtyfold; the plain run covers it.
	run(miniFamilies(), !raceDetector, 24, 12)
	run(walkFamilies(), false, 12, 6)
}

// refEncodeSteps is the reflection encoder ir.EncodeSteps replaced: the
// bytes every record log, registry store and resume-cache key was written
// in, which the hand-written encoder must keep writing.
func refEncodeSteps(t *testing.T, steps []ir.Step) []byte {
	t.Helper()
	type envelope struct {
		Kind string          `json:"kind"`
		Data json.RawMessage `json:"data"`
	}
	envs := make([]envelope, len(steps))
	for i, s := range steps {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = envelope{s.Name(), data}
	}
	out, err := json.Marshal(envs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStepEncodingMatchesOracle holds ir.EncodeSteps to the oracle's
// bytes, and ir.DecodeSteps to an exact round trip, on every step list of
// the golden corpus: the hand-built cases, the sketches (unfilled tiles:
// nil factor lists) and the seeded walk of every operator family on both
// target classes, valid programs and invalid ones alike.
func TestStepEncodingMatchesOracle(t *testing.T) {
	n := 0
	check := func(where string, steps []ir.Step) {
		t.Helper()
		n++
		got, err := ir.EncodeSteps(steps)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if want := refEncodeSteps(t, steps); !bytes.Equal(got, want) {
			t.Fatalf("%s encodes differently:\n got %s\nwant %s", where, got, want)
		}
		dec, err := ir.DecodeSteps(got)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if len(dec) != len(steps) || (len(steps) > 0 && !reflect.DeepEqual(dec, steps)) {
			t.Fatalf("%s does not round-trip: %s", where, got)
		}
	}
	for _, c := range handBuilt() {
		check("hand-built "+c.name, c.steps)
	}
	for fi, w := range walkFamilies() {
		for ti, tgt := range walkTargets() {
			dag := w.Build()
			sketches, err := sketch.NewGenerator(tgt.space).Generate(dag)
			if err != nil {
				t.Fatal(err)
			}
			for i, sk := range sketches {
				check(fmt.Sprintf("%s %s sketch %d", w.Key, tgt.name, i), sk.Steps)
			}
			for _, c := range walk(t, nil, dag, tgt.space, int64(100*fi+ti+1), 4, 8, 3) {
				check(fmt.Sprintf("%s %s %s", w.Key, tgt.name, c.label), c.steps)
			}
		}
	}
	t.Logf("%d step lists", n)
}
