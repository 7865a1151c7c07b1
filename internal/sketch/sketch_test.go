package sketch

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/te"
)

func matmulReLU(n, m, k int) *te.DAG {
	b := te.NewBuilder("matmul_relu")
	a := b.Input("A", n, k)
	c := b.Matmul(a, m, true)
	b.ReLU(c)
	return b.MustFinish()
}

func TestMatmulReLUSingleSketch(t *testing.T) {
	// The Figure-5 example-input-1 derivation: relu (output) is skipped,
	// matmul is tiled and fused into relu -> exactly one sketch.
	g := NewGenerator(CPUTarget())
	sk, err := g.Generate(matmulReLU(512, 512, 512))
	if err != nil {
		t.Fatal(err)
	}
	if len(sk) != 1 {
		t.Fatalf("sketches = %d, want 1", len(sk))
	}
	s := sk[0]
	mm := s.Stage("matmul")
	if !mm.Attached || mm.AttachTarget != "relu" {
		t.Error("matmul should be fused into relu")
	}
	if s.Complete() {
		t.Error("sketch should be incomplete (unfilled tile sizes)")
	}
	if !strings.Contains(s.Print(), "TILE_") {
		t.Error("sketch print should contain tile placeholders")
	}
}

func TestBareMatmulTwoSketches(t *testing.T) {
	// A matmul with no consumer: rule 3 (plain tiling) and rule 5+4
	// (cache stage, then tile+fuse) both apply -> two sketches.
	b := te.NewBuilder("gemm")
	a := b.Input("A", 128, 128)
	b.Matmul(a, 128, true)
	g := NewGenerator(CPUTarget())
	sk, err := g.Generate(b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	if len(sk) != 2 {
		t.Fatalf("sketches = %d, want 2", len(sk))
	}
	var plain, cached bool
	for _, s := range sk {
		if s.Stage("matmul.cache") != nil {
			cached = true
		} else {
			plain = true
		}
	}
	if !plain || !cached {
		t.Errorf("want one plain and one cache-stage sketch (plain=%v cached=%v)", plain, cached)
	}
}

func TestConvBNReLUInlinesAndFuses(t *testing.T) {
	b := te.NewBuilder("convlayer")
	x := b.Input("X", 1, 64, 28, 28)
	y := b.Conv2D(x, te.ConvOpts{OutChannels: 64, Kernel: 3, Pad: 1})
	y = b.BatchNorm(y, 1)
	b.ReLU(y)
	g := NewGenerator(CPUTarget())
	sk, err := g.Generate(b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	if len(sk) != 1 {
		t.Fatalf("sketches = %d, want 1", len(sk))
	}
	s := sk[0]
	if !s.Stage("pad").Inlined {
		t.Error("pad should be inlined (rule 2)")
	}
	if !s.Stage("bn").Inlined {
		t.Error("bn should be inlined (rule 2)")
	}
	conv := s.Stage("conv2d")
	if !conv.Attached || conv.AttachTarget != "relu" {
		t.Error("conv should be fused into relu through the inlined bn")
	}
}

func TestNormGetsRFactorSketches(t *testing.T) {
	// NRM: reduction-heavy -> rule 6 branches plus the rule-4 branch.
	b := te.NewBuilder("nrm")
	x := b.Input("X", 1, 512, 512)
	b.Norm(x)
	g := NewGenerator(CPUTarget())
	sk, err := g.Generate(b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	var rf int
	for _, s := range sk {
		if s.Stage("norm_sumsq.rf") != nil {
			rf++
		}
	}
	if rf == 0 {
		t.Errorf("no rfactor sketches among %d; rule 6 should fire for NRM", len(sk))
	}
	if len(sk) <= rf {
		t.Error("the non-rfactor (rule 4) branch should also exist")
	}
}

func TestGPUStructure(t *testing.T) {
	g := NewGenerator(GPUTarget())
	sk, err := g.Generate(matmulReLU(512, 512, 512))
	if err != nil {
		t.Fatal(err)
	}
	mm := sk[0].Stage("matmul")
	// "SSSRRSRS" has 5 space levels; 3 are owned by the consumer, so the
	// producer keeps 2 space levels x 2 axes + 3 reduce levels x 1 axis.
	if got := len(mm.Iters); got != 2*2+3 {
		t.Errorf("gpu producer iters = %d, want 7", got)
	}
	relu := sk[0].Stage("relu")
	if got := len(relu.Iters); got != 3*2+2 {
		t.Errorf("gpu consumer iters = %d, want 8", got)
	}
}

func TestSketchesReplayable(t *testing.T) {
	// Every sketch's step list must replay to the same signature.
	for _, build := range []func() *te.DAG{
		func() *te.DAG { return matmulReLU(256, 256, 256) },
		func() *te.DAG {
			b := te.NewBuilder("nrm")
			b.Norm(b.Input("X", 1, 512, 512))
			return b.MustFinish()
		},
	} {
		d := build()
		sk, err := NewGenerator(CPUTarget()).Generate(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sk {
			r, err := ir.Replay(d, s.Steps)
			if err != nil {
				t.Errorf("dag %s: replay failed: %v", d.Name, err)
				continue
			}
			if r.Signature() != s.Signature() {
				t.Errorf("dag %s: replay signature mismatch", d.Name)
			}
		}
	}
}
