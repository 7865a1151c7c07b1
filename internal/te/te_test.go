package te

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func matmulReLU(n, m, k int) *DAG {
	b := NewBuilder("matmul_relu")
	a := b.Input("A", n, k)
	c := b.Matmul(a, m, true)
	b.ReLU(c)
	return b.MustFinish()
}

func TestMatmulReLUStructure(t *testing.T) {
	d := matmulReLU(512, 512, 512)
	if len(d.Nodes) != 2 {
		t.Fatalf("got %d nodes, want 2", len(d.Nodes))
	}
	mm := d.Nodes[0]
	if !mm.DataReuse {
		t.Error("matmul should have DataReuse")
	}
	if mm.StrictInlinable {
		t.Error("matmul should not be strictly inlinable")
	}
	if got := mm.IterCount(); got != 512*512*512 {
		t.Errorf("matmul iter count = %d, want %d", got, 512*512*512)
	}
	if got := mm.TotalFlops(); got != 2*512*512*512 {
		t.Errorf("matmul flops = %g, want %g", got, float64(2*512*512*512))
	}
	relu := d.Nodes[1]
	if !relu.StrictInlinable {
		t.Error("relu should be strictly inlinable")
	}
	for _, n := range d.Nodes {
		for _, a := range n.Reads {
			if a.Tensor == relu.Out {
				t.Errorf("%s reads relu, the output; no consumers expected", n.Name)
			}
		}
	}
}

func TestDAGValidate(t *testing.T) {
	d := matmulReLU(8, 4, 512)
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dag rejected: %v", err)
	}
	// Break topological order.
	bad := &DAG{Name: "bad", Nodes: []*Node{d.Nodes[1], d.Nodes[0]}, Inputs: d.Inputs}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-order dag accepted")
	}
	// Rank mismatch.
	b := NewBuilder("rank")
	x := b.Input("X", 4, 4)
	b.dag.Nodes = append(b.dag.Nodes, &Node{
		Name:      "broken",
		Out:       Placeholder("o", 4, 4),
		SpaceAxes: []Axis{{Name: "i", Extent: 4, Kind: Space}, {Name: "j", Extent: 4, Kind: Space}},
		Reads:     []Access{{Tensor: x, Index: []LinExpr{Var(0)}}},
	})
	if _, err := b.Finish(); err == nil {
		t.Error("rank-mismatched access accepted")
	}
}

func TestConv2DShapes(t *testing.T) {
	b := NewBuilder("conv")
	x := b.Input("X", 1, 64, 56, 56)
	y := b.Conv2D(x, ConvOpts{OutChannels: 128, Kernel: 3, Stride: 2, Pad: 1})
	d := b.MustFinish()
	want := []int{1, 128, 28, 28}
	if !reflect.DeepEqual(y.Shape, want) {
		t.Errorf("conv2d out shape = %v, want %v", y.Shape, want)
	}
	// Pad node should be predicated and inlinable; conv should read the
	// padded tensor with the stride coefficient on oh.
	var pad, conv *Node
	for _, n := range d.Nodes {
		switch {
		case n.Predicated:
			pad = n
		case n.DataReuse:
			conv = n
		}
	}
	if pad == nil || !pad.StrictInlinable {
		t.Fatal("pad node missing or not inlinable")
	}
	if conv == nil {
		t.Fatal("conv node missing")
	}
	if got := conv.Reads[0].Index[2].CoeffOf(2); got != 2 {
		t.Errorf("oh stride coeff = %d, want 2", got)
	}
	if got := conv.Reads[0].Index[2].CoeffOf(5); got != 1 {
		t.Errorf("rh dilation coeff = %d, want 1", got)
	}
}

func TestDilatedConvCoeff(t *testing.T) {
	b := NewBuilder("dil")
	x := b.Input("X", 1, 32, 32, 32)
	b.Conv2D(x, ConvOpts{OutChannels: 32, Kernel: 3, Pad: 2, Dilation: 2})
	d := b.MustFinish()
	conv := d.Nodes[len(d.Nodes)-1]
	if got := conv.Reads[0].Index[2].CoeffOf(5); got != 2 {
		t.Errorf("dilation coeff = %d, want 2", got)
	}
}

func TestNormIsReductionParallel(t *testing.T) {
	b := NewBuilder("nrm")
	x := b.Input("X", 1, 512, 512)
	b.Norm(x)
	d := b.MustFinish()
	sum := d.Nodes[0]
	if !sum.HasMoreReductionParallel() {
		t.Errorf("norm sum node should satisfy HasMoreReductionParallel: space=%d reduce=%d",
			sum.SpaceSize(), sum.ReduceSize())
	}
	// A big square matmul should not.
	mm := matmulReLU(512, 512, 512).Nodes[0]
	if mm.HasMoreReductionParallel() {
		t.Error("large matmul should not satisfy HasMoreReductionParallel")
	}
}

func TestTransposePermutation(t *testing.T) {
	b := NewBuilder("tr")
	x := b.Input("X", 2, 3, 5)
	y := b.Transpose(x, 2, 0, 1)
	if !reflect.DeepEqual(y.Shape, []int{5, 2, 3}) {
		t.Errorf("transpose shape = %v, want [5 2 3]", y.Shape)
	}
	d := b.MustFinish()
	tr := d.Nodes[0]
	// out axis 0 has extent 5 and indexes x dim 2.
	if tr.Reads[0].Index[2].CoeffOf(0) != 1 {
		t.Error("x dim2 should be indexed by out axis 0")
	}
	if tr.Reads[0].Index[0].CoeffOf(1) != 1 {
		t.Error("x dim0 should be indexed by out axis 1")
	}
}

func TestSoftmaxNodes(t *testing.T) {
	b := NewBuilder("sm")
	x := b.Input("X", 16, 128, 128)
	b.Softmax(x)
	d := b.MustFinish()
	if len(d.Nodes) != 3 {
		t.Fatalf("softmax should emit 3 nodes, got %d", len(d.Nodes))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchMatmulTranspose(t *testing.T) {
	b := NewBuilder("bmm")
	a := b.Input("A", 12, 64, 128)
	w := b.Input("B", 12, 64, 128)
	// TBG: A^T (batch, 128, 64) x B (batch, 64, 128): here TransposeA.
	y := b.BatchMatmul(a, w, MatmulOpts{TransposeA: true})
	if !reflect.DeepEqual(y.Shape, []int{12, 128, 128}) {
		t.Errorf("bmm shape = %v, want [12 128 128]", y.Shape)
	}
	if err := b.MustFinish().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLinExprArith(t *testing.T) {
	e := Var(0).Add(Scaled(1, 4)).AddConst(-2)
	if e.CoeffOf(0) != 1 || e.CoeffOf(1) != 4 || e.Const != -2 {
		t.Errorf("unexpected linexpr %v", e)
	}
	if e.CoeffOf(7) != 0 {
		t.Error("absent axis should have coeff 0")
	}
}

// Property: for random matmul shapes, IterCount == SpaceSize*ReduceSize and
// TotalFlops == 2*N*M*K.
func TestMatmulFlopsProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		n, m, k := int(a%32)+1, int(b%32)+1, int(c%32)+1
		mm := matmulReLU(n, m, k).Nodes[0]
		return mm.IterCount() == int64(n)*int64(m)*int64(k) &&
			mm.TotalFlops() == float64(2*n*m*k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: every builder-generated conv dag validates.
func TestConvDAGsValidateProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		ci := int(a%8)*8 + 8
		co := int(b%8)*8 + 8
		hw := int(c%4)*8 + 8
		bl := NewBuilder("p")
		x := bl.Input("X", 1, ci, hw, hw)
		bl.ReLU(bl.Conv2D(x, ConvOpts{OutChannels: co, Kernel: 3, Pad: 1}))
		_, err := bl.Finish()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestPadZeroIsIdentity(t *testing.T) {
	b := NewBuilder("pz")
	x := b.Input("X", 1, 4, 8, 8)
	if got := b.Pad(x, 0, 2); got != x {
		t.Error("pad=0 should return the input tensor unchanged")
	}
}
