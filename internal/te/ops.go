package te

import "fmt"

// Builder incrementally constructs a DAG. Operator helpers append nodes in
// topological order; call Finish to validate and obtain the DAG.
type Builder struct {
	dag  *DAG
	uniq map[string]int
}

// NewBuilder returns a Builder for a DAG with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{dag: &DAG{Name: name}, uniq: map[string]int{}}
}

// Fresh returns a unique name with the given prefix within this builder.
func (b *Builder) Fresh(prefix string) string {
	b.uniq[prefix]++
	if b.uniq[prefix] == 1 {
		return prefix
	}
	return fmt.Sprintf("%s_%d", prefix, b.uniq[prefix]-1)
}

// Input declares a graph input tensor.
func (b *Builder) Input(name string, shape ...int) *Tensor {
	t := Placeholder(b.Fresh(name), shape...)
	b.dag.Inputs = append(b.dag.Inputs, t)
	return t
}

// Weight declares a constant weight tensor.
func (b *Builder) Weight(name string, shape ...int) *Tensor {
	t := Constant(b.Fresh(name), shape...)
	b.dag.Inputs = append(b.dag.Inputs, t)
	return t
}

// Emit appends a node and returns its output tensor.
func (b *Builder) Emit(n *Node) *Tensor {
	b.dag.Nodes = append(b.dag.Nodes, n)
	return n.Out
}

// Finish validates and returns the DAG.
func (b *Builder) Finish() (*DAG, error) {
	if len(b.dag.Nodes) == 0 {
		return nil, fmt.Errorf("te: dag %q has no nodes", b.dag.Name)
	}
	if err := b.dag.Validate(); err != nil {
		return nil, err
	}
	return b.dag, nil
}

// MustFinish is Finish that panics on error; for statically known graphs.
func (b *Builder) MustFinish() *DAG {
	d, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return d
}

func axes(names []string, extents []int, kind AxisKind) []Axis {
	out := make([]Axis, len(names))
	for i := range names {
		out[i] = Axis{Name: names[i], Extent: extents[i], Kind: kind}
	}
	return out
}

// ---- Elementwise and simple ops ----

// elementwise emits a strictly inlinable unary node over x with the given
// per-element cost.
func (b *Builder) elementwise(name string, x *Tensor, flops FlopCount) *Tensor {
	nm := b.Fresh(name)
	out := Placeholder(nm+"_out", x.Shape...)
	ix := make([]LinExpr, len(x.Shape))
	names := make([]string, len(x.Shape))
	for i := range x.Shape {
		ix[i] = Var(i)
		names[i] = fmt.Sprintf("i%d", i)
	}
	return b.Emit(&Node{
		Name:            nm,
		Out:             out,
		SpaceAxes:       axes(names, x.Shape, Space),
		Reads:           []Access{{Tensor: x, Index: ix}},
		Flops:           flops,
		StrictInlinable: true,
	})
}

// ReLU emits max(x, 0).
func (b *Builder) ReLU(x *Tensor) *Tensor {
	return b.elementwise("relu", x, FlopCount{MaxF: 1})
}

// ReLU6 emits min(max(x,0),6).
func (b *Builder) ReLU6(x *Tensor) *Tensor {
	return b.elementwise("relu6", x, FlopCount{MaxF: 2})
}

// Tanh emits tanh(x).
func (b *Builder) Tanh(x *Tensor) *Tensor {
	return b.elementwise("tanh", x, FlopCount{MathF: 1})
}

// GELU emits the gaussian error linear unit (used by BERT).
func (b *Builder) GELU(x *Tensor) *Tensor {
	return b.elementwise("gelu", x, FlopCount{MulF: 3, AddF: 1, MathF: 1})
}

// Add emits x + y elementwise; shapes must match.
func (b *Builder) Add(x, y *Tensor) *Tensor {
	nm := b.Fresh("add")
	out := Placeholder(nm+"_out", x.Shape...)
	ix := make([]LinExpr, len(x.Shape))
	names := make([]string, len(x.Shape))
	for i := range x.Shape {
		ix[i] = Var(i)
		names[i] = fmt.Sprintf("i%d", i)
	}
	return b.Emit(&Node{
		Name:            nm,
		Out:             out,
		SpaceAxes:       axes(names, x.Shape, Space),
		Reads:           []Access{{Tensor: x, Index: ix}, {Tensor: y, Index: ix}},
		Flops:           FlopCount{AddF: 1},
		StrictInlinable: true,
	})
}

// BiasAdd emits x + bias where bias is broadcast along the channel dim.
func (b *Builder) BiasAdd(x *Tensor, channelDim int) *Tensor {
	nm := b.Fresh("bias_add")
	bias := b.Weight(nm+"_b", x.Shape[channelDim])
	out := Placeholder(nm+"_out", x.Shape...)
	ix := make([]LinExpr, len(x.Shape))
	names := make([]string, len(x.Shape))
	for i := range x.Shape {
		ix[i] = Var(i)
		names[i] = fmt.Sprintf("i%d", i)
	}
	return b.Emit(&Node{
		Name:            nm,
		Out:             out,
		SpaceAxes:       axes(names, x.Shape, Space),
		Reads:           []Access{{Tensor: x, Index: ix}, {Tensor: bias, Index: []LinExpr{Var(channelDim)}}},
		Flops:           FlopCount{AddF: 1},
		StrictInlinable: true,
	})
}

// BatchNorm emits the inference-time batch normalization x*scale + shift,
// broadcast along channelDim (the multiplier and offset are precomputed
// constants, as in deployed models).
func (b *Builder) BatchNorm(x *Tensor, channelDim int) *Tensor {
	nm := b.Fresh("bn")
	scale := b.Weight(nm+"_scale", x.Shape[channelDim])
	shift := b.Weight(nm+"_shift", x.Shape[channelDim])
	out := Placeholder(nm+"_out", x.Shape...)
	ix := make([]LinExpr, len(x.Shape))
	names := make([]string, len(x.Shape))
	for i := range x.Shape {
		ix[i] = Var(i)
		names[i] = fmt.Sprintf("i%d", i)
	}
	cix := []LinExpr{Var(channelDim)}
	return b.Emit(&Node{
		Name:      nm,
		Out:       out,
		SpaceAxes: axes(names, x.Shape, Space),
		Reads: []Access{
			{Tensor: x, Index: ix},
			{Tensor: scale, Index: cix},
			{Tensor: shift, Index: cix},
		},
		Flops:           FlopCount{MulF: 1, AddF: 1},
		StrictInlinable: true,
	})
}

// Pad emits a zero-padding node around the last `rank` spatial dims of a
// 4D NCHW (or 3D NCW, or 5D NCDHW) tensor. The node is predicated: each
// output element selects between an input read and zero.
func (b *Builder) Pad(x *Tensor, pad int, spatialDims int) *Tensor {
	if pad == 0 {
		return x
	}
	nm := b.Fresh("pad")
	shape := append([]int(nil), x.Shape...)
	rank := len(shape)
	for d := rank - spatialDims; d < rank; d++ {
		shape[d] += 2 * pad
	}
	out := Placeholder(nm+"_out", shape...)
	ix := make([]LinExpr, rank)
	names := make([]string, rank)
	for i := 0; i < rank; i++ {
		names[i] = fmt.Sprintf("i%d", i)
		if i >= rank-spatialDims {
			ix[i] = Var(i).AddConst(-pad)
		} else {
			ix[i] = Var(i)
		}
	}
	return b.Emit(&Node{
		Name:            nm,
		Out:             out,
		SpaceAxes:       axes(names, shape, Space),
		Reads:           []Access{{Tensor: x, Index: ix}},
		Flops:           FlopCount{CmpF: float64(2 * spatialDims)},
		StrictInlinable: true,
		Predicated:      true,
	})
}

// ---- Compute-intensive ops ----

// MatmulOpts configures Matmul.
type MatmulOpts struct {
	// TransposeA / TransposeB transpose the inputs.
	TransposeA, TransposeB bool
}

// Matmul emits C[i,j] += A[i,k] * B[k,j] (2-D) with N×M output and K
// reduction. A may be an existing tensor; B is declared as a weight if
// weightB is true, otherwise as an input.
func (b *Builder) Matmul(a *Tensor, m int, weightB bool) *Tensor {
	nm := b.Fresh("matmul")
	n, k := a.Shape[0], a.Shape[1]
	var w *Tensor
	if weightB {
		w = b.Weight(nm+"_w", k, m)
	} else {
		w = b.Input(nm+"_b", k, m)
	}
	out := Placeholder(nm+"_out", n, m)
	return b.Emit(&Node{
		Name:       nm,
		Out:        out,
		SpaceAxes:  axes([]string{"i", "j"}, []int{n, m}, Space),
		ReduceAxes: axes([]string{"k"}, []int{k}, Reduce),
		Reads: []Access{
			{Tensor: a, Index: []LinExpr{Var(0), Var(2)}},
			{Tensor: w, Index: []LinExpr{Var(2), Var(1)}},
		},
		Flops:     FlopCount{MulF: 1, AddF: 1},
		DataReuse: true,
	})
}

// BatchMatmul emits C[b,i,j] += A[b,i,k] * B[b,k,j], optionally with
// transposed operands (the TBG subgraph of §7.2).
func (b *Builder) BatchMatmul(a, w *Tensor, opts MatmulOpts) *Tensor {
	nm := b.Fresh("batch_matmul")
	batch := a.Shape[0]
	var n, k int
	if opts.TransposeA {
		k, n = a.Shape[1], a.Shape[2]
	} else {
		n, k = a.Shape[1], a.Shape[2]
	}
	var m int
	if opts.TransposeB {
		m = w.Shape[1]
	} else {
		m = w.Shape[2]
	}
	out := Placeholder(nm+"_out", batch, n, m)
	// Axes: b=0, i=1, j=2 (space), k=3 (reduce).
	aIdx := []LinExpr{Var(0), Var(1), Var(3)}
	if opts.TransposeA {
		aIdx = []LinExpr{Var(0), Var(3), Var(1)}
	}
	wIdx := []LinExpr{Var(0), Var(3), Var(2)}
	if opts.TransposeB {
		wIdx = []LinExpr{Var(0), Var(2), Var(3)}
	}
	return b.Emit(&Node{
		Name:       nm,
		Out:        out,
		SpaceAxes:  axes([]string{"b", "i", "j"}, []int{batch, n, m}, Space),
		ReduceAxes: axes([]string{"k"}, []int{k}, Reduce),
		Reads: []Access{
			{Tensor: a, Index: aIdx},
			{Tensor: w, Index: wIdx},
		},
		Flops:     FlopCount{MulF: 1, AddF: 1},
		DataReuse: true,
	})
}

// Transpose emits a permutation of x's dims.
func (b *Builder) Transpose(x *Tensor, perm ...int) *Tensor {
	nm := b.Fresh("transpose")
	shape := make([]int, len(perm))
	for i, p := range perm {
		shape[i] = x.Shape[p]
	}
	out := Placeholder(nm+"_out", shape...)
	// out[i0..in] = x[i_{inv(perm)}...]: read index d of x is the output
	// axis whose perm entry is d.
	ix := make([]LinExpr, len(perm))
	for outAxis, srcDim := range perm {
		ix[srcDim] = Var(outAxis)
	}
	names := make([]string, len(perm))
	for i := range names {
		names[i] = fmt.Sprintf("i%d", i)
	}
	return b.Emit(&Node{
		Name:            nm,
		Out:             out,
		SpaceAxes:       axes(names, shape, Space),
		Reads:           []Access{{Tensor: x, Index: ix}},
		Flops:           FlopCount{},
		StrictInlinable: true,
	})
}

// ConvOpts configures convolution builders.
type ConvOpts struct {
	OutChannels int
	Kernel      int
	Stride      int
	Pad         int
	Dilation    int
	Groups      int
}

func (o *ConvOpts) defaults() {
	if o.Stride == 0 {
		o.Stride = 1
	}
	if o.Dilation == 0 {
		o.Dilation = 1
	}
	if o.Groups == 0 {
		o.Groups = 1
	}
}

func convOut(in, kernel, stride, pad, dilation int) int {
	return (in+2*pad-dilation*(kernel-1)-1)/stride + 1
}

// Conv2D emits a grouped/dilated 2-D convolution over an NCHW input.
// Padding is emitted as a separate predicated node (its compute location
// is then a real scheduling decision, as in the paper's FlexTensor
// comparison).
func (b *Builder) Conv2D(x *Tensor, o ConvOpts) *Tensor {
	o.defaults()
	nm := b.Fresh("conv2d")
	n, ci, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := convOut(h, o.Kernel, o.Stride, o.Pad, o.Dilation)
	ow := convOut(w, o.Kernel, o.Stride, o.Pad, o.Dilation)
	cig := ci / o.Groups // input channels per group
	cog := o.OutChannels / o.Groups
	weight := b.Weight(nm+"_w", o.OutChannels, cig, o.Kernel, o.Kernel)
	px := b.Pad(x, o.Pad, 2)
	out := Placeholder(nm+"_out", n, o.OutChannels, oh, ow)
	// Space axes: n=0, co=1, oh=2, ow=3. Reduce: rc=4, rh=5, rw=6.
	// Grouped conv input channel index: (co/cog)*cig + rc. We approximate
	// the group base offset with coefficient bookkeeping: co contributes
	// stride cig/cog on the channel dim. For groups==1 this is exact.
	chanIdx := Var(4)
	if o.Groups > 1 {
		chanIdx = LinExpr{Terms: []Term{{Axis: 4, Coeff: 1}, {Axis: 1, Coeff: maxInt(1, cig/cog)}}}
	}
	node := &Node{
		Name:      nm,
		Out:       out,
		SpaceAxes: axes([]string{"n", "co", "oh", "ow"}, []int{n, o.OutChannels, oh, ow}, Space),
		ReduceAxes: axes([]string{"rc", "rh", "rw"},
			[]int{cig, o.Kernel, o.Kernel}, Reduce),
		Reads: []Access{
			{Tensor: px, Index: []LinExpr{
				Var(0), chanIdx,
				Scaled(2, o.Stride).Add(Scaled(5, o.Dilation)),
				Scaled(3, o.Stride).Add(Scaled(6, o.Dilation)),
			}},
			{Tensor: weight, Index: []LinExpr{Var(1), Var(4), Var(5), Var(6)}},
		},
		Flops:     FlopCount{MulF: 1, AddF: 1},
		DataReuse: true,
	}
	return b.Emit(node)
}

// Conv1D emits a 1-D convolution over an NCW input.
func (b *Builder) Conv1D(x *Tensor, o ConvOpts) *Tensor {
	o.defaults()
	nm := b.Fresh("conv1d")
	n, ci, w := x.Shape[0], x.Shape[1], x.Shape[2]
	ow := convOut(w, o.Kernel, o.Stride, o.Pad, o.Dilation)
	weight := b.Weight(nm+"_w", o.OutChannels, ci, o.Kernel)
	px := b.Pad(x, o.Pad, 1)
	out := Placeholder(nm+"_out", n, o.OutChannels, ow)
	// Space: n=0, co=1, ow=2. Reduce: rc=3, rw=4.
	return b.Emit(&Node{
		Name:       nm,
		Out:        out,
		SpaceAxes:  axes([]string{"n", "co", "ow"}, []int{n, o.OutChannels, ow}, Space),
		ReduceAxes: axes([]string{"rc", "rw"}, []int{ci, o.Kernel}, Reduce),
		Reads: []Access{
			{Tensor: px, Index: []LinExpr{Var(0), Var(3), Scaled(2, o.Stride).Add(Scaled(4, o.Dilation))}},
			{Tensor: weight, Index: []LinExpr{Var(1), Var(3), Var(4)}},
		},
		Flops:     FlopCount{MulF: 1, AddF: 1},
		DataReuse: true,
	})
}

// Conv3D emits a 3-D convolution over an NCDHW input.
func (b *Builder) Conv3D(x *Tensor, o ConvOpts) *Tensor {
	o.defaults()
	nm := b.Fresh("conv3d")
	n, ci, d, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], x.Shape[4]
	od := convOut(d, o.Kernel, o.Stride, o.Pad, o.Dilation)
	oh := convOut(h, o.Kernel, o.Stride, o.Pad, o.Dilation)
	ow := convOut(w, o.Kernel, o.Stride, o.Pad, o.Dilation)
	weight := b.Weight(nm+"_w", o.OutChannels, ci, o.Kernel, o.Kernel, o.Kernel)
	px := b.Pad(x, o.Pad, 3)
	out := Placeholder(nm+"_out", n, o.OutChannels, od, oh, ow)
	// Space: n=0, co=1, od=2, oh=3, ow=4. Reduce: rc=5, rd=6, rh=7, rw=8.
	return b.Emit(&Node{
		Name:      nm,
		Out:       out,
		SpaceAxes: axes([]string{"n", "co", "od", "oh", "ow"}, []int{n, o.OutChannels, od, oh, ow}, Space),
		ReduceAxes: axes([]string{"rc", "rd", "rh", "rw"},
			[]int{ci, o.Kernel, o.Kernel, o.Kernel}, Reduce),
		Reads: []Access{
			{Tensor: px, Index: []LinExpr{
				Var(0), Var(5),
				Scaled(2, o.Stride).Add(Var(6)),
				Scaled(3, o.Stride).Add(Var(7)),
				Scaled(4, o.Stride).Add(Var(8)),
			}},
			{Tensor: weight, Index: []LinExpr{Var(1), Var(5), Var(6), Var(7), Var(8)}},
		},
		Flops:     FlopCount{MulF: 1, AddF: 1},
		DataReuse: true,
	})
}

// DepthwiseConv2D emits a depthwise 2-D convolution (MobileNet's DEP op):
// every input channel convolved with its own kernel.
func (b *Builder) DepthwiseConv2D(x *Tensor, o ConvOpts) *Tensor {
	o.defaults()
	nm := b.Fresh("depthwise_conv2d")
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := convOut(h, o.Kernel, o.Stride, o.Pad, o.Dilation)
	ow := convOut(w, o.Kernel, o.Stride, o.Pad, o.Dilation)
	weight := b.Weight(nm+"_w", c, o.Kernel, o.Kernel)
	px := b.Pad(x, o.Pad, 2)
	out := Placeholder(nm+"_out", n, c, oh, ow)
	// Space: n=0, c=1, oh=2, ow=3. Reduce: rh=4, rw=5.
	return b.Emit(&Node{
		Name:       nm,
		Out:        out,
		SpaceAxes:  axes([]string{"n", "c", "oh", "ow"}, []int{n, c, oh, ow}, Space),
		ReduceAxes: axes([]string{"rh", "rw"}, []int{o.Kernel, o.Kernel}, Reduce),
		Reads: []Access{
			{Tensor: px, Index: []LinExpr{
				Var(0), Var(1),
				Scaled(2, o.Stride).Add(Var(4)),
				Scaled(3, o.Stride).Add(Var(5)),
			}},
			{Tensor: weight, Index: []LinExpr{Var(1), Var(4), Var(5)}},
		},
		Flops:     FlopCount{MulF: 1, AddF: 1},
		DataReuse: true,
	})
}

// TransposedConv2D emits a strided transposed convolution (DCGAN's T2D op)
// as zero-insertion upsampling followed by a unit-stride convolution. The
// upsample node is predicated: with stride s, (s²−1)/s² of its elements are
// zero — this is the structure whose zero-multiplications a good schedule
// can simplify (§7.1's discussion of T2D).
func (b *Builder) TransposedConv2D(x *Tensor, o ConvOpts) *Tensor {
	o.defaults()
	nm := b.Fresh("t2d")
	n, ci, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	// Zero-inserted size: h*stride (output crop handled by pad choice).
	uh, uw := h*o.Stride, w*o.Stride
	up := Placeholder(nm+"_up", n, ci, uh, uw)
	names := []string{"n", "c", "h", "w"}
	b.Emit(&Node{
		Name:      nm + "_upsample",
		Out:       up,
		SpaceAxes: axes(names, []int{n, ci, uh, uw}, Space),
		Reads: []Access{{Tensor: x, Index: []LinExpr{
			Var(0), Var(1), Var(2), Var(3), // conceptual h/stride handled by predicate
		}}},
		Flops:           FlopCount{CmpF: 2},
		StrictInlinable: true,
		Predicated:      true,
		ZeroFraction:    1 - 1/float64(o.Stride*o.Stride),
	})
	co := ConvOpts{OutChannels: o.OutChannels, Kernel: o.Kernel, Stride: 1,
		Pad: o.Kernel - 1 - o.Pad, Dilation: 1, Groups: 1}
	return b.Conv2D(up, co)
}

// CapsuleConv2D emits a capsule 2-D convolution (CAP op): a conv2d whose
// "pixels" are 4×4 matrices multiplied together, adding two capsule space
// axes and one capsule reduction axis.
func (b *Builder) CapsuleConv2D(x *Tensor, o ConvOpts) *Tensor {
	o.defaults()
	const capsule = 4
	nm := b.Fresh("capsule_conv2d")
	n, ci, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := convOut(h, o.Kernel, o.Stride, o.Pad, 1)
	ow := convOut(w, o.Kernel, o.Stride, o.Pad, 1)
	weight := b.Weight(nm+"_w", o.OutChannels, ci, o.Kernel, o.Kernel, capsule, capsule)
	px := b.Pad(x, o.Pad, 2)
	out := Placeholder(nm+"_out", n, o.OutChannels, oh, ow, capsule, capsule)
	// Space: n=0, co=1, oh=2, ow=3, ki=4, kj=5. Reduce: rc=6, rh=7, rw=8, kk=9.
	return b.Emit(&Node{
		Name: nm,
		Out:  out,
		SpaceAxes: axes([]string{"n", "co", "oh", "ow", "ki", "kj"},
			[]int{n, o.OutChannels, oh, ow, capsule, capsule}, Space),
		ReduceAxes: axes([]string{"rc", "rh", "rw", "kk"},
			[]int{ci, o.Kernel, o.Kernel, capsule}, Reduce),
		Reads: []Access{
			{Tensor: px, Index: []LinExpr{
				Var(0), Var(6),
				Scaled(2, o.Stride).Add(Var(7)),
				Scaled(3, o.Stride).Add(Var(8)),
			}},
			{Tensor: weight, Index: []LinExpr{Var(1), Var(6), Var(7), Var(8), Var(4), Var(9)}},
		},
		Flops:     FlopCount{MulF: 1, AddF: 1},
		DataReuse: true,
	})
}

// Norm emits the matrix 2-norm of each batch element (NRM op):
// out[b] += A[b,i,j]², followed by a square root. The reduction volume
// dwarfs the space volume, which is exactly the rule-6 (rfactor) case.
func (b *Builder) Norm(x *Tensor) *Tensor {
	nm := b.Fresh("norm")
	batch, n, m := x.Shape[0], x.Shape[1], x.Shape[2]
	sq := Placeholder(nm+"_sq", batch)
	b.Emit(&Node{
		Name:       nm + "_sumsq",
		Out:        sq,
		SpaceAxes:  axes([]string{"b"}, []int{batch}, Space),
		ReduceAxes: axes([]string{"i", "j"}, []int{n, m}, Reduce),
		Reads: []Access{
			{Tensor: x, Index: []LinExpr{Var(0), Var(1), Var(2)}},
		},
		Flops:     FlopCount{MulF: 1, AddF: 1},
		DataReuse: true,
	})
	return b.elementwise(nm+"_sqrt", sq, FlopCount{MathF: 1})
}

// Softmax emits a row softmax over the last dim of x as three nodes:
// row max, exp-sum, and normalize. Kept coarse: the reductions are real
// reduce nodes so scheduling decisions apply.
func (b *Builder) Softmax(x *Tensor) *Tensor {
	nm := b.Fresh("softmax")
	rank := len(x.Shape)
	rowShape := x.Shape[:rank-1]
	last := x.Shape[rank-1]

	rowIdx := make([]LinExpr, rank)
	names := make([]string, rank-1)
	for i := 0; i < rank-1; i++ {
		rowIdx[i] = Var(i)
		names[i] = fmt.Sprintf("i%d", i)
	}
	rowIdx[rank-1] = Var(rank - 1) // reduce axis is the last axis index

	mx := Placeholder(nm+"_max", rowShape...)
	b.Emit(&Node{
		Name:       nm + "_rowmax",
		Out:        mx,
		SpaceAxes:  axes(names, rowShape, Space),
		ReduceAxes: axes([]string{"k"}, []int{last}, Reduce),
		Reads:      []Access{{Tensor: x, Index: rowIdx}},
		Flops:      FlopCount{MaxF: 1},
	})
	sum := Placeholder(nm+"_sum", rowShape...)
	mxIdx := make([]LinExpr, rank-1)
	for i := range mxIdx {
		mxIdx[i] = Var(i)
	}
	b.Emit(&Node{
		Name:       nm + "_expsum",
		Out:        sum,
		SpaceAxes:  axes(names, rowShape, Space),
		ReduceAxes: axes([]string{"k"}, []int{last}, Reduce),
		Reads: []Access{
			{Tensor: x, Index: rowIdx},
			{Tensor: mx, Index: mxIdx},
		},
		Flops: FlopCount{SubF: 1, MathF: 1, AddF: 1},
	})
	out := Placeholder(nm+"_out", x.Shape...)
	fullIdx := make([]LinExpr, rank)
	fullNames := make([]string, rank)
	for i := 0; i < rank; i++ {
		fullIdx[i] = Var(i)
		fullNames[i] = fmt.Sprintf("i%d", i)
	}
	return b.Emit(&Node{
		Name:      nm,
		Out:       out,
		SpaceAxes: axes(fullNames, x.Shape, Space),
		Reads: []Access{
			{Tensor: x, Index: fullIdx},
			{Tensor: mx, Index: fullIdx[:rank-1]},
			{Tensor: sum, Index: fullIdx[:rank-1]},
		},
		Flops:           FlopCount{SubF: 1, MathF: 1, DivF: 1},
		StrictInlinable: true,
	})
}

// Dense emits y[i,j] += x[i,k] * w[j,k] + bias (a fully connected layer
// with constant weights, the building block of BERT and classifier heads).
func (b *Builder) Dense(x *Tensor, units int) *Tensor {
	nm := b.Fresh("dense")
	n, k := x.Shape[0], x.Shape[1]
	w := b.Weight(nm+"_w", units, k)
	out := Placeholder(nm+"_out", n, units)
	mm := b.Emit(&Node{
		Name:       nm,
		Out:        out,
		SpaceAxes:  axes([]string{"i", "j"}, []int{n, units}, Space),
		ReduceAxes: axes([]string{"k"}, []int{k}, Reduce),
		Reads: []Access{
			{Tensor: x, Index: []LinExpr{Var(0), Var(2)}},
			{Tensor: w, Index: []LinExpr{Var(1), Var(2)}},
		},
		Flops:     FlopCount{MulF: 1, AddF: 1},
		DataReuse: true,
	})
	return b.BiasAdd(mm, 1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
