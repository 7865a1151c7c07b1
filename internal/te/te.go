// Package te implements a small tensor expression language: tensors,
// affine buffer accesses, compute nodes and computational DAGs.
//
// A computation is declared the way Figure 1 of the Ansor paper does it —
// by giving the output shape and a per-element expression — but instead of
// a full expression AST we keep exactly the structure the rest of the
// system needs: the iteration axes (space and reduction), the affine index
// expression of every buffer read, and the arithmetic cost of one innermost
// iteration. That is sufficient for sketch generation, feature extraction
// and analytic simulation, and it keeps the language easy to extend.
package te

import (
	"fmt"
	"strings"
)

// AxisKind classifies an iteration axis.
type AxisKind int

const (
	// Space axes index the output tensor.
	Space AxisKind = iota
	// Reduce axes are summed over.
	Reduce
)

func (k AxisKind) String() string {
	if k == Reduce {
		return "reduce"
	}
	return "space"
}

// Axis is one iteration variable of a compute node.
type Axis struct {
	Name   string
	Extent int
	Kind   AxisKind
}

// Tensor is a named multi-dimensional buffer. ElemBytes is the element
// size in bytes (float32 everywhere in the paper's evaluation).
type Tensor struct {
	Name      string
	Shape     []int
	ElemBytes int
	// Const marks weight tensors whose layout may be freely rewritten
	// (§4.2 layout rewrite of constant tensors).
	Const bool
}

// NumElems returns the number of elements of t.
func (t *Tensor) NumElems() int {
	n := 1
	for _, s := range t.Shape {
		n *= s
	}
	return n
}

// Bytes returns the total size of t in bytes.
func (t *Tensor) Bytes() int { return t.NumElems() * t.ElemBytes }

// Placeholder declares an input tensor.
func Placeholder(name string, shape ...int) *Tensor {
	return &Tensor{Name: name, Shape: append([]int(nil), shape...), ElemBytes: 4}
}

// Constant declares a constant (weight) tensor.
func Constant(name string, shape ...int) *Tensor {
	t := Placeholder(name, shape...)
	t.Const = true
	return t
}

// Term is one summand of a linear index expression: Coeff * axis.
type Term struct {
	Axis  int // index into the node's Axes()
	Coeff int
}

// LinExpr is an affine function of a node's axes: sum(Terms) + Const.
type LinExpr struct {
	Terms []Term
	Const int
}

// Var builds the linear expression that is exactly one axis.
func Var(axis int) LinExpr { return LinExpr{Terms: []Term{{Axis: axis, Coeff: 1}}} }

// Scaled builds coeff*axis.
func Scaled(axis, coeff int) LinExpr { return LinExpr{Terms: []Term{{Axis: axis, Coeff: coeff}}} }

// Add returns e + o.
func (e LinExpr) Add(o LinExpr) LinExpr {
	out := LinExpr{Const: e.Const + o.Const}
	out.Terms = append(out.Terms, e.Terms...)
	out.Terms = append(out.Terms, o.Terms...)
	return out
}

// AddConst returns e + c.
func (e LinExpr) AddConst(c int) LinExpr {
	e.Const += c
	return e
}

// CoeffOf returns the coefficient of the given axis in e (0 if absent).
func (e LinExpr) CoeffOf(axis int) int {
	c := 0
	for _, t := range e.Terms {
		if t.Axis == axis {
			c += t.Coeff
		}
	}
	return c
}

func (e LinExpr) String() string {
	var b strings.Builder
	for i, t := range e.Terms {
		if i > 0 {
			b.WriteString("+")
		}
		if t.Coeff == 1 {
			fmt.Fprintf(&b, "ax%d", t.Axis)
		} else {
			fmt.Fprintf(&b, "%d*ax%d", t.Coeff, t.Axis)
		}
	}
	if e.Const != 0 || len(e.Terms) == 0 {
		if len(e.Terms) > 0 {
			b.WriteString("+")
		}
		fmt.Fprintf(&b, "%d", e.Const)
	}
	return b.String()
}

// Access is one buffer read performed by every innermost iteration of a
// node: Tensor[Index[0], Index[1], ...].
type Access struct {
	Tensor *Tensor
	Index  []LinExpr
}

// FlopCount is the arithmetic cost of one innermost iteration of a node,
// broken down the way the cost-model features need it (Appendix B).
type FlopCount struct {
	AddF, SubF, MulF, DivF float64 // float add/sub/mul/div
	MaxF, CmpF             float64 // float max/select and comparisons
	MathF                  float64 // intrinsic math calls (exp, sqrt, tanh, ...)
	IntOps                 float64 // integer address/index arithmetic beyond the norm
}

// Total returns the total floating point operations per iteration.
func (f FlopCount) Total() float64 {
	return f.AddF + f.SubF + f.MulF + f.DivF + f.MaxF + f.CmpF + 4*f.MathF
}

// Node is one computation in a DAG. The node computes, for every point of
// its space axes and summing over its reduce axes, an expression that reads
// the listed accesses and costs Flops arithmetic per innermost iteration.
type Node struct {
	Name string
	Out  *Tensor

	SpaceAxes  []Axis
	ReduceAxes []Axis

	Reads []Access
	Flops FlopCount

	// StrictInlinable marks simple elementwise nodes (ReLU, add, ...)
	// that can always be inlined into their consumer (Table 1 rule 2).
	StrictInlinable bool
	// DataReuse marks compute-intensive nodes with data reuse
	// (matmul, conv2d, ...) that receive multi-level tiling (rule 3).
	DataReuse bool
	// Predicated marks nodes guarded by a condition (e.g. padding).
	Predicated bool
	// ZeroFraction is the fraction of the node's output elements that are
	// statically zero (e.g. zero-insertion upsampling in transposed
	// convolution). A code generator can elide multiplications with these
	// elements when the surrounding loops are unrolled (§7.1's T2D
	// discussion); the simulator models exactly that.
	ZeroFraction float64
	// AnnotationHint carries user hints that adjust the annotation
	// policy for special algorithms (§4.2); empty for none.
	AnnotationHint string
}

// NumAxes returns the number of iteration axes, space and reduce.
func (n *Node) NumAxes() int { return len(n.SpaceAxes) + len(n.ReduceAxes) }

// Axis returns iteration axis i in Axes() order without building the
// slice: the program path asks for one axis at a time, millions of times
// per search.
func (n *Node) Axis(i int) Axis {
	if i < len(n.SpaceAxes) {
		return n.SpaceAxes[i]
	}
	return n.ReduceAxes[i-len(n.SpaceAxes)]
}

// Axes returns all iteration axes, space axes first. The returned slice
// indexes match the Axis field of Term.
func (n *Node) Axes() []Axis {
	out := make([]Axis, 0, len(n.SpaceAxes)+len(n.ReduceAxes))
	out = append(out, n.SpaceAxes...)
	out = append(out, n.ReduceAxes...)
	return out
}

// SpaceSize returns the product of the space axis extents.
func (n *Node) SpaceSize() int64 {
	p := int64(1)
	for _, a := range n.SpaceAxes {
		p *= int64(a.Extent)
	}
	return p
}

// ReduceSize returns the product of the reduce axis extents (1 if none).
func (n *Node) ReduceSize() int64 {
	p := int64(1)
	for _, a := range n.ReduceAxes {
		p *= int64(a.Extent)
	}
	return p
}

// IterCount returns the total innermost iteration count of the naive loop
// nest of n.
func (n *Node) IterCount() int64 { return n.SpaceSize() * n.ReduceSize() }

// TotalFlops returns the total floating point work of the node.
func (n *Node) TotalFlops() float64 { return float64(n.IterCount()) * n.Flops.Total() }

// DAG is a computational graph: a list of nodes in topological
// (producer-before-consumer) order plus the graph's input tensors.
type DAG struct {
	Name   string
	Nodes  []*Node
	Inputs []*Tensor
}

// Output returns the tensor produced by the last node.
func (d *DAG) Output() *Tensor { return d.Nodes[len(d.Nodes)-1].Out }

// Producer returns the node producing tensor t, or nil for graph inputs.
func (d *DAG) Producer(t *Tensor) *Node {
	for _, n := range d.Nodes {
		if n.Out == t {
			return n
		}
	}
	return nil
}

// Consumers returns the nodes that read the output of n.
func (d *DAG) Consumers(n *Node) []*Node {
	var out []*Node
	for _, m := range d.Nodes {
		for _, a := range m.Reads {
			if a.Tensor == n.Out {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

// TotalFlops returns the total floating point work of the whole DAG.
func (d *DAG) TotalFlops() float64 {
	var f float64
	for _, n := range d.Nodes {
		f += n.TotalFlops()
	}
	return f
}

// Validate checks structural invariants: topological order, axis extents
// positive, access indices referencing valid axes and tensors of matching
// rank.
func (d *DAG) Validate() error {
	seen := map[*Tensor]bool{}
	for _, t := range d.Inputs {
		seen[t] = true
	}
	names := map[string]bool{}
	for _, n := range d.Nodes {
		if n.Name == "" {
			return fmt.Errorf("te: node with empty name in dag %q", d.Name)
		}
		if names[n.Name] {
			return fmt.Errorf("te: duplicate node name %q", n.Name)
		}
		names[n.Name] = true
		if n.Out == nil {
			return fmt.Errorf("te: node %q has no output tensor", n.Name)
		}
		if len(n.Out.Shape) != len(n.SpaceAxes) {
			return fmt.Errorf("te: node %q output rank %d != %d space axes",
				n.Name, len(n.Out.Shape), len(n.SpaceAxes))
		}
		for i, a := range n.SpaceAxes {
			if a.Extent <= 0 {
				return fmt.Errorf("te: node %q space axis %q extent %d", n.Name, a.Name, a.Extent)
			}
			if n.Out.Shape[i] != a.Extent {
				return fmt.Errorf("te: node %q axis %q extent %d != output dim %d",
					n.Name, a.Name, a.Extent, n.Out.Shape[i])
			}
		}
		for _, a := range n.ReduceAxes {
			if a.Extent <= 0 {
				return fmt.Errorf("te: node %q reduce axis %q extent %d", n.Name, a.Name, a.Extent)
			}
		}
		nAxes := len(n.SpaceAxes) + len(n.ReduceAxes)
		for _, acc := range n.Reads {
			if acc.Tensor == nil {
				return fmt.Errorf("te: node %q reads nil tensor", n.Name)
			}
			if !seen[acc.Tensor] {
				return fmt.Errorf("te: node %q reads %q before it is produced",
					n.Name, acc.Tensor.Name)
			}
			if len(acc.Index) != len(acc.Tensor.Shape) {
				return fmt.Errorf("te: node %q access to %q has %d indices for rank %d",
					n.Name, acc.Tensor.Name, len(acc.Index), len(acc.Tensor.Shape))
			}
			for _, ix := range acc.Index {
				for _, t := range ix.Terms {
					if t.Axis < 0 || t.Axis >= nAxes {
						return fmt.Errorf("te: node %q access to %q references axis %d of %d",
							n.Name, acc.Tensor.Name, t.Axis, nAxes)
					}
				}
			}
		}
		seen[n.Out] = true
	}
	return nil
}

// String renders the naive program of the DAG, in the style of Figure 5.
func (d *DAG) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# dag %s\n", d.Name)
	for _, n := range d.Nodes {
		axes := n.Axes()
		indent := ""
		for _, a := range axes {
			fmt.Fprintf(&b, "%sfor %s in range(%d):\n", indent, a.Name, a.Extent)
			indent += "  "
		}
		op := "="
		if len(n.ReduceAxes) > 0 {
			op = "+="
		}
		fmt.Fprintf(&b, "%s%s[...] %s f(", indent, n.Out.Name, op)
		for i, a := range n.Reads {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.Tensor.Name)
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// HasMoreReductionParallel reports whether the node has little parallelism
// in space dimensions but ample parallelism in reduction dimensions
// (Table 1 rule 6's condition), e.g. a matrix 2-norm or a tall-thin matmul.
func (n *Node) HasMoreReductionParallel() bool {
	return n.DataReuse && n.SpaceSize() < 256 && n.ReduceSize() >= 16*n.SpaceSize()
}
