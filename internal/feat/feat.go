// Package feat extracts the cost-model features of Appendix B: for every
// innermost non-loop statement of a lowered program, a fixed-length vector
// of arithmetic features, vectorization/unrolling/parallelization
// features, GPU binding features, an arithmetic-intensity curve, per-buffer
// access features, allocation features and outer-loop features. Numeric
// magnitudes are log2(x+1)-scaled as in TVM's auto_scheduler.
package feat

import (
	"math"
	"sync"

	"repro/internal/ir"
	"repro/internal/te"
)

// Feature vector layout. Group boundaries are exported so experiments can
// mask groups to emulate incomplete programs (Figure 3).
const (
	floatOps   = 7  // add, sub, mul, div, max, cmp, math
	intOps     = 1  //
	annGroup   = 11 // len, product, number, position one-hot(8)
	gpuBinding = 7  // blockIdx xyz, threadIdx xyz, vthread
	aiCurve    = 10 // arithmetic-intensity curve samples
	bufCount   = 5  // feature slots for up to 5 buffers
	bufFeats   = 18 // per-buffer features (see extractBuffer)
	allocFeats = 2
	otherFeats = 3 // outer loop count, product, auto_unroll_max_step

	// Dim is the feature vector length (7+1+3*11+7+10+5*18+2+3 = 153,
	// matching Appendix B's structure; the paper reports 164 with a
	// slightly larger buffer block).
	Dim = floatOps + intOps + 3*annGroup + gpuBinding + aiCurve +
		bufCount*bufFeats + allocFeats + otherFeats
)

// Group offsets for masking experiments.
var (
	// StructureGroupStart is the first index of features that only exist
	// once low-level details (annotations, tile sizes) are decided; an
	// incomplete program has zeros there.
	StructureGroupStart = floatOps + intOps
)

func lg(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Log2(x + 1)
}

// scratch holds the per-extraction working buffers (access list, unique
// bytes per access, running spans, AI-curve samples) so the extraction hot
// path allocates only the feature rows it returns. Pooled because the
// sharded search extracts from many goroutines. All buffers are transient
// within one Extract call; access pointers are cleared before the scratch
// returns to the pool so it never pins a program.
type scratch struct {
	accs  []*ir.FlatAccess
	sizes []float64 // unique bytes of accs[i] with every loop iterating
	spans []int64   // per (access, dim): 1 + the index range the loops at and below the current depth sweep
	ai    []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// accesses fills sc.accs with the statement's accesses in canonical
// order (reads, then the write) — the order every consumer iterates in.
func (sc *scratch) accesses(st *ir.Stmt) []*ir.FlatAccess {
	sc.accs = sc.accs[:0]
	for i := range st.Reads {
		sc.accs = append(sc.accs, &st.Reads[i])
	}
	if st.Write != nil {
		sc.accs = append(sc.accs, st.Write)
	}
	return sc.accs
}

func (sc *scratch) release() {
	clear(sc.accs[:cap(sc.accs)])
	sc.accs = sc.accs[:0]
	scratchPool.Put(sc)
}

// Extract returns one feature vector per innermost statement of the
// lowered program. The rows share one backing slab: two allocations per
// program (slab + row index) regardless of statement count, plus pooled
// scratch for the per-statement working sets.
func Extract(low *ir.Lowered) [][]float64 {
	out := make([][]float64, len(low.Stmts))
	slab := make([]float64, len(low.Stmts)*Dim)
	sc := scratchPool.Get().(*scratch)
	for i := range low.Stmts {
		v := slab[i*Dim : (i+1)*Dim : (i+1)*Dim]
		extractStmt(v, &low.Stmts[i], sc)
		out[i] = v
	}
	sc.release()
	return out
}

// extractStmt fills v (len Dim, zeroed) with st's features.
func extractStmt(v []float64, st *ir.Stmt, sc *scratch) {
	iters := float64(st.IterCount())
	p := 0

	// ---- Float / int op counts (totals over the statement) ----
	f := st.Flops
	for _, c := range []float64{f.AddF, f.SubF, f.MulF, f.DivF, f.MaxF, f.CmpF, f.MathF} {
		v[p] = lg(c * iters)
		p++
	}
	v[p] = lg(f.IntOps * iters)
	p++

	// ---- Annotation groups: vectorize, unroll, parallel ----
	for _, ann := range []ir.Annotation{ir.AnnVectorize, ir.AnnUnroll, ir.AnnParallel} {
		p = extractAnnGroup(v, p, st, ann)
	}

	// ---- GPU thread binding ----
	// The simplified GPU convention maps the fused parallel loop to
	// blockIdx.x and the vectorized loop to threadIdx.x.
	var blockLen, threadLen float64 = 1, 1
	for j := range st.Loops {
		l := &st.Loops[j]
		if l.Ann == ir.AnnParallel {
			blockLen *= float64(l.Extent)
		}
		if l.Ann == ir.AnnVectorize {
			threadLen *= float64(l.Extent)
		}
	}
	v[p] = lg(blockLen)
	v[p+3] = lg(threadLen)
	p += gpuBinding

	// ---- Arithmetic intensity curve ----
	p = extractAICurve(v, p, st, sc)

	// ---- Buffer access features ----
	accs, uniq := rankedAccesses(st, sc)
	for bi := 0; bi < bufCount; bi++ {
		if bi < len(accs) {
			extractBuffer(v[p:p+bufFeats], st, accs[bi], uniq[bi])
		}
		p += bufFeats
	}

	// ---- Allocation ----
	if st.Write != nil {
		v[p] = lg(float64(st.Write.Tensor.Bytes()))
	}
	v[p+1] = lg(1)
	p += allocFeats

	// ---- Other ----
	v[p] = lg(float64(len(st.Loops)))
	v[p+1] = lg(iters)
	v[p+2] = lg(float64(st.AutoUnrollMax))
	p += otherFeats
	_ = p
}

// extractAnnGroup fills len/product/number plus the 8-way position one-hot
// for one annotation kind.
func extractAnnGroup(v []float64, p int, st *ir.Stmt, ann ir.Annotation) int {
	product := 1.0
	num := 0.0
	maxLen := 0.0
	pos := 7 // None
	n := len(st.Loops)
	for j := range st.Loops {
		l := &st.Loops[j]
		if l.Ann != ann {
			continue
		}
		num++
		product *= float64(l.Extent)
		if float64(l.Extent) > maxLen {
			maxLen = float64(l.Extent)
		}
		// Position: inner/middle/outer x spatial/reduce, mixed.
		third := 0 // outer
		if j >= 2*n/3 {
			third = 2
		} else if j >= n/3 {
			third = 1
		}
		var cls int
		if l.Kind == te.Space {
			cls = []int{2, 1, 0}[third] // Outer/Middle/InnerSpatial
		} else {
			cls = []int{5, 4, 3}[third]
		}
		if pos == 7 {
			pos = cls
		} else if pos != cls {
			pos = 6 // Mixed
		}
	}
	v[p] = lg(maxLen)
	v[p+1] = lg(product)
	v[p+2] = lg(num)
	v[p+3+pos] = 1
	return p + annGroup
}

// extractAICurve samples the arithmetic-intensity curve at 10 depths. It
// leaves every access's unique bytes at depth 0 in sc.sizes, in
// sc.accesses order.
func extractAICurve(v []float64, p int, st *ir.Stmt, sc *scratch) int {
	n := len(st.Loops)
	flopsPerIter := st.Flops.Total()
	if flopsPerIter < 1 {
		flopsPerIter = 1
	}
	// At depth d, work below = flops * prod(extents >= d); bytes below =
	// the unique footprint of all accesses with loops < d fixed: per
	// tensor dimension the swept span 1 + sum |coeff|*(extent-1) over
	// loops >= d, clamped to the dimension, multiplied up. Walking d from
	// the innermost loop outwards, each span only gains loop d's term; the
	// terms are small integers, so the running int64 sums are, bit for
	// bit, the float sums a from-scratch evaluation per depth would make.
	if cap(sc.ai) < n+1 {
		sc.ai = make([]float64, n+1)
	}
	ai := sc.ai[:n+1]
	accs := sc.accesses(st)
	sc.sizes, sc.spans = sc.sizes[:0], sc.spans[:0]
	for _, a := range accs {
		sc.sizes = append(sc.sizes, 0)
		for range a.Tensor.Shape {
			sc.spans = append(sc.spans, 1)
		}
	}
	inner := 1.0
	for d := n; d >= 0; d-- {
		if d < n {
			inner *= float64(st.Loops[d].Extent)
			sweep := int64(st.Loops[d].Extent - 1)
			k := 0
			for _, a := range accs {
				for dim := range a.Tensor.Shape {
					c := a.Coeff[dim*n+d]
					if c < 0 {
						c = -c
					}
					sc.spans[k] += int64(c) * sweep
					k++
				}
			}
		}
		bytes := 1.0
		k := 0
		for i, a := range accs {
			unique := 1.0
			for _, shape := range a.Tensor.Shape {
				span := float64(sc.spans[k])
				k++
				if s := float64(shape); span > s {
					span = s
				}
				unique *= span
			}
			sc.sizes[i] = unique * float64(a.Tensor.ElemBytes)
			bytes += sc.sizes[i]
		}
		ai[d] = flopsPerIter * inner / bytes
	}
	// Linear interpolation to 10 samples from innermost to outermost.
	for i := 0; i < aiCurve; i++ {
		t := float64(i) / float64(aiCurve-1)
		x := (1 - t) * float64(n) // innermost -> outermost
		lo := int(math.Floor(x))
		hi := int(math.Ceil(x))
		if hi > n {
			hi = n
		}
		frac := x - float64(lo)
		v[p+i] = lg(ai[lo]*(1-frac) + ai[hi]*frac)
	}
	return p + aiCurve
}

// rankedAccesses orders the statement's accesses by unique bytes
// (descending) so the 5 feature slots hold the largest buffers, as the
// appendix specifies ("remove small buffers if a statement accesses more
// than five buffers"). The sizes are the depth-0 values extractAICurve
// left behind, swapped alongside.
func rankedAccesses(st *ir.Stmt, sc *scratch) ([]*ir.FlatAccess, []float64) {
	accs, sz := sc.accesses(st), sc.sizes
	for i := 1; i < len(accs); i++ {
		for j := i; j > 0 && sz[j] > sz[j-1]; j-- {
			accs[j], accs[j-1] = accs[j-1], accs[j]
			sz[j], sz[j-1] = sz[j-1], sz[j]
		}
	}
	return accs, sz
}

// extractBuffer fills the 18 per-buffer features; uniq is the access's
// unique bytes with every loop iterating.
func extractBuffer(v []float64, st *ir.Stmt, a *ir.FlatAccess, uniq float64) {
	iters := float64(st.IterCount())
	eb := float64(a.Tensor.ElemBytes)
	loops := st.Loops
	n := len(loops)

	// Access type one-hot: read, write, read+write.
	isWrite := a == st.Write
	isRead := !isWrite
	if isWrite && len(st.Stage.Node.ReduceAxes) > 0 {
		isRead = true // accumulation reads and writes
	}
	switch {
	case isRead && isWrite:
		v[2] = 1
	case isWrite:
		v[1] = 1
	default:
		v[0] = 1
	}
	// Bytes touched (total) and unique bytes.
	v[3] = lg(iters * eb)
	v[4] = lg(uniq)
	// Lines (total / unique) at 64-byte granularity.
	v[5] = lg(iters * eb / 64)
	v[6] = lg(uniq / 64)
	// Reuse type one-hot: LoopMultipleRead, SerialMultipleRead, NoReuse.
	reuseLoop := -1
	for j := n - 1; j >= 0; j-- {
		moved := false
		for dim := range a.Tensor.Shape {
			if a.Coeff[dim*n+j] != 0 {
				moved = true
				break
			}
		}
		if !moved && loops[j].Extent > 1 {
			reuseLoop = j
			break
		}
	}
	reuseCount := 1.0
	reuseDist := 0.0
	switch {
	case reuseLoop >= 0:
		v[7] = 1 // LoopMultipleRead
		reuseCount = float64(loops[reuseLoop].Extent)
		d := 1.0
		for j := reuseLoop + 1; j < n; j++ {
			d *= float64(loops[j].Extent)
		}
		reuseDist = d * eb
	case iters > uniq/eb:
		v[8] = 1 // SerialMultipleRead
		reuseCount = iters / (uniq / eb)
	default:
		v[9] = 1 // NoReuse
	}
	v[10] = lg(reuseDist)
	v[11] = lg(reuseCount)
	// Stride of the innermost loop.
	stride := 0
	if n > 0 {
		stride = a.ElemStride(n - 1)
	}
	if stride < 0 {
		stride = -stride
	}
	v[12] = lg(float64(stride))
	// Derived ratios: bytes/reuse, unique bytes/reuse, lines/reuse,
	// unique lines/reuse.
	v[13] = lg(iters * eb / reuseCount)
	v[14] = lg(uniq / reuseCount)
	v[15] = lg(iters * eb / 64 / reuseCount)
	v[16] = lg(uniq / 64 / reuseCount)
	// Buffer size.
	v[17] = lg(float64(a.Tensor.Bytes()))
}

// MaskStructure zeroes the structure-dependent features (everything past
// the raw op counts), emulating the information available for an
// incomplete program whose low-level details are undecided. rate is the
// completion rate: a fraction `rate` of the structural features is kept.
func MaskStructure(vec []float64, rate float64, rng interface{ Float64() float64 }) []float64 {
	out := append([]float64(nil), vec...)
	for i := StructureGroupStart; i < len(out); i++ {
		if rng.Float64() > rate {
			out[i] = 0
		}
	}
	return out
}
