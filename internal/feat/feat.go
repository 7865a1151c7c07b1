// Package feat extracts the cost-model features of Appendix B: for every
// innermost non-loop statement of a lowered program, a fixed-length vector
// of arithmetic features, vectorization/unrolling/parallelization
// features, GPU binding features, an arithmetic-intensity curve, per-buffer
// access features, allocation features and outer-loop features. Numeric
// magnitudes are log2(x+1)-scaled as in TVM's auto_scheduler.
package feat

import (
	"math"
	"slices"
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

// log2p1 is the scale of every magnitude feature: log2(x+1).
func log2p1(x float64) float64 { return math.Log2(x + 1) }

// lgSmall holds log2p1 of every integer below its length: zeros, counts,
// extents and small products, about half of all lg calls.
var lgSmall = func() (t [4096]float64) {
	for i := range t {
		t[i] = log2p1(float64(i))
	}
	return t
}()

// lg returns log2p1(max(x, 0)), bit for bit: from the table for an
// integer below its length, ±0 included, and from lgMemo otherwise. The
// mask keeps the index inside the table whatever x is; the compare admits
// only an x equal to its index.
func (sc *scratch) lg(x float64) float64 {
	if i := int(x) & (len(lgSmall) - 1); float64(i) == x {
		return lgSmall[i]
	}
	return sc.lgMemo(x)
}

// lgMemo is lg off the table: 0 for x < 0, and otherwise the memo slot of
// x's bits, which a miss fills from log2p1. No key is 0, the bits of +0,
// so a zeroed slot is empty.
func (sc *scratch) lgMemo(x float64) float64 {
	if x < 0 {
		return 0
	}
	bits := math.Float64bits(x)
	slot := &sc.memo[lgSlot(bits)]
	if slot.key != bits {
		slot.key, slot.val = bits, log2p1(x)
	}
	return slot.val
}

// lgSlot spreads a value's bits over lg's memo (Fibonacci hashing): the
// integers and fractions lg meets differ mostly in their high bits.
func lgSlot(bits uint64) uint64 { return bits * 0x9E3779B97F4A7C15 >> (64 - lgMemoBits) }

const lgMemoBits = 8

// scratch holds the per-extraction working buffers (access list, unique
// bytes and reuse loop per access, running spans, AI-curve samples) so
// the extraction hot path allocates only the feature rows it returns.
// Pooled because the sharded search extracts from many goroutines. The
// buffers are transient within one Extract call; access pointers are
// cleared before the scratch returns to the pool so it never pins a
// program. memo is lg's, and it outlives the call: a pure function's
// results keyed by every bit of the input, it holds no pointer, and
// whichever goroutine holds the scratch owns it.
type scratch struct {
	accs  []*ir.FlatAccess
	sizes []float64 // unique bytes of accs[i] at the current depth
	reuse []int     // innermost loop of extent > 1 that does not move accs[i]
	spans []int64   // per (access, dim): 1 + the index range the loops at and below the current depth sweep
	ai    []float64
	memo  [1 << lgMemoBits]struct {
		key uint64
		val float64
	}
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
		v[p] = sc.lg(c * iters)
		p++
	}
	v[p] = sc.lg(f.IntOps * iters)
	p++

	// ---- Annotation groups: vectorize, unroll, parallel ----
	p, lgProduct := extractAnnGroups(v, p, st, sc)

	// ---- GPU thread binding ----
	// The simplified GPU convention maps the fused parallel loop to
	// blockIdx.x and the vectorized loop to threadIdx.x: their lengths are
	// the parallel and vectorize groups' products.
	v[p] = lgProduct[2]
	v[p+3] = lgProduct[0]
	p += gpuBinding

	// ---- Arithmetic intensity curve ----
	p = extractAICurve(v, p, st, sc)

	// ---- Buffer access features ----
	sc.rankAccesses()
	for bi := 0; bi < bufCount; bi++ {
		if bi < len(sc.accs) {
			extractBuffer(v[p:p+bufFeats], st, iters, sc.accs[bi], sc.sizes[bi], sc.reuse[bi], sc)
		}
		p += bufFeats
	}

	// ---- Allocation ----
	if st.Write != nil {
		v[p] = sc.lg(float64(st.Write.Tensor.Bytes()))
	}
	v[p+1] = sc.lg(1)
	p += allocFeats

	// ---- Other ----
	v[p] = sc.lg(float64(len(st.Loops)))
	v[p+1] = sc.lg(iters)
	v[p+2] = sc.lg(float64(st.AutoUnrollMax))
	p += otherFeats
	_ = p
}

// annKinds are the annotation groups' kinds, in feature order.
var annKinds = [3]ir.Annotation{ir.AnnVectorize, ir.AnnUnroll, ir.AnnParallel}

// extractAnnGroups fills, per annotation kind, len/product/number plus
// the 8-way position one-hot, in one pass over the loops, and returns the
// next offset and lg of each group's product of extents.
func extractAnnGroups(v []float64, p int, st *ir.Stmt, sc *scratch) (int, [3]float64) {
	product, num, maxLen := [3]float64{1, 1, 1}, [3]float64{}, [3]float64{}
	pos := [3]int{7, 7, 7} // None
	n := len(st.Loops)
	for j := range st.Loops {
		l := &st.Loops[j]
		g := slices.Index(annKinds[:], l.Ann)
		if g < 0 {
			continue
		}
		num[g]++
		product[g] *= float64(l.Extent)
		if float64(l.Extent) > maxLen[g] {
			maxLen[g] = float64(l.Extent)
		}
		// Position: inner/middle/outer x spatial/reduce, mixed.
		third := 0 // outer
		if j >= 2*n/3 {
			third = 2
		} else if j >= n/3 {
			third = 1
		}
		cls := 2 - third // Outer/Middle/InnerSpatial
		if l.Kind != te.Space {
			cls += 3
		}
		if pos[g] == 7 {
			pos[g] = cls
		} else if pos[g] != cls {
			pos[g] = 6 // Mixed
		}
	}
	var lgProduct [3]float64
	for g := range annKinds {
		v[p] = sc.lg(maxLen[g])
		v[p+1] = sc.lg(product[g])
		v[p+2] = sc.lg(num[g])
		v[p+3+pos[g]] = 1
		lgProduct[g] = v[p+1]
		p += annGroup
	}
	return p, lgProduct
}

// extractAICurve samples the arithmetic-intensity curve at 10 depths. It
// leaves sc.accesses in sc.accs, and beside them, in sc.sizes, every
// access's unique bytes at depth 0 and, in sc.reuse, the innermost loop of
// extent > 1 that does not move it (-1 if none).
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
	// A loop of extent 1 moves nothing, so its depth repeats the one
	// inside it. Elsewhere an access's bytes change only if the loop moves
	// one of its spans, and only then is its product taken again, in
	// dimension order; the sum over accesses is taken in access order.
	if cap(sc.ai) < n+1 {
		sc.ai = make([]float64, n+1)
	}
	ai := sc.ai[:n+1]
	accs := sc.accesses(st)
	sc.sizes, sc.spans, sc.reuse = sc.sizes[:0], sc.spans[:0], sc.reuse[:0]
	for _, a := range accs {
		for range a.Tensor.Shape {
			sc.spans = append(sc.spans, 1)
		}
		sc.sizes = append(sc.sizes, uniqueBytes(a, sc.spans[len(sc.spans)-len(a.Tensor.Shape):]))
		sc.reuse = append(sc.reuse, -1)
	}
	inner := 1.0
	for d := n; d >= 0; d-- {
		if d < n {
			if st.Loops[d].Extent == 1 {
				ai[d] = ai[d+1]
				continue
			}
			inner *= float64(st.Loops[d].Extent)
			sweep, spans := int64(st.Loops[d].Extent-1), sc.spans
			for i, a := range accs {
				moved := 0 // nonzero once a coefficient at d is
				for dim := range a.Tensor.Shape {
					c := a.Coeff[dim*n+d]
					spans[dim] += int64(max(c, -c)) * sweep
					moved |= c
				}
				if moved != 0 {
					sc.sizes[i] = uniqueBytes(a, spans)
				} else if sc.reuse[i] < 0 && sweep > 0 {
					sc.reuse[i] = d
				}
				spans = spans[len(a.Tensor.Shape):]
			}
		}
		bytes := 1.0
		for _, size := range sc.sizes {
			bytes += size
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
		v[p+i] = sc.lg(ai[lo]*(1-frac) + ai[hi]*frac)
	}
	return p + aiCurve
}

// uniqueBytes returns the bytes an access touches when it sweeps spans
// (one per tensor dimension, each clamped to the dimension).
func uniqueBytes(a *ir.FlatAccess, spans []int64) float64 {
	unique := 1.0
	for dim, shape := range a.Tensor.Shape {
		span := float64(spans[dim])
		if s := float64(shape); span > s {
			span = s
		}
		unique *= span
	}
	return unique * float64(a.Tensor.ElemBytes)
}

// rankAccesses orders what extractAICurve left in sc by unique bytes
// (descending) so the 5 feature slots hold the largest buffers, as the
// appendix specifies ("remove small buffers if a statement accesses more
// than five buffers").
func (sc *scratch) rankAccesses() {
	accs, sz, reuse := sc.accs, sc.sizes, sc.reuse
	for i := 1; i < len(accs); i++ {
		for j := i; j > 0 && sz[j] > sz[j-1]; j-- {
			accs[j], accs[j-1] = accs[j-1], accs[j]
			sz[j], sz[j-1] = sz[j-1], sz[j]
			reuse[j], reuse[j-1] = reuse[j-1], reuse[j]
		}
	}
}

// extractBuffer fills the 18 per-buffer features; iters is the
// statement's iteration count, uniq the access's unique bytes with every
// loop iterating and reuseLoop its innermost loop of extent > 1 that does
// not move it (-1 if none).
func extractBuffer(v []float64, st *ir.Stmt, iters float64, a *ir.FlatAccess, uniq float64, reuseLoop int, sc *scratch) {
	eb := float64(a.Tensor.ElemBytes)
	total := iters * eb
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
	v[3] = sc.lg(total)
	v[4] = sc.lg(uniq)
	// Lines (total / unique) at 64-byte granularity.
	v[5] = sc.lg(total / 64)
	v[6] = sc.lg(uniq / 64)
	// Reuse type one-hot: LoopMultipleRead, SerialMultipleRead, NoReuse.
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
	v[10] = sc.lg(reuseDist)
	v[11] = sc.lg(reuseCount)
	// Stride of the innermost loop.
	stride := 0
	if n > 0 {
		stride = a.ElemStride(n - 1)
	}
	if stride < 0 {
		stride = -stride
	}
	v[12] = sc.lg(float64(stride))
	// Derived ratios: bytes/reuse, unique bytes/reuse, lines/reuse,
	// unique lines/reuse.
	v[13] = sc.lg(total / reuseCount)
	v[14] = sc.lg(uniq / reuseCount)
	v[15] = sc.lg(total / 64 / reuseCount)
	v[16] = sc.lg(uniq / 64 / reuseCount)
	// Buffer size.
	v[17] = sc.lg(float64(a.Tensor.Bytes()))
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
