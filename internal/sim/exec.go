package sim

import (
	"math"

	"repro/internal/ir"
)

// Time returns the modelled execution time of a complete lowered program,
// in seconds. It is pure and deterministic, and allocates nothing for a
// program whose statements fit its stack buffers.
func (m *Machine) Time(low *ir.Lowered) float64 {
	// One call's working memory. A statement or program past these
	// buffers takes its slice from the heap: no rank or loop count is
	// capped.
	var floats [512]float64
	var levels [16]int
	ctx := progCtx{stmts: low.Stmts, level: carve(levels[:], len(low.Stmts)), floats: floats[:]}
	m.analyzeResidency(&ctx)
	var t float64
	for i := range low.Stmts {
		st := &low.Stmts[i]
		par, speedup := m.parallelism(st)
		t += m.stmtTime(st, par, speedup, m.memoryTime(st, speedup, &ctx))
	}
	return t
}

// carve returns buf[:n], or a fresh slice when n is past buf.
func carve[T any](buf []T, n int) []T {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// progCtx is one Time call's view of the program. level records, per
// statement, the index of the cache level where the tensor it writes is
// left for its consumers (len(Caches) means DRAM, -1 that no statement
// reads it). This is what makes operator fusion and cache-write stages pay
// off: an intermediate consumed within the loop region that produced it
// never round-trips to memory. floats is the call's scratch, reused by
// every statement.
type progCtx struct {
	stmts  []ir.Stmt
	level  []int
	floats []float64
}

// producer returns the index of the last statement that writes the tensor
// named name, or -1.
func (c *progCtx) producer(name string) int {
	for i := len(c.stmts) - 1; i >= 0; i-- {
		if w := c.stmts[i].Write; w != nil && w.Tensor.Name == name {
			return i
		}
	}
	return -1
}

// srcLevel returns where the tensor named name already lives: the level
// its producer leaves it at, or dram.
func (c *progCtx) srcLevel(name string, dram int) int {
	if p := c.producer(name); p >= 0 && c.level[p] >= 0 {
		return c.level[p]
	}
	return dram
}

// analyzeResidency fills ctx.level from each producer write's footprint
// below the loop prefix it shares with each of its consumers.
func (m *Machine) analyzeResidency(ctx *progCtx) {
	for i := range ctx.level {
		ctx.level[i] = -1
	}
	for i := range ctx.stmts {
		st := &ctx.stmts[i]
		for r := range st.Reads {
			pi := ctx.producer(st.Reads[r].Tensor.Name)
			if pi < 0 {
				continue
			}
			p := &ctx.stmts[pi]
			// Common loop-path prefix between producer and consumer:
			// the intermediate is regenerated per iteration of the
			// shared prefix, so its live footprint is the producer's
			// write region below that prefix.
			shared := 0
			for shared < len(p.Loops) && shared < len(st.Loops) &&
				p.Loops[shared] == st.Loops[shared] {
				shared++
			}
			foot := carve(ctx.floats, len(p.Loops)+1)
			footprints(p.Write, p.Loops, m.lineBytes(), p.PackedConst && p.Write.Tensor.Const, foot)
			lvl := len(m.Caches)
			for ci, c := range m.Caches {
				if foot[shared] <= float64(c.SizeBytes) {
					lvl = ci
					break
				}
			}
			ctx.level[pi] = max(ctx.level[pi], lvl)
		}
	}
}

// lineBytes is the granularity footprints are counted in.
func (m *Machine) lineBytes() int {
	if len(m.Caches) > 0 {
		return m.Caches[0].LineBytes
	}
	return 64
}

// parallelism returns the product of a statement's parallel extents and
// the speedup they buy on the machine's cores.
func (m *Machine) parallelism(st *ir.Stmt) (par, speedup float64) {
	par, speedup = 1, 1
	for _, l := range st.Loops {
		if l.Ann == ir.AnnParallel {
			par *= float64(l.Extent)
		}
	}
	if par > 1 {
		chunks := math.Ceil(par / float64(m.Cores))
		speedup = par / chunks
	}
	return par, speedup
}

// stmtTime models one innermost statement with its loop path, given its
// parallelism and the bandwidth-bound time memoryTime gives it.
func (m *Machine) stmtTime(st *ir.Stmt, par, speedup, memTime float64) float64 {
	loops := st.Loops
	n := len(loops)
	iters := 1.0
	for _, l := range loops {
		iters *= float64(l.Extent)
	}
	freqHz := m.FreqGHz * 1e9

	// ---- Vectorization ----
	vec := 1.0
	vecIdx := -1
	for j := n - 1; j >= 0; j-- {
		if loops[j].Ann == ir.AnnVectorize {
			vecIdx = j
			break
		}
	}
	if vecIdx >= 0 {
		lane := minf(float64(loops[vecIdx].Extent), float64(m.VectorLanes))
		eff := 1.0
		// Penalty if the vectorized loop is not innermost.
		for j := vecIdx + 1; j < n; j++ {
			if loops[j].Extent > 1 {
				eff = 0.25
				break
			}
		}
		// Penalty for non-unit stride accesses along the vector loop: the
		// write must stay contiguous (scatter kills vectorization); on
		// GPUs uncoalesced loads waste most of the memory transaction;
		// on CPUs gathered loads cost extra load micro-ops, charged on
		// the load side below.
		if st.Write != nil {
			if s := st.Write.ElemStride(vecIdx); s != 0 && s != 1 {
				eff *= 0.25
			}
		}
		if m.GPU {
			for i := range st.Reads {
				a := &st.Reads[i]
				if st.PackedConst && a.Tensor.Const {
					continue
				}
				if s := a.ElemStride(vecIdx); s != 0 && s != 1 {
					eff *= 0.15 // uncoalesced
					break
				}
			}
		}
		vec = maxf(1, lane*eff)
	}

	// ---- Unrolling ----
	// Explicitly unrolled loops, plus innermost loops implicitly unrolled
	// by the auto_unroll_max_step pragma. A vectorized loop contributes
	// extent/lanes vector instructions to the unrolled body.
	var unrolledBuf [32]bool
	unrolled := carve(unrolledBuf[:], n)
	body := 1.0
	for j := n - 1; j >= 0; j-- {
		l := loops[j]
		eff := float64(l.Extent)
		if l.Ann == ir.AnnVectorize {
			eff = math.Max(1, eff/vec)
		}
		switch {
		case l.Ann == ir.AnnUnroll:
			unrolled[j] = true
			body *= eff
		case (l.Ann == ir.AnnNone || l.Ann == ir.AnnVectorize) &&
			st.AutoUnrollMax > 1 && body*eff <= float64(st.AutoUnrollMax):
			unrolled[j] = true
			body *= eff
		default:
			j = -1 // stop at the first non-unrollable loop
		}
	}
	icache := 1.0
	if body > float64(m.UnrollBudget) {
		icache = 1 + 0.3*math.Log2(body/float64(m.UnrollBudget))
	}

	// ---- Compute ----
	f := st.Flops
	flopsPerIter := effectiveFlops(f.AddF, f.SubF, f.MulF, f.DivF, f.MaxF, f.CmpF, f.MathF, f.IntOps)
	if st.ZeroFrac > 0 && body >= 4 {
		// Unrolled bodies let the code generator elide statically-zero
		// multiplications (§7.1, T2D).
		flopsPerIter *= 1 - st.ZeroFrac
		if flopsPerIter < 0.25 {
			flopsPerIter = 0.25
		}
	}
	computeCycles := iters * flopsPerIter / (2 * m.FMAIssue) / vec * icache
	// Loads amortize over the unrolled register tile: an access whose
	// stride is zero along an unrolled loop is loaded once and reused
	// from registers across that loop (classic register tiling).
	loadsPerIter := 0.0
	for i := range st.Reads {
		a := &st.Reads[i]
		reuse := 1.0
		for j := 0; j < n; j++ {
			if unrolled[j] && a.ElemStride(j) == 0 {
				reuse *= float64(loops[j].Extent)
			}
		}
		if reuse > 16 {
			reuse = 16 // register budget
		}
		cost := 1.0
		// A CPU gather along the vector loop issues one load per lane
		// group instead of one vector load.
		if !m.GPU && vecIdx >= 0 && !(st.PackedConst && a.Tensor.Const) {
			if s := a.ElemStride(vecIdx); s != 0 && s != 1 {
				cost = vec / 2
				if cost < 1 {
					cost = 1
				}
			}
		}
		loadsPerIter += cost / reuse
	}
	loadCycles := iters * loadsPerIter / m.LoadIssue / vec
	computeCycles = maxf(computeCycles, loadCycles)

	// ---- Loop overhead ----
	overheadCycles := 0.0
	trips := 1.0
	for j := 0; j < n; j++ {
		trips *= float64(loops[j].Extent)
		if unrolled[j] {
			continue
		}
		tr := trips
		if j == vecIdx {
			tr /= vec
		}
		overheadCycles += tr * m.LoopOverheadCycles
	}

	serial := (computeCycles + overheadCycles) / freqHz
	t := maxf(serial/speedup, memTime)
	if par > 1 {
		t += m.ParallelSpawnNs * 1e-9
	}
	if m.GPU && par <= 1 {
		// A kernel that does not distribute across SMs still pays launch.
		t += m.ParallelSpawnNs * 1e-9
	}
	return t
}

// footprints is the sweep: out[d], for every depth d ∈ [0, len(loops)],
// is the line-granular byte footprint of one access when path loops < d
// are fixed and loops >= d iterate. forceDense treats the access as
// unit-stride in the last dimension (used for layout-rewritten constant
// tensors, §4.2).
//
// Per tensor dimension the swept span is 1 + Σ |coeff|·(extent−1) over
// loops >= d, clamped to the dimension, and the footprint multiplies the
// clamped spans up in dimension order. Walking d from the innermost loop
// outwards, each span only gains loop d's term and the last dimension's
// density only loop d's |coeff| = 1 test, so one pass costs O(dims·n)
// where evaluating every depth from scratch cost O(dims·n²). The terms
// are small integers and every partial sum stays below 2⁵³, so the
// running int64 sums are, bit for bit, the float sums a per-depth
// evaluation makes in any order — the argument feat.extractAICurve makes
// for its curve, pinned by the oracle test.
func footprints(a *ir.FlatAccess, loops []ir.LLoop, lineBytes int, forceDense bool, out []float64) {
	n := len(loops)
	shape := a.Tensor.Shape
	var spanBuf [8]int64
	spans := carve(spanBuf[:], len(shape))
	for dim := range spans {
		spans[dim] = 1
	}
	eb := float64(a.Tensor.ElemBytes)
	lb := float64(lineBytes)
	lastDense := false
	for d := n; d >= 0; d-- {
		if d < n {
			sweep := int64(loops[d].Extent - 1)
			for dim := range spans {
				c := a.Coeff[dim*n+d]
				if c < 0 {
					c = -c
				}
				spans[dim] += int64(c) * sweep
				if dim == len(spans)-1 && c == 1 {
					lastDense = true
				}
			}
		}
		unique, lastSpan := 1.0, 1.0
		for dim, span := range spans {
			// Both positive and finite: a plain comparison is math.Min.
			lastSpan = float64(span)
			if s := float64(shape[dim]); lastSpan > s {
				lastSpan = s
			}
			unique *= lastSpan
		}
		var lines float64
		switch {
		case forceDense:
			// Layout-rewritten constants are laid out exactly in
			// traversal order: the whole region is contiguous.
			lines = math.Ceil(unique * eb / lb)
		case lastDense:
			rows := unique / maxf(lastSpan, 1)
			lines = rows * math.Ceil(lastSpan*eb/lb)
		default:
			lines = unique
		}
		out[d] = lines * lb
	}
}

// memoryTime performs working-set analysis over the cache hierarchy and
// returns the bandwidth-bound time of the statement.
func (m *Machine) memoryTime(st *ir.Stmt, speedup float64, ctx *progCtx) float64 {
	loops := st.Loops
	n := len(loops)
	// The accesses, reads then the write.
	nAcc := len(st.Reads)
	if st.Write != nil {
		nAcc++
	}
	access := func(ai int) *ir.FlatAccess {
		if ai < len(st.Reads) {
			return &st.Reads[ai]
		}
		return st.Write
	}
	// src[ai]: where the data already lives (len(Caches) = DRAM).
	// Intermediates resident in a cache skip deeper traffic.
	nLevels := len(m.Caches)
	var srcBuf [8]int
	src := carve(srcBuf[:], nAcc)
	for ai := range src {
		src[ai] = ctx.srcLevel(access(ai).Tensor.Name, nLevels)
	}
	// foot[d]: resident bytes when loops < d are fixed; trips[d]: the
	// iterations of loops < d; lineB[ai*w+d]: line-granular bytes of one
	// sweep of the region.
	w := n + 1
	buf := carve(ctx.floats, (nAcc+2)*w)
	foot, trips, lineB := buf[:w], buf[w:2*w], buf[2*w:]
	clear(foot)
	lb := m.lineBytes()
	for ai := range nAcc {
		a := access(ai)
		row := lineB[ai*w : (ai+1)*w]
		footprints(a, loops, lb, st.PackedConst && a.Tensor.Const, row)
		for d, b := range row {
			foot[d] += b
		}
	}
	trips[0] = 1
	for j := 0; j < n; j++ {
		trips[j+1] = trips[j] * float64(loops[j].Extent)
	}
	freqHz := m.FreqGHz * 1e9
	var worst float64
	var dramTraffic float64
	for ci, c := range m.Caches {
		// The outermost depth whose working set fits the level.
		d := 0
		for d < n && foot[d] > float64(c.SizeBytes) {
			d++
		}
		traffic := 0.0
		for ai := range nAcc {
			if ci >= src[ai] {
				continue // data already resident at src[ai]
			}
			traffic += lineB[ai*w+d] * trips[d]
		}
		bw := c.FillBW * freqHz
		scale := speedup
		if c.Shared {
			scale = minf(speedup, float64(m.Cores)/2)
		}
		worst = maxf(worst, traffic/(bw*scale))
		if ci == len(m.Caches)-1 {
			for ai := range nAcc {
				if src[ai] >= nLevels {
					dramTraffic += lineB[ai*w+d] * trips[d]
				}
			}
		}
	}
	// DRAM: only accesses not resident in any cache level reach memory.
	worst = maxf(worst, dramTraffic/(m.MemBWGBs*1e9))
	return worst
}
