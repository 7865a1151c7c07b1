package sim

import (
	"math"

	"repro/internal/ir"
)

// Time returns the modelled execution time of a complete lowered program,
// in seconds. It is pure and deterministic.
func (m *Machine) Time(low *ir.Lowered) float64 {
	ctx := m.analyzeResidency(low)
	var t float64
	for i := range low.Stmts {
		t += m.stmtTime(&low.Stmts[i], ctx)
	}
	return t
}

// progCtx records, per intermediate tensor, the index of the cache level
// where its producer leaves the data for its consumers (len(Caches) means
// DRAM). This is what makes operator fusion and cache-write stages pay
// off: an intermediate consumed within the loop region that produced it
// never round-trips to memory.
type progCtx struct {
	srcLevel map[string]int
}

func (m *Machine) analyzeResidency(low *ir.Lowered) *progCtx {
	ctx := &progCtx{srcLevel: map[string]int{}}
	producer := map[string]*ir.Stmt{}
	for i := range low.Stmts {
		if st := &low.Stmts[i]; st.Write != nil {
			producer[st.Write.Tensor.Name] = st
		}
	}
	for i := range low.Stmts {
		st := &low.Stmts[i]
		for _, r := range st.Reads {
			p, ok := producer[r.Tensor.Name]
			if !ok {
				continue
			}
			// Common loop-path prefix between producer and consumer:
			// the intermediate is regenerated per iteration of the
			// shared prefix, so its live footprint is the producer's
			// write region below that prefix.
			shared := 0
			for shared < len(p.Loops) && shared < len(st.Loops) &&
				p.Loops[shared] == st.Loops[shared] {
				shared++
			}
			bytes := m.accessLineBytes(p, p.Write, shared)
			lvl := len(m.Caches)
			for ci, c := range m.Caches {
				if bytes <= float64(c.SizeBytes) {
					lvl = ci
					break
				}
			}
			if old, ok := ctx.srcLevel[r.Tensor.Name]; !ok || lvl > old {
				ctx.srcLevel[r.Tensor.Name] = lvl
			}
		}
	}
	return ctx
}

// accessLineBytes returns the line-granular footprint of one access of a
// statement when path loops < depth are fixed.
func (m *Machine) accessLineBytes(st *ir.Stmt, a *ir.FlatAccess, depth int) float64 {
	lb := 64
	if len(m.Caches) > 0 {
		lb = m.Caches[0].LineBytes
	}
	return accessFootprint(a, st.Loops, depth, lb, st.PackedConst && a.Tensor.Const)
}

// Throughput returns the modelled throughput in GFLOP/s of the program.
func (m *Machine) Throughput(low *ir.Lowered) float64 {
	t := m.Time(low)
	if t <= 0 {
		return 0
	}
	return low.TotalFlops() / t / 1e9
}

// stmtTime models one innermost statement with its loop path.
func (m *Machine) stmtTime(st *ir.Stmt, ctx *progCtx) float64 {
	loops := st.Loops
	n := len(loops)
	iters := 1.0
	for _, l := range loops {
		iters *= float64(l.Extent)
	}
	freqHz := m.FreqGHz * 1e9

	// ---- Parallelism ----
	par := 1.0
	for _, l := range loops {
		if l.Ann == ir.AnnParallel {
			par *= float64(l.Extent)
		}
	}
	speedup := 1.0
	if par > 1 {
		chunks := math.Ceil(par / float64(m.Cores))
		speedup = par / chunks
	}

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
	unrolled := make([]bool, n)
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

	// ---- Memory hierarchy ----
	memTime := m.memoryTime(st, speedup, ctx)

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

// accessFootprint returns the line-granular byte footprint of one access
// when loops < depth are fixed and loops >= depth iterate. forceDense
// treats the access as unit-stride in the last dimension (used for
// layout-rewritten constant tensors, §4.2).
func accessFootprint(a *ir.FlatAccess, loops []ir.LLoop, depth, lineBytes int, forceDense bool) float64 {
	n := len(loops)
	dims := len(a.Tensor.Shape)
	unique := 1.0
	lastSpan := 1.0
	lastDense := false
	for dim := 0; dim < dims; dim++ {
		span := 1.0
		row := a.Row(dim)
		for j := depth; j < n; j++ {
			c := row[j]
			if c < 0 {
				c = -c
			}
			if c != 0 {
				span += float64(c) * float64(loops[j].Extent-1)
			}
		}
		span = minf(span, float64(a.Tensor.Shape[dim]))
		unique *= span
		if dim == dims-1 {
			lastSpan = span
			for j := depth; j < n; j++ {
				if c := row[j]; c == 1 || c == -1 {
					lastDense = true
					break
				}
			}
		}
	}
	eb := float64(a.Tensor.ElemBytes)
	var lines float64
	if forceDense {
		// Layout-rewritten constants are laid out exactly in traversal
		// order: the whole region is contiguous.
		total := unique * eb
		lines = math.Ceil(total / float64(lineBytes))
		return lines * float64(lineBytes)
	}
	if lastDense {
		rows := unique / maxf(lastSpan, 1)
		lines = rows * math.Ceil(lastSpan*eb/float64(lineBytes))
	} else {
		lines = unique
	}
	return lines * float64(lineBytes)
}

// memoryTime performs working-set analysis over the cache hierarchy and
// returns the bandwidth-bound time of the statement.
func (m *Machine) memoryTime(st *ir.Stmt, speedup float64, ctx *progCtx) float64 {
	loops := st.Loops
	n := len(loops)
	accs := make([]*ir.FlatAccess, 0, len(st.Reads)+1)
	for i := range st.Reads {
		accs = append(accs, &st.Reads[i])
	}
	if st.Write != nil {
		accs = append(accs, st.Write)
	}
	lb := 64
	if len(m.Caches) > 0 {
		lb = m.Caches[0].LineBytes
	}
	// srcLevel per access: where the data already lives (len(Caches) =
	// DRAM). Intermediates resident in a cache skip deeper traffic.
	nLevels := len(m.Caches)
	src := make([]int, len(accs))
	for ai, a := range accs {
		src[ai] = nLevels
		if ctx != nil {
			if lvl, ok := ctx.srcLevel[a.Tensor.Name]; ok {
				src[ai] = lvl
			}
		}
	}
	// foot[d]: resident bytes when loops < d are fixed;
	// lineB[ai][d]: line-granular bytes of one sweep of the region.
	foot := make([]float64, n+1)
	lineB := make([][]float64, len(accs))
	for ai, a := range accs {
		lineB[ai] = make([]float64, n+1)
		dense := st.PackedConst && a.Tensor.Const
		for d := 0; d <= n; d++ {
			lineB[ai][d] = accessFootprint(a, loops, d, lb, dense)
			foot[d] += lineB[ai][d]
		}
	}
	trips := make([]float64, n+1)
	trips[0] = 1
	for j := 0; j < n; j++ {
		trips[j+1] = trips[j] * float64(loops[j].Extent)
	}
	fitDepth := func(size float64) int {
		for d := 0; d <= n; d++ {
			if foot[d] <= size {
				return d
			}
		}
		return n
	}
	freqHz := m.FreqGHz * 1e9
	var worst float64
	var dramTraffic float64
	for ci, c := range m.Caches {
		d := fitDepth(float64(c.SizeBytes))
		traffic := 0.0
		for ai := range accs {
			if ci >= src[ai] {
				continue // data already resident at src[ai]
			}
			traffic += lineB[ai][d] * trips[d]
		}
		bw := c.FillBW * freqHz
		scale := speedup
		if c.Shared {
			scale = minf(speedup, float64(m.Cores)/2)
		}
		worst = maxf(worst, traffic/(bw*scale))
		if ci == len(m.Caches)-1 {
			for ai := range accs {
				if src[ai] >= nLevels {
					dramTraffic += lineB[ai][d] * trips[d]
				}
			}
		}
	}
	// DRAM: only accesses not resident in any cache level reach memory.
	worst = maxf(worst, dramTraffic/(m.MemBWGBs*1e9))
	return worst
}
