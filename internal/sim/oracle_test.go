package sim

import (
	"math"
	"testing"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
)

// The oracle: the memory half of the model as it stood before the
// footprint sweep — per-depth footprints re-walking loops d..n, maps keyed
// by tensor name for residency. Frozen here so the sweep is held to it bit
// for bit; a change that means to move the model's numbers changes both.

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

// oracleTime is Time with the oracle's memory half.
func oracleTime(m *Machine, low *ir.Lowered) float64 {
	srcLevel := oracleResidency(m, low)
	var t float64
	for i := range low.Stmts {
		st := &low.Stmts[i]
		par, speedup := m.parallelism(st)
		t += m.stmtTime(st, par, speedup, oracleMemoryTime(m, st, speedup, srcLevel))
	}
	return t
}

func oracleResidency(m *Machine, low *ir.Lowered) map[string]int {
	srcLevel := map[string]int{}
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
			shared := 0
			for shared < len(p.Loops) && shared < len(st.Loops) &&
				p.Loops[shared] == st.Loops[shared] {
				shared++
			}
			bytes := accessFootprint(p.Write, p.Loops, shared, m.lineBytes(), p.PackedConst && p.Write.Tensor.Const)
			lvl := len(m.Caches)
			for ci, c := range m.Caches {
				if bytes <= float64(c.SizeBytes) {
					lvl = ci
					break
				}
			}
			if old, ok := srcLevel[r.Tensor.Name]; !ok || lvl > old {
				srcLevel[r.Tensor.Name] = lvl
			}
		}
	}
	return srcLevel
}

func oracleMemoryTime(m *Machine, st *ir.Stmt, speedup float64, srcLevel map[string]int) float64 {
	loops := st.Loops
	n := len(loops)
	accs := make([]*ir.FlatAccess, 0, len(st.Reads)+1)
	for i := range st.Reads {
		accs = append(accs, &st.Reads[i])
	}
	if st.Write != nil {
		accs = append(accs, st.Write)
	}
	lb := m.lineBytes()
	nLevels := len(m.Caches)
	src := make([]int, len(accs))
	for ai, a := range accs {
		src[ai] = nLevels
		if lvl, ok := srcLevel[a.Tensor.Name]; ok {
			src[ai] = lvl
		}
	}
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
				continue
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
	worst = maxf(worst, dramTraffic/(m.MemBWGBs*1e9))
	return worst
}

// TestSweepMatchesPerDepthOracle gates the sweep's exact-integer argument:
// over programs sampled from every single-operator DAG and every network
// task, for both sketch targets, footprints equals the per-depth oracle at
// every (statement, access, depth) — dense or not, at every model's line
// size — and Time equals oracleTime on every model, in Float64bits.
func TestSweepMatchesPerDepthOracle(t *testing.T) {
	var dags []*te.DAG
	for _, w := range workloads.SingleOps(1) {
		dags = append(dags, w.Build())
	}
	for _, net := range workloads.AllNetworks(1) {
		for _, task := range net.Tasks {
			dags = append(dags, task.Build())
		}
	}
	machines := []*Machine{IntelXeon(), IntelXeonAVX512(), ARMCortexA53(), NVIDIAV100()}
	perDAG := 16
	if testing.Short() {
		perDAG = 4
	}
	programs, footprintsChecked := 0, 0
	for _, target := range []sketch.Target{sketch.CPUTarget(), sketch.GPUTarget()} {
		gen := sketch.NewGenerator(target)
		sampler := anno.NewSampler(target, 1)
		for di, dag := range dags {
			sketches, err := gen.Generate(dag)
			if err != nil {
				t.Fatalf("%s DAG %d: %v", target.Structure, di, err)
			}
			for _, s := range sampler.SamplePopulation(sketches, perDAG) {
				low, err := ir.Lower(s)
				if err != nil {
					t.Fatal(err)
				}
				programs++
				for _, m := range machines {
					footprintsChecked += checkSweep(t, low, m.lineBytes())
					if got, want := m.Time(low), oracleTime(m, low); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s DAG %d on %s: Time %v, oracle %v\n%s", target.Structure, di, m.Name, got, want, s.Print())
					}
				}
			}
		}
	}
	if programs < len(dags) {
		t.Fatalf("sampled %d programs from %d DAGs", programs, len(dags))
	}
	t.Logf("%d programs, %d DAGs, %d footprints checked", programs, len(dags), footprintsChecked)
}

// checkSweep compares every access's sweep of every statement with the
// oracle, dense and not, and returns how many footprints it compared.
func checkSweep(t *testing.T, low *ir.Lowered, lineBytes int) int {
	t.Helper()
	checked := 0
	for si := range low.Stmts {
		st := &low.Stmts[si]
		out := make([]float64, len(st.Loops)+1)
		for ai := 0; ai <= len(st.Reads); ai++ {
			a := st.Write
			if ai < len(st.Reads) {
				a = &st.Reads[ai]
			}
			if a == nil {
				continue
			}
			for _, dense := range []bool{false, true} {
				footprints(a, st.Loops, lineBytes, dense, out)
				for d, got := range out {
					want := accessFootprint(a, st.Loops, d, lineBytes, dense)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("statement %d access %s depth %d (dense %v, line %d): sweep %v, oracle %v",
							si, a.Tensor.Name, d, dense, lineBytes, got, want)
					}
					checked++
				}
			}
		}
	}
	return checked
}
