package feat

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
)

// The extractor as it was before lg got its table and memo and the
// arithmetic-intensity curve its dirty-access pass, frozen as the oracle
// the production code must match bit for bit: every float operation below
// is in the order the production code must keep.

func oracleLg(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Log2(x + 1)
}

type oracleScratch struct {
	accs  []*ir.FlatAccess
	sizes []float64
	spans []int64
	ai    []float64
}

func (sc *oracleScratch) accesses(st *ir.Stmt) []*ir.FlatAccess {
	sc.accs = sc.accs[:0]
	for i := range st.Reads {
		sc.accs = append(sc.accs, &st.Reads[i])
	}
	if st.Write != nil {
		sc.accs = append(sc.accs, st.Write)
	}
	return sc.accs
}

func oracleExtract(low *ir.Lowered) [][]float64 {
	out := make([][]float64, len(low.Stmts))
	sc := new(oracleScratch)
	for i := range low.Stmts {
		out[i] = make([]float64, Dim)
		oracleStmt(out[i], &low.Stmts[i], sc)
	}
	return out
}

func oracleStmt(v []float64, st *ir.Stmt, sc *oracleScratch) {
	iters := float64(st.IterCount())
	p := 0
	f := st.Flops
	for _, c := range []float64{f.AddF, f.SubF, f.MulF, f.DivF, f.MaxF, f.CmpF, f.MathF} {
		v[p] = oracleLg(c * iters)
		p++
	}
	v[p] = oracleLg(f.IntOps * iters)
	p++
	for _, ann := range []ir.Annotation{ir.AnnVectorize, ir.AnnUnroll, ir.AnnParallel} {
		p = oracleAnnGroup(v, p, st, ann)
	}
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
	v[p] = oracleLg(blockLen)
	v[p+3] = oracleLg(threadLen)
	p += gpuBinding
	p = oracleAICurve(v, p, st, sc)
	accs, sz := sc.accesses(st), sc.sizes
	for i := 1; i < len(accs); i++ {
		for j := i; j > 0 && sz[j] > sz[j-1]; j-- {
			accs[j], accs[j-1] = accs[j-1], accs[j]
			sz[j], sz[j-1] = sz[j-1], sz[j]
		}
	}
	for bi := 0; bi < bufCount; bi++ {
		if bi < len(accs) {
			oracleBuffer(v[p:p+bufFeats], st, accs[bi], sz[bi])
		}
		p += bufFeats
	}
	if st.Write != nil {
		v[p] = oracleLg(float64(st.Write.Tensor.Bytes()))
	}
	v[p+1] = oracleLg(1)
	p += allocFeats
	v[p] = oracleLg(float64(len(st.Loops)))
	v[p+1] = oracleLg(iters)
	v[p+2] = oracleLg(float64(st.AutoUnrollMax))
}

func oracleAnnGroup(v []float64, p int, st *ir.Stmt, ann ir.Annotation) int {
	product := 1.0
	num := 0.0
	maxLen := 0.0
	pos := 7
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
		third := 0
		if j >= 2*n/3 {
			third = 2
		} else if j >= n/3 {
			third = 1
		}
		var cls int
		if l.Kind == te.Space {
			cls = []int{2, 1, 0}[third]
		} else {
			cls = []int{5, 4, 3}[third]
		}
		if pos == 7 {
			pos = cls
		} else if pos != cls {
			pos = 6
		}
	}
	v[p] = oracleLg(maxLen)
	v[p+1] = oracleLg(product)
	v[p+2] = oracleLg(num)
	v[p+3+pos] = 1
	return p + annGroup
}

func oracleAICurve(v []float64, p int, st *ir.Stmt, sc *oracleScratch) int {
	n := len(st.Loops)
	flopsPerIter := st.Flops.Total()
	if flopsPerIter < 1 {
		flopsPerIter = 1
	}
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
	for i := 0; i < aiCurve; i++ {
		t := float64(i) / float64(aiCurve-1)
		x := (1 - t) * float64(n)
		lo := int(math.Floor(x))
		hi := int(math.Ceil(x))
		if hi > n {
			hi = n
		}
		frac := x - float64(lo)
		v[p+i] = oracleLg(ai[lo]*(1-frac) + ai[hi]*frac)
	}
	return p + aiCurve
}

func oracleBuffer(v []float64, st *ir.Stmt, a *ir.FlatAccess, uniq float64) {
	iters := float64(st.IterCount())
	eb := float64(a.Tensor.ElemBytes)
	loops := st.Loops
	n := len(loops)
	isWrite := a == st.Write
	isRead := !isWrite
	if isWrite && len(st.Stage.Node.ReduceAxes) > 0 {
		isRead = true
	}
	switch {
	case isRead && isWrite:
		v[2] = 1
	case isWrite:
		v[1] = 1
	default:
		v[0] = 1
	}
	v[3] = oracleLg(iters * eb)
	v[4] = oracleLg(uniq)
	v[5] = oracleLg(iters * eb / 64)
	v[6] = oracleLg(uniq / 64)
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
		v[7] = 1
		reuseCount = float64(loops[reuseLoop].Extent)
		d := 1.0
		for j := reuseLoop + 1; j < n; j++ {
			d *= float64(loops[j].Extent)
		}
		reuseDist = d * eb
	case iters > uniq/eb:
		v[8] = 1
		reuseCount = iters / (uniq / eb)
	default:
		v[9] = 1
	}
	v[10] = oracleLg(reuseDist)
	v[11] = oracleLg(reuseCount)
	stride := 0
	if n > 0 {
		stride = a.ElemStride(n - 1)
	}
	if stride < 0 {
		stride = -stride
	}
	v[12] = oracleLg(float64(stride))
	v[13] = oracleLg(iters * eb / reuseCount)
	v[14] = oracleLg(uniq / reuseCount)
	v[15] = oracleLg(iters * eb / 64 / reuseCount)
	v[16] = oracleLg(uniq / 64 / reuseCount)
	v[17] = oracleLg(float64(a.Tensor.Bytes()))
}

// oracleCorpus lowers perDAG programs sampled from every single-operator
// DAG and every network task, on both sketch targets.
func oracleCorpus(t *testing.T, perDAG int) []*ir.Lowered {
	t.Helper()
	var dags []*te.DAG
	for _, w := range workloads.SingleOps(1) {
		dags = append(dags, w.Build())
	}
	for _, net := range workloads.AllNetworks(1) {
		for _, task := range net.Tasks {
			dags = append(dags, task.Build())
		}
	}
	var lows []*ir.Lowered
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
				lows = append(lows, low)
			}
		}
	}
	if len(lows) < len(dags) {
		t.Fatalf("sampled %d programs from %d DAGs", len(lows), len(dags))
	}
	return lows
}

// sameBits reports the first (row, feature) where got and want differ in
// Float64bits, or ok.
func sameBits(got, want [][]float64) (row, col int, ok bool) {
	if len(got) != len(want) {
		return len(got), -1, false
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// TestExtractMatchesOracle holds Extract to the frozen extractor in
// Float64bits over programs of every operator family on both target
// classes. The pooled scratch, and with it lg's memo, carries over from
// one program to the next, as it does in a search.
func TestExtractMatchesOracle(t *testing.T) {
	perDAG := 16
	if testing.Short() {
		perDAG = 4
	}
	rows := 0
	for k, low := range oracleCorpus(t, perDAG) {
		got, want := Extract(low), oracleExtract(low)
		if i, j, ok := sameBits(got, want); !ok {
			t.Fatalf("program %d, statement %d, feature %d: got %v, oracle %v\n%s",
				k, i, j, got[i][j], want[i][j], low.State.Print())
		}
		rows += len(want)
	}
	t.Logf("%d rows match", rows)
}

// TestLgExact holds lg to the frozen lg in Float64bits on the edges of its
// three paths — the small-integer table (±0 included), x < 0, the memo —
// on every integer the table holds and on random bit patterns, then on
// two values that share a memo slot, alternately, so every call evicts
// the other's entry.
func TestLgExact(t *testing.T) {
	sc := new(scratch)
	check := func(x float64) {
		t.Helper()
		if got, want := sc.lg(x), oracleLg(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("lg(%v) (bits %#x) = %v, oracle %v", x, math.Float64bits(x), got, want)
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), -1, -0.5, -4095, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023, 0.5, 1.5,
		float64(len(lgSmall)) - 0.5, float64(len(lgSmall)), float64(len(lgSmall)) + 1,
		math.MaxFloat64, 1 << 53, 1<<53 + 2} {
		check(x)
		check(x) // the second call of a memoised value reads its slot
	}
	for i := range lgSmall {
		check(float64(i))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}
	slot := func(x float64) uint64 { return lgSlot(math.Float64bits(x)) }
	a, b := 5000.5, 0.0
	for x := a + 1; b == 0; x++ {
		if slot(x) == slot(a) {
			b = x
		}
	}
	for i := 0; i < 4; i++ {
		check(a)
		check(b)
	}
}

// TestExtractConcurrentMatchesSerial has eight goroutines extract one
// corpus through the pooled scratch — each scratch's memo filled by
// whichever goroutine held it last — and holds every row to a serial run
// in Float64bits. verify.sh runs it ten times under -race.
func TestExtractConcurrentMatchesSerial(t *testing.T) {
	lows := oracleCorpus(t, 2)
	want := make([][][]float64, len(lows))
	for i, low := range lows {
		want[i] = Extract(low)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range lows {
				i := (k + g*len(lows)/8) % len(lows)
				if _, _, ok := sameBits(Extract(lows[i]), want[i]); !ok {
					t.Errorf("goroutine %d, program %d: features differ from the serial run", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
