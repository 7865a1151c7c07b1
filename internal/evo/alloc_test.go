package evo

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/anno"
	"repro/internal/feat"
	"repro/internal/ir"
	"repro/internal/sketch"
	"repro/internal/workloads"
)

// featScorer scores through the real program path (lower, extract, cache)
// with a stand-in for the ensemble, so a search run pays what a tuning
// round pays outside the model.
type featScorer struct{ feats *feat.Cache }

func (f featScorer) Score(states []*ir.State) []float64 {
	out := make([]float64, len(states))
	for i, s := range states {
		if e, ok := f.feats.Program(s); ok {
			for _, row := range e.Feats {
				out[i] += row[0] - row[len(row)-2]
			}
		}
	}
	return out
}

func (featScorer) NodeScores(*ir.State) map[string]float64 { return nil }

// Sigs keys the search's tables on the cache's IDs, as the policy's
// scorer does, so a run interns each program into one table.
func (f featScorer) Sigs() *ir.SigTable { return f.feats.Sigs() }

// TestProgramPathAllocationCeilings pins the allocation cost of the path
// every candidate of the search walks — replay, lower, sample, and one
// evolutionary run — on the shape the benchmark's tune-net probes use
// (ResNet-50's first 3x3 convolution, CPU target). The ceilings sit about
// a quarter above what the flat loop-nest layout costs (7, 8, 25 and
// 8 000); the layout it replaced (a pointer, an atom slice and a formatted
// name per loop, maps in Validate and Lower) cost 10 to 20 times as much,
// so a change that brings per-loop allocations back fails here. A miss
// of the feature cache lowers into borrowed memory (ir.LowerBorrowed),
// carves its rows from a chunk of the free list and costs 6 with the
// fresh cache the test hands it — the row headers, the cache, its
// ID-indexed table, its chunk list and its first blocks of entries and
// of stage names; its signature table is a released one — where
// lowering to size made it 14
// (its ceiling is wider than the others': a scratch the race detector's
// pool dropped costs a borrowed lowering more to rebuild). The step codec
// is on the same path — every measured program is encoded for its record,
// every fleet-measured one decoded on a worker: the hand-written pair
// costs 1 and 26 where the reflection pair cost 11 and 110.
//
// A search run replays its children into borrowed arenas: it cost 8 000
// objects and 3.0 MiB while every replay was the heap's, 4 500 and 1.05
// MiB while the feature rows of programs nobody had seen were the heap's
// too, and 4 450 and 450 KiB while its maps, populations and score
// slices and each attempt's RNG were. With the rows carved from the
// chunks the last run's cache released and the bookkeeping in the tables
// the last run gave back (TestRunBorrowedReusesItsTables), it cost
// 3 500 and 250 KiB; with every mutated step, its factor lists and the
// copies inherit makes carved from the attempt's arena too, 2 430 and
// 230 KiB. Now that the run keys its tables, and the feature cache its
// entries, on IDs of the cache's signature table (featScorer is a
// SigScorer, as the policy's scorer is), no signature is a string: it
// costs 1 564 and 160–172 KiB. The ceilings are a tenth
// above. The pooled scratch the race detector drops adds some 2 600
// objects a run (4 150–4 330 there), which the usual scaling of a
// ceiling does not follow, so the row has a race ceiling of its own, a
// tenth above that. A replay into an arena that has its chunks allocates
// nothing, and reading the signature then costs the memo and its string;
// interning it instead into a table that has seen it costs nothing, and
// so does interning programs new to a table an earlier borrower grew. So
// does a sample into a warm arena —
// its tile steps, factor lists, annotation steps and their room in the
// step list are the arena's — and a mutation there costs what its
// rejected children's errors cost (one on average); each has a ceiling
// of one more than that.
func TestProgramPathAllocationCeilings(t *testing.T) {
	dag := workloads.ResNet50(1).Tasks[2].Build()
	sketches, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(dag)
	if err != nil {
		t.Fatal(err)
	}
	sampler := anno.NewSampler(sketch.CPUTarget(), 1)
	pop := sampler.SamplePopulation(sketches, 64)
	if len(pop) != 64 {
		t.Fatalf("sampled %d of 64 programs", len(pop))
	}
	encoded := make([][]byte, len(pop))
	for k, s := range pop {
		encoded[k], _ = ir.EncodeSteps(s.Steps)
	}
	i := 0
	next := func() *ir.State { i++; return pop[i%len(pop)] }
	arena := ir.BorrowArena()
	defer arena.Release()
	inArena := func(sign bool) func() {
		return func() {
			m := arena.Mark()
			if s, _ := arena.Replay(dag, next().Steps); sign {
				_ = s.Signature()
			}
			arena.Rewind(m)
		}
	}
	// A sample and a mutation in the arena: their steps, factor lists and
	// step lists are carved from it, so what is left is a failed draw's
	// error.
	sampleIn := func() {
		m := arena.Mark()
		_, _ = sampler.SampleIn(arena, sketches[i%len(sketches)])
		arena.Rewind(m)
		i++
	}
	rng := rand.New(rand.NewSource(1))
	mutate := func() {
		m := arena.Mark()
		parent := next().Steps
		if steps, ok := mutateSteps(arena, arena.Steps(len(parent))[:0], parent, rng); ok {
			_, _ = replayChild(arena, dag, steps)
		}
		arena.Rewind(m)
	}
	// Interning: a program the table has seen, replayed afresh so that
	// its signature is rendered and looked up, and a borrow of a table
	// that an earlier borrower grew, filled with programs new to it.
	sigs := ir.NewSigTable()
	defer sigs.Release()
	for _, s := range pop {
		sigs.Intern(s)
	}
	internSeen := func() {
		m := arena.Mark()
		if s, err := arena.Replay(dag, next().Steps); err == nil {
			sigs.Intern(s)
		}
		arena.Rewind(m)
	}
	internNew := func() {
		t := ir.NewSigTable()
		for _, s := range pop {
			t.Intern(s)
		}
		t.Release()
	}
	evoRun := func() {
		search := NewSearch(Config{PopulationSize: 96, Generations: 4, CrossoverProb: 0.15,
			EliteCount: 12, Seed: int64(i), Workers: 1})
		feats := feat.NewCache(0)
		search.Run(dag, pop[:50], featScorer{feats}, 32)
		feats.Release()
		i++
	}
	// The rows whose ceiling under the race detector is not the scaled one.
	raceCeilings := map[string]float64{"evo.Search.Run": 4760}
	for _, c := range []struct {
		name    string
		runs    int
		ceiling float64
		fn      func()
	}{
		{"ir.Replay", 200, 9, func() { _, _ = ir.Replay(dag, next().Steps) }},
		{"arena replay, steady state", 200, 0, inArena(false)},
		{"arena replay and signature", 200, 4, inArena(true)},
		{"arena replay and SigTable.Intern, seen program", 200, 0, internSeen},
		{"SigTable.Intern, 64 new programs into a warm table", 50, 0, internNew},
		{"ir.Lower", 200, 10, func() { _, _ = ir.Lower(next()) }},
		{"feat.Cache.Program miss", 200, 12, func() {
			c := feat.NewCache(0)
			c.Program(next())
			c.Release()
		}},
		{"ir.EncodeSteps", 200, 1, func() { _, _ = ir.EncodeSteps(next().Steps) }},
		{"ir.DecodeSteps", 200, 32, func() { _, _ = ir.DecodeSteps(encoded[i%len(pop)]); i++ }},
		{"anno.Sample", 200, 32, func() { _, _ = sampler.Sample(sketches[0]) }},
		{"anno.SampleIn into a warm arena", 200, 1, sampleIn},
		{"mutation in an arena", 200, 2, mutate},
		{"evo.Search.Run", 5, 1720, evoRun},
	} {
		got := testing.AllocsPerRun(c.runs, c.fn)
		t.Logf("%s: %.0f allocations", c.name, got)
		if raceDetector {
			// Under the race detector sync.Pool drops a quarter of what it
			// is handed, so pooled scratch is rebuilt that often.
			c.ceiling = c.ceiling*1.5 + 1
			if r, ok := raceCeilings[c.name]; ok {
				c.ceiling = r
			}
		}
		if got > c.ceiling {
			t.Errorf("%s allocates %.0f objects per call, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
	// The bytes of a run, beside its objects. The arena it borrows has
	// its chunks by now: the rows above ran on the free list's.
	const runs, ceilingKiB = 5, 190
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		evoRun()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("evo.Search.Run: %.0f KiB", got)
	if got > ceilingKiB && !raceDetector {
		t.Errorf("evo.Search.Run allocates %.0f KiB per call, ceiling %d", got, ceilingKiB)
	}
}

// TestRunReturnsHeapStates is the exit invariant of the search's borrow:
// whatever Run hands out is on the heap — children of its own arenas and
// programs the caller passed in from one alike — and reads the same after
// every arena involved has been released and reused.
func TestRunReturnsHeapStates(t *testing.T) {
	dag := workloads.ResNet50(1).Tasks[2].Build()
	sketches, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(dag)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, workers := range []int{1, 2, 8} {
		mine := ir.BorrowArena()
		init := anno.NewSampler(sketch.CPUTarget(), 3).SamplePopulationIn(mine, sketches, 24)
		search := NewSearch(Config{PopulationSize: 32, Generations: 2, CrossoverProb: 0.15,
			EliteCount: 4, Seed: 5, Workers: workers})
		// More than the run derives: every program seen comes out, the
		// caller's included.
		out := search.Run(dag, init, featScorer{feat.NewCache(0)}, 1000)
		fromInit := 0
		for _, s := range out {
			// A released arena is zeroed: a state of one has lost its DAG.
			if s.InArena() || s.DAG == nil {
				t.Fatalf("Workers %d: Run returned a program of an arena", workers)
			}
			for _, in := range init {
				if in.Signature() == s.Signature() {
					fromInit++
					break
				}
			}
		}
		if fromInit == 0 {
			t.Fatalf("Workers %d: none of the %d programs returned is one passed in", workers, len(out))
		}
		mine.Release()
		// Other programs into the same chunks, then read what came out.
		again := ir.BorrowArena()
		anno.NewSampler(sketch.CPUTarget(), 4).SamplePopulationIn(again, sketches, 24)
		var got []string
		for _, s := range out {
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			if _, err := ir.Lower(s); err != nil {
				t.Fatal(err)
			}
			fresh, err := ir.Replay(dag, s.Steps)
			if err != nil || fresh.Print() != s.Print() {
				t.Fatalf("Workers %d: returned program no longer reads as its replay (%v)", workers, err)
			}
			got = append(got, s.Signature())
		}
		again.Release()
		if want == nil {
			want = got
		} else if len(got) != len(want) {
			t.Fatalf("Workers %d returned %d programs, Workers 1 %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Workers %d diverged at program %d", workers, i)
			}
		}
	}
}
