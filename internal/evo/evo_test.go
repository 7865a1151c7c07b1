package evo

import (
	"math/rand"
	"testing"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
)

func matmulReLU(n, m, k int) *te.DAG {
	b := te.NewBuilder("matmul_relu")
	a := b.Input("A", n, k)
	c := b.Matmul(a, m, true)
	b.ReLU(c)
	return b.MustFinish()
}

// oracleScorer scores with the exact simulator (negated time): the upper
// bound of what a learned cost model could provide.
type oracleScorer struct{ m *sim.Machine }

func (o oracleScorer) Score(states []*ir.State) []float64 {
	out := make([]float64, len(states))
	for i, s := range states {
		low, err := ir.Lower(s)
		if err != nil {
			out[i] = -1e30
			continue
		}
		out[i] = -o.m.Time(low)
	}
	return out
}
func (o oracleScorer) NodeScores(s *ir.State) map[string]float64 { return nil }

func initPop(t *testing.T, d *te.DAG, n int, seed int64) []*ir.State {
	t.Helper()
	sk, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(d)
	if err != nil {
		t.Fatal(err)
	}
	return anno.NewSampler(sketch.CPUTarget(), seed).SamplePopulation(sk, n)
}

func bestTime(m *sim.Machine, states []*ir.State) float64 {
	best := 1e30
	for _, s := range states {
		low, err := ir.Lower(s)
		if err != nil {
			continue
		}
		if t := m.Time(low); t < best {
			best = t
		}
	}
	return best
}

func TestEvolutionImprovesOnRandom(t *testing.T) {
	d := matmulReLU(512, 512, 512)
	m := sim.IntelXeon()
	pop := initPop(t, d, 64, 1)
	randBest := bestTime(m, pop)
	search := NewSearch(Config{PopulationSize: 64, Generations: 6, CrossoverProb: 0.15, EliteCount: 8, Seed: 2})
	out := search.Run(d, pop, oracleScorer{m}, 16)
	if len(out) == 0 {
		t.Fatal("evolution returned no programs")
	}
	evoBest := bestTime(m, out)
	if evoBest >= randBest {
		t.Errorf("evolution best %.4g not better than random best %.4g", evoBest, randBest)
	}
	t.Logf("random %.4g -> evolved %.4g (%.2fx)", randBest, evoBest, randBest/evoBest)
}

func TestOffspringAreValidAndComplete(t *testing.T) {
	d := matmulReLU(256, 256, 256)
	m := sim.IntelXeon()
	pop := initPop(t, d, 32, 3)
	search := NewSearch(Config{PopulationSize: 48, Generations: 3, CrossoverProb: 0.3, EliteCount: 4, Seed: 4})
	out := search.Run(d, pop, oracleScorer{m}, 32)
	for i, s := range out {
		if !s.Complete() {
			t.Fatalf("offspring %d incomplete", i)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("offspring %d invalid: %v", i, err)
		}
		// Replaying the steps must reproduce the program.
		r, err := ir.Replay(d, s.Steps)
		if err != nil {
			t.Fatalf("offspring %d not replayable: %v", i, err)
		}
		if r.Signature() != s.Signature() {
			t.Fatalf("offspring %d replay mismatch", i)
		}
		// Iteration volume must be preserved through all mutations.
		low, err := ir.Lower(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, stmt := range low.Stmts {
			if stmt.Stage.Name == "matmul" && stmt.IterCount() != 256*256*256 {
				t.Fatalf("offspring %d matmul itercount = %d", i, stmt.IterCount())
			}
		}
	}
}

func TestTileSizeMutationKeepsProduct(t *testing.T) {
	d := matmulReLU(512, 512, 512)
	pop := initPop(t, d, 4, 5)
	rng := rand.New(rand.NewSource(6))
	hits := 0
	for i := 0; i < 200; i++ {
		parent := pop[i%len(pop)]
		steps := append([]ir.Step(nil), parent.Steps...)
		if !mutateTileSize(steps, rng) {
			continue
		}
		// The child shares every step but the edited one with its
		// parent, whose own genes must not move.
		if again, err := ir.Replay(d, parent.Steps); err != nil || again.Signature() != parent.Signature() {
			t.Fatalf("mutation %d rewrote its parent's steps (replay: %v)", i, err)
		}
		s, err := ir.Replay(d, steps)
		if err != nil {
			continue // rejected by validity check, as designed
		}
		hits++
		if s.Stage("matmul") != nil {
			// Validate enforces that per-axis extents still multiply to
			// the axis extents.
			if err := s.Validate(); err != nil {
				t.Fatalf("mutated program invalid: %v", err)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no successful tile-size mutations in 200 attempts")
	}
}

func TestCrossoverMergesParents(t *testing.T) {
	d := matmulReLU(512, 512, 512)
	pop := initPop(t, d, 8, 7)
	sc := oracleScorer{sim.IntelXeon()}
	rng := rand.New(rand.NewSource(8))
	ok := 0
	for i := 0; i+1 < len(pop); i++ {
		steps := crossoverSteps(nil, pop[i], pop[i+1], sc.NodeScores(pop[i]), sc.NodeScores(pop[i+1]), rng)
		if c, _ := replayChild(nil, d, steps); c != nil {
			ok++
		}
	}
	if ok == 0 {
		t.Error("crossover never produced a valid child")
	}
}

func TestRouletteFavorsHighScores(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := newRoulette(nil, []float64{0.1, 0.1, 10})
	count := 0
	for i := 0; i < 1000; i++ {
		if r.pick(rng) == 2 {
			count++
		}
	}
	if count < 800 {
		t.Errorf("high-fitness program picked only %d/1000 times", count)
	}
}

// TestSearchDeterministicAcrossWorkers is the package-level determinism
// contract: the same seed must yield bit-identical results for any worker
// count, because offspring attempts derive private RNGs from (seed,
// generation, attempt) rather than sharing a stream.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	d := matmulReLU(512, 512, 512)
	m := sim.IntelXeon()
	pop := initPop(t, d, 48, 11)
	run := func(workers int) []string {
		search := NewSearch(Config{
			PopulationSize: 48, Generations: 4, CrossoverProb: 0.2,
			EliteCount: 6, Seed: 3, Workers: workers,
		})
		out := search.Run(d, pop, oracleScorer{m}, 12)
		sigs := make([]string, len(out))
		for i, s := range out {
			sigs[i] = s.Signature()
		}
		return sigs
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d returned %d programs, workers=1 returned %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d diverged at output %d:\n%s\nvs\n%s", workers, i, got[i], want[i])
			}
		}
	}
}
