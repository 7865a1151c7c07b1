package evo

import (
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

// TestProgramPathAllocationCeilings pins the allocation cost of the path
// every candidate of the search walks — replay, lower, sample, and one
// evolutionary run — on the shape the benchmark's tune-net probes use
// (ResNet-50's first 3x3 convolution, CPU target). The ceilings sit about
// a quarter above what the flat loop-nest layout costs (7, 8, 25 and
// 8 000); the layout it replaced (a pointer, an atom slice and a formatted
// name per loop, maps in Validate and Lower) cost 10 to 20 times as much,
// so a change that brings per-loop allocations back fails here. A miss
// of the feature cache lowers into borrowed memory (ir.LowerBorrowed) and
// costs 6 with the fresh cache the test hands it — the features' two, the
// stage names, the cache and its map — where lowering to size made it 14
// (its ceiling is wider than the others': a scratch the race detector's
// pool dropped costs a borrowed lowering more to rebuild). The step codec
// is on the same path — every measured program is encoded for its record,
// every fleet-measured one decoded on a worker: the hand-written pair
// costs 1 and 26 where the reflection pair cost 11 and 110.
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
	for _, c := range []struct {
		name    string
		runs    int
		ceiling float64
		fn      func()
	}{
		{"ir.Replay", 200, 9, func() { _, _ = ir.Replay(dag, next().Steps) }},
		{"ir.Lower", 200, 10, func() { _, _ = ir.Lower(next()) }},
		{"feat.Cache.Program miss", 200, 12, func() { feat.NewCache(0).Program(next()) }},
		{"ir.EncodeSteps", 200, 1, func() { _, _ = ir.EncodeSteps(next().Steps) }},
		{"ir.DecodeSteps", 200, 32, func() { _, _ = ir.DecodeSteps(encoded[i%len(pop)]); i++ }},
		{"anno.Sample", 200, 32, func() { _, _ = sampler.Sample(sketches[0]) }},
		{"evo.Search.Run", 5, 10000, func() {
			search := NewSearch(Config{PopulationSize: 96, Generations: 4, CrossoverProb: 0.15,
				EliteCount: 12, Seed: int64(i), Workers: 1})
			search.Run(dag, pop[:50], featScorer{feat.NewCache(0)}, 32)
			i++
		}},
	} {
		got := testing.AllocsPerRun(c.runs, c.fn)
		t.Logf("%s: %.0f allocations", c.name, got)
		if raceDetector {
			// Under the race detector sync.Pool drops a quarter of what it
			// is handed, so pooled scratch is rebuilt that often.
			c.ceiling *= 1.5
		}
		if got > c.ceiling {
			t.Errorf("%s allocates %.0f objects per call, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
