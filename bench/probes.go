package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/ansor"
	"repro/internal/anno"
	"repro/internal/evo"
	"repro/internal/feat"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/warm"
	"repro/internal/xgb"
)

// Probes time direct calls into one layer's public functions on the
// workload's own inputs, at fixed iteration counts, after the traced
// phase. They are diagnostics: when an end-to-end metric moves, they say
// which layer's unit cost moved with it.

// timed runs fn(0..n-1) and returns the mean nanoseconds, bytes
// allocated and heap allocations per call.
func timed(n int, fn func(i int)) (ns, bytes, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	f := float64(n)
	return float64(el) / f, float64(m1.TotalAlloc-m0.TotalAlloc) / f, float64(m1.Mallocs-m0.Mallocs) / f
}

// probeSet is a sampled population of one DAG with everything the
// per-program probes need precomputed.
type probeSet struct {
	dag     *te.DAG
	sks     []*ir.State
	pop     []*ir.State
	lows    []*ir.Lowered
	feats   [][][]float64
	y       []float64 // normalized throughput labels, as policy trains on
	machine *sim.Machine
}

func newProbeSet(dag *te.DAG, seed int64, n int) (*probeSet, error) {
	space := sketch.CPUTarget()
	sks, err := sketch.NewGenerator(space).Generate(dag)
	if err != nil {
		return nil, err
	}
	ps := &probeSet{dag: dag, sks: sks, machine: sim.IntelXeon()}
	minT := 0.0
	var times []float64
	for _, s := range anno.NewSampler(space, seed).SamplePopulation(sks, n) {
		low, err := ir.Lower(s)
		if err != nil {
			continue
		}
		t := ps.machine.Time(low)
		ps.pop = append(ps.pop, s)
		ps.lows = append(ps.lows, low)
		ps.feats = append(ps.feats, feat.Extract(low))
		times = append(times, t)
		if minT == 0 || t < minT {
			minT = t
		}
	}
	if len(ps.pop) < n/2 {
		return nil, fmt.Errorf("probe population: only %d of %d samples lower", len(ps.pop), n)
	}
	for _, t := range times {
		ps.y = append(ps.y, minT/t)
	}
	return ps, nil
}

// probeScorer is an evo.Scorer over public functions only, shaped like
// the policy's own: features through a feat.Cache, ensemble scores
// memoized per signature.
type probeScorer struct {
	model  *xgb.CostModel
	feats  *feat.Cache
	scores sync.Map
}

func (p *probeScorer) Score(states []*ir.State) []float64 {
	out := make([]float64, len(states))
	for i, s := range states {
		sig := s.Signature()
		if v, ok := p.scores.Load(sig); ok {
			out[i] = v.(float64)
			continue
		}
		score := -1e30
		if e, ok := p.feats.Program(s); ok {
			score = p.model.Score(e.Feats)
		}
		p.scores.Store(sig, score)
		out[i] = score
	}
	return out
}

func (p *probeScorer) NodeScores(*ir.State) map[string]float64 { return nil }

// searchProbes covers the layers a tune-net round spends its time in:
// sketch, anno, ir, feat and evo, on the network's first task.
func searchProbes(dag *te.DAG, seed int64) (map[string]float64, error) {
	const n = 256
	ps, err := newProbeSet(dag, derive(seed, "probe-search", 0), n)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{"sketch.count": float64(len(ps.sks))}
	gen := sketch.NewGenerator(sketch.CPUTarget())
	ns, _, _ := timed(20, func(int) { _, _ = gen.Generate(dag) })
	m["sketch.generate_ms"] = ns / 1e6
	sp := anno.NewSampler(sketch.CPUTarget(), derive(seed, "probe-anno", 0))
	ns, _, _ = timed(4, func(int) { sp.SamplePopulation(ps.sks, n) })
	m["anno.sample_us"] = ns / n / 1e3
	ns, _, _ = timed(len(ps.pop), func(i int) { _, _ = ir.Replay(dag, ps.pop[i].Steps) })
	m["ir.replay_us"] = ns / 1e3
	ns, _, allocs := timed(len(ps.pop), func(i int) { _, _ = ir.Lower(ps.pop[i]) })
	m["ir.lower_us"], m["ir.lower_allocs"] = ns/1e3, allocs
	ns, _, _ = timed(len(ps.lows), func(i int) { feat.Extract(ps.lows[i]) })
	m["feat.extract_us"] = ns / 1e3

	// One evolutionary run as a tuning round pays it: the policy's
	// population and generation counts, a trained model, an init
	// population of fresh samples.
	opts := xgb.DefaultOpts()
	opts.Workers = 2
	model := xgb.NewCostModel(opts)
	model.Fit(ps.feats, ps.y)
	init := ps.pop[:50]
	ns, bytes, allocs := timed(5, func(i int) {
		search := evo.NewSearch(evo.Config{PopulationSize: 96, Generations: 4, CrossoverProb: 0.15,
			EliteCount: 12, Seed: derive(seed, "probe-evo", i), Workers: 2})
		sc := &probeScorer{model: model, feats: feat.NewCache(1 << 16)}
		search.Run(dag, init, sc, 32)
	})
	m["evo.run_ms"], m["evo.kb_per_run"], m["evo.allocs_per_run"] = ns/1e6, bytes/1024, allocs
	return m, nil
}

// modelProbes covers what tune-deep leans on: xgb training and
// inference at 512 programs, the recorder's append, and the warm-start
// source's parse-and-prepare.
func modelProbes(task ansor.Task, hist string, cfg *config) (map[string]float64, error) {
	const n = 512
	ps, err := newProbeSet(task.DAG, derive(cfg.seed, "probe-model", 0), n)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	opts := xgb.DefaultOpts()
	opts.Workers = 2
	var model *xgb.CostModel
	ns, _, _ := timed(3, func(int) {
		model = xgb.NewCostModel(opts)
		model.Fit(ps.feats, ps.y)
	})
	m["xgb.fit_ms_n512"] = ns / 1e6
	// Boosting the last 64 programs onto a model fit on the rest: one
	// round's incremental update at this data size.
	old := len(ps.feats) - 64
	var boost time.Duration
	for r := 0; r < 3; r++ {
		b := xgb.NewCostModel(opts)
		b.Fit(ps.feats[:old], ps.y[:old])
		t0 := time.Now()
		b.Boost(ps.feats, ps.y, old)
		boost += time.Since(t0)
	}
	m["xgb.boost_ms_n512"] = float64(boost) / 3 / 1e6
	ns, _, _ = timed(20*len(ps.feats), func(i int) { model.Score(ps.feats[i%len(ps.feats)]) })
	m["xgb.predict_ns_per_prog"] = ns

	// measure.Recorder appends to a real file, as RecordTo does.
	results := measure.New(ps.machine, 0.02, 1).Measure(ps.pop)
	var recs []measure.Record
	for _, r := range results {
		rec, err := measure.NewRecord(task.Name, ps.machine.Name, r)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	path := filepath.Join(cfg.tmp, "probe-record.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	rec := measure.NewRecorder(f)
	ns, _, _ = timed(len(recs), func(i int) { _, _ = rec.Record(recs[i]) })
	if err := rec.Close(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	m["measure.record_us"] = ns / 1e3

	var werr error
	ns, _, _ = timed(5, func(int) {
		src, err := warm.Open(hist, "", 0)
		if err == nil {
			_, err = warm.Records(src, task.Name, ps.machine.Name)
		}
		if err != nil {
			werr = err
		}
	})
	if werr != nil {
		return nil, werr
	}
	m["warm.open_prepare_ms"] = ns / 1e6
	return m, nil
}
