package policy

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/anno"
	"repro/internal/evo"
	"repro/internal/feat"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
)

// coarseScorer scores a program by how many statements it lowers to, so
// that equal scores are the rule and the cut's tie-break decides what a
// search returns. It keys on its feature cache's signature table, as the
// policy's scorer does, and keeps a heap copy of everything it scores
// when seen is set.
type coarseScorer struct {
	feats *feat.Cache
	mu    *sync.Mutex
	seen  *[]*ir.State
}

func (c coarseScorer) Score(states []*ir.State) []float64 {
	out := make([]float64, len(states))
	for i, s := range states {
		if e, ok := c.feats.Program(s); ok {
			out[i] = float64(len(e.Feats))
		}
		if c.seen != nil {
			c.mu.Lock()
			*c.seen = append(*c.seen, s.Clone())
			c.mu.Unlock()
		}
	}
	return out
}

func (coarseScorer) NodeScores(*ir.State) map[string]float64 { return nil }

func (c coarseScorer) Sigs() *ir.SigTable { return c.feats.Sigs() }

// unrelated samples programs of another DAG, for a table to hand IDs to
// before a search starts.
func unrelated(t *testing.T, n int) []*ir.State {
	t.Helper()
	sks, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(matmulReLU(64, 128, 32))
	if err != nil {
		t.Fatal(err)
	}
	return anno.NewSampler(sketch.CPUTarget(), 77).SamplePopulation(sks, n)
}

func encodeAll(t *testing.T, states []*ir.State) []string {
	t.Helper()
	out := make([]string, len(states))
	for i, s := range states {
		enc, err := ir.EncodeSteps(s.Steps)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s.Signature() + " " + string(enc)
	}
	return out
}

func firstDiff(a, b []string) int {
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	return i
}

// TestSigIDIsIdentityNotOrder is the determinism contract's clause "an
// ID is identity, never order". The IDs a table hands out depend on which
// program reached it first, and under parallel scoring on timing, so a
// result must not move when every ID does. A search run and a tuning
// policy are run on a fresh table and on one that has first interned
// programs of another DAG and then, last first, the programs the fresh
// run saw: every ID shifts, and the order of IDs among the programs the
// search meets is reversed. Results, batches, logs and models must be
// bit-identical.
func TestSigIDIsIdentityNotOrder(t *testing.T) {
	other := unrelated(t, 64)
	preIntern := func(sigs *ir.SigTable, seen []*ir.State) {
		for _, s := range other {
			sigs.Intern(s)
		}
		for i := len(seen) - 1; i >= 0; i-- {
			sigs.Intern(seen[i])
		}
	}

	t.Run("evo.RunBorrowed", func(t *testing.T) {
		dag := matmulReLU(256, 256, 256)
		sks, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(dag)
		if err != nil {
			t.Fatal(err)
		}
		init := anno.NewSampler(sketch.CPUTarget(), 3).SamplePopulation(sks, 32)
		search := evo.NewSearch(evo.Config{PopulationSize: 48, Generations: 3, CrossoverProb: 0.15,
			EliteCount: 6, Seed: 9, Workers: 1})
		run := func(sc coarseScorer) []string {
			res, release := search.RunBorrowed(dag, init, sc, 24)
			defer release()
			return encodeAll(t, res)
		}
		var seen []*ir.State
		fresh := feat.NewCache(0)
		want := run(coarseScorer{fresh, &sync.Mutex{}, &seen})
		fresh.Release()
		if len(want) != 24 {
			t.Fatalf("the search returned %d programs, want 24", len(want))
		}
		shifted := feat.NewCache(0)
		defer shifted.Release()
		preIntern(shifted.Sigs(), seen)
		if got := run(coarseScorer{feats: shifted}); !reflect.DeepEqual(got, want) {
			t.Errorf("the search returned other programs when the IDs moved (from program %d of %d on)", firstDiff(got, want), len(want))
		}
	})

	t.Run("Policy.Propose", func(t *testing.T) {
		const rounds, n = 4, 8
		type outcome struct {
			batches [][]string
			log     string
			model   uint64
		}
		run := func(pre func(*Policy)) (outcome, []*ir.State) {
			r := newProposeRig(t, nil)
			defer r.p.Release()
			pre(r.p)
			var out outcome
			var measured []*ir.State
			for i := 0; i < rounds; i++ {
				r.p.Propose(n)
				out.batches = append(out.batches, encodeAll(t, r.p.pending.batch))
				for _, res := range r.p.SearchRound(n) {
					measured = append(measured, res.State)
				}
			}
			r.p.Propose(n)
			out.batches = append(out.batches, encodeAll(t, r.p.pending.batch))
			out.log, out.model = r.log.String(), r.p.ModelFingerprint()
			return out, measured
		}
		want, measured := run(func(*Policy) {})
		got, _ := run(func(p *Policy) { preIntern(p.Sigs(), measured) })
		for i := range want.batches {
			if !reflect.DeepEqual(got.batches[i], want.batches[i]) {
				t.Fatalf("proposal %d picked another batch when the IDs moved (from program %d of %d on)",
					i+1, firstDiff(got.batches[i], want.batches[i]), len(want.batches[i]))
			}
		}
		if got.log != want.log || got.model != want.model {
			t.Errorf("record log or model moved with the IDs (model %x, want %x)", got.model, want.model)
		}
	})
}

// TestEpsDuplicateDrawsAreNarration: on a small space — a normalization
// shape of Figure 6, where a random sample is often a program already
// measured — the eps_duplicate_draws counter sees the ε slice's repeats,
// and counting them moves nothing: the run with metrics and events on
// measures, records and trains exactly what the run without does.
func TestEpsDuplicateDrawsAreNarration(t *testing.T) {
	var dag *te.DAG
	for _, w := range workloads.SingleOps(1) {
		if w.Op == "NRM" {
			dag = w.Build()
			break
		}
	}
	run := func(o *obs.Observer) string {
		var log bytes.Buffer
		ms := measure.New(sim.IntelXeon(), 0.02, 1)
		ms.Recorder = measure.NewRecorder(&log)
		ms.Workers = 2
		opts := DefaultOptions()
		p, err := New(Task{Name: "nrm", DAG: dag, Target: sketch.CPUTarget()}, opts, ms)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release()
		p.Obs = o
		best := p.Tune(64, 16)
		return fmt.Sprintf("%016x %v model %016x\n%s", math.Float64bits(best), p.History, p.ModelFingerprint(), log.Bytes())
	}
	o := obs.New(&obs.MemorySink{}, obs.NewRegistry())
	on, off := run(o), run(nil)
	if on != off {
		t.Errorf("counting the ε slice's duplicates moved the search:\nwith metrics:\n%s\nwithout:\n%s", on, off)
	}
	if n := o.Metrics.Snapshot().Counters["eps_duplicate_draws"]; n == 0 {
		t.Error("eps_duplicate_draws is 0 on a normalization shape: no ε draw repeated a measured program")
	} else {
		t.Logf("eps_duplicate_draws: %d", n)
	}
}
