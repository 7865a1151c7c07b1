package ir_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/ansor"
	"repro/internal/anno"
	"repro/internal/baselines"
	"repro/internal/evo"
	"repro/internal/feat"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
)

// The lifetime tests of borrowed program memory (DESIGN.md "Program
// memory"). They live here, outside the packages they drive, because the
// hook that makes a use after Release loud is this package's
// (export_test.go): under ir.PoisonArenas every range an arena takes
// back is scribbled over, every range it hands out is checked to be free,
// and every arena going back to the free list is checked from end to end.
// A search that keeps, scores, measures or records a program of a released
// arena then returns other bits than the unpoisoned run, or dies.

// twice runs fn unpoisoned and poisoned and returns both transcripts; after
// each run nothing is lent and the free list is in order.
func twice(t *testing.T, fn func(t *testing.T) string) (plain, poisoned string) {
	t.Helper()
	settled := func(when string) {
		t.Helper()
		if n := ir.FreeArenas.Lent(); n != 0 {
			t.Fatalf("%s: %d arenas borrowed and never released", when, n)
		}
		if err := ir.CheckFreeArenas(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	plain = fn(t)
	settled("unpoisoned run")
	t.Run("poisoned", func(t *testing.T) {
		books := ir.PoisonArenas(t)
		poisoned = fn(t)
		settled("poisoned run")
		if books.Carved.Load() == 0 || books.Freed.Load() == 0 || books.Released.Load() == 0 {
			t.Errorf("hook saw %d carves, %d give-backs, %d releases: the run borrowed nothing",
				books.Carved.Load(), books.Freed.Load(), books.Released.Load())
		}
	})
	return plain, poisoned
}

func sameTranscripts(t *testing.T, what, plain, poisoned string) {
	t.Helper()
	if plain == "" {
		t.Fatalf("%s: empty transcript", what)
	}
	if plain != poisoned {
		t.Errorf("%s: poisoning freed program memory changed the outcome\nunpoisoned:\n%s\npoisoned:\n%s", what, plain, poisoned)
	}
}

// TestPoisonedTuneNetwork: the first tasks of resnet-50 through the task
// scheduler, with proposals prepared ahead at Workers 2 and 8 — latencies
// and record logs bit-equal to the unpoisoned run's, at every worker count.
func TestPoisonedTuneNetwork(t *testing.T) {
	net, err := ansor.BuiltinNetwork("resnet-50", 1)
	if err != nil {
		t.Fatal(err)
	}
	net.Tasks = net.Tasks[:4]
	var first string
	for _, workers := range []int{1, 2, 8} {
		plain, poisoned := twice(t, func(t *testing.T) string {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			res, err := ansor.TuneNetwork(net, ansor.TargetIntelCPU(false), ansor.TuningOptions{
				Trials: 16, MeasuresPerRound: 8, Seed: 11, Workers: workers, RecordTo: path})
			if err != nil {
				t.Fatal(err)
			}
			out := fmt.Sprintf("latency %016x trials %d\n", math.Float64bits(res.Latency), res.Trials)
			for _, task := range net.Tasks {
				out += fmt.Sprintf("%s %016x\n", task.Name, math.Float64bits(res.TaskLatencies[task.Name]))
			}
			return out + perTaskLog(t, path)
		})
		sameTranscripts(t, fmt.Sprintf("TuneNetwork at Workers %d", workers), plain, poisoned)
		if first == "" {
			first = plain
		} else if plain != first {
			t.Errorf("Workers %d tuned to another outcome than Workers 1", workers)
		}
	}
}

// perTaskLog renders a record log task by task: across worker counts the
// tasks' records interleave differently, each task's own are the same.
func perTaskLog(t *testing.T, path string) string {
	t.Helper()
	l, err := measure.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	perTask := map[string]string{}
	var order []string
	for _, rec := range l.Records {
		if _, seen := perTask[rec.Task]; !seen {
			order = append(order, rec.Task)
		}
		perTask[rec.Task] += fmt.Sprintf(" %016x %s\n", math.Float64bits(rec.Seconds), rec.Steps)
	}
	sort.Strings(order)
	out := ""
	for _, task := range order {
		out += task + "\n" + perTask[task]
	}
	return out
}

// TestPoisonedTunerWarmStartAndLog: one tuner cold, a second warm-started
// from the first's record log and recording its own — best time, program,
// trials, model fingerprint and the bytes of both logs.
func TestPoisonedTunerWarmStartAndLog(t *testing.T) {
	task := ansor.NewTask("conv", workloads.ResNet50(1).Tasks[2].Build(), ansor.TargetIntelCPU(false))
	plain, poisoned := twice(t, func(t *testing.T) string {
		dir, out, from := t.TempDir(), "", ""
		for i := 0; i < 2; i++ {
			to := filepath.Join(dir, fmt.Sprintf("rec%d.jsonl", i))
			tuner, err := ansor.NewTuner(task, ansor.TuningOptions{Trials: 32, MeasuresPerRound: 16, Workers: 2,
				Seed: int64(7 + i), WarmStartFrom: from, RecordTo: to})
			if err != nil {
				t.Fatal(err)
			}
			best, err := tuner.Tune()
			if err != nil {
				t.Fatal(err)
			}
			if best.State.InArena() || best.State.DAG == nil {
				t.Fatal("the best program lives in an arena")
			}
			if _, err := ir.Lower(best.State); err != nil {
				t.Fatal(err)
			}
			fp := tuner.ModelFingerprint()
			if err := tuner.Close(); err != nil {
				t.Fatal(err)
			}
			log, err := os.ReadFile(to)
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("%016x %s trials %d model %016x\n%s", math.Float64bits(best.Seconds),
				best.State.Signature(), tuner.Trials(), fp, log)
			from = to
		}
		return out
	})
	sameTranscripts(t, "NewTuner with warm start and record log", plain, poisoned)
}

// TestPoisonedBaselineSearch: the AutoTVM baseline, whose single-level
// tiles make every offspring replay to an incomplete program — so every
// attempt of its evolution takes the give-back path of a rejected child —
// and the no-fine-tuning one, whose batches come straight from the
// sampler's arena.
func TestPoisonedBaselineSearch(t *testing.T) {
	dag := workloads.ResNet50(1).Tasks[2].Build()
	for name, build := range map[string]func(policy.Task, *measure.Measurer, int64) (*policy.Policy, error){
		"AutoTVM": baselines.NewAutoTVM, "NoFineTuning": baselines.NewNoFineTuning,
	} {
		plain, poisoned := twice(t, func(t *testing.T) string {
			var log bytes.Buffer
			ms := measure.New(sim.IntelXeon(), 0.02, 2)
			ms.Recorder = measure.NewRecorder(&log)
			p, err := build(policy.Task{Name: "conv", DAG: dag, Target: sketch.CPUTarget()}, ms, 13)
			if err != nil {
				t.Fatal(err)
			}
			best := p.Tune(32, 16)
			return fmt.Sprintf("%016x %s model %016x history %v\n%s", math.Float64bits(best),
				p.BestState.Signature(), p.ModelFingerprint(), p.History, log.Bytes())
		})
		sameTranscripts(t, name, plain, poisoned)
	}
}

// TestPoisonedProposalHeldAcrossRounds is Propose's exit invariant where
// it can be made loud: a proposal is made, other policies run whole
// rounds through the arenas it gave back, and only then is it committed.
func TestPoisonedProposalHeldAcrossRounds(t *testing.T) {
	dag := workloads.ResNet50(1).Tasks[2].Build()
	rig := func(seed int64, log *bytes.Buffer) *policy.Policy {
		ms := measure.New(sim.IntelXeon(), 0.02, 2)
		ms.Workers = 2
		if log != nil {
			ms.Recorder = measure.NewRecorder(log)
		}
		opts := policy.DefaultOptions()
		opts.Seed = seed
		p, err := policy.New(policy.Task{Name: "conv", DAG: dag, Target: sketch.CPUTarget()}, opts, ms)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plain, poisoned := twice(t, func(t *testing.T) string {
		var log bytes.Buffer
		held, neighbour := rig(5, &log), rig(6, nil)
		out := ""
		for round := 0; round < 3; round++ {
			held.Propose(8)
			neighbour.SearchRound(8)
			neighbour.SearchRound(8)
			for _, r := range held.SearchRound(8) {
				if r.State.InArena() || r.State.DAG == nil {
					t.Fatalf("round %d measured a program of an arena", round)
				}
				if err := r.State.Validate(); err != nil {
					t.Fatal(err)
				}
				out += fmt.Sprintf("%016x %s\n", math.Float64bits(r.Seconds), r.State.Signature())
			}
		}
		return out + fmt.Sprintf("model %016x\n%s", held.ModelFingerprint(), log.Bytes())
	})
	sameTranscripts(t, "proposal held across a neighbour's rounds", plain, poisoned)
}

// TestPoisonedWarmStartKeepsItsPool is WarmStart's exit invariant made
// loud: a policy warm-starts from a recorded log, whose records replay
// into one arena; a neighbour runs whole rounds through the arenas given
// back; only then is the warm-started policy tuned, from the best pool
// the warm start left it.
func TestPoisonedWarmStartKeepsItsPool(t *testing.T) {
	dag := workloads.ResNet50(1).Tasks[2].Build()
	rig := func(seed int64, log *bytes.Buffer) *policy.Policy {
		ms := measure.New(sim.IntelXeon(), 0.02, 2)
		if log != nil {
			ms.Recorder = measure.NewRecorder(log)
		}
		opts := policy.DefaultOptions()
		opts.Seed = seed
		p, err := policy.New(policy.Task{Name: "conv", DAG: dag, Target: sketch.CPUTarget()}, opts, ms)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plain, poisoned := twice(t, func(t *testing.T) string {
		var history, log bytes.Buffer
		first := rig(4, &history)
		first.Tune(32, 16)
		first.Release()
		recs, err := measure.Load(&history)
		if err != nil {
			t.Fatal(err)
		}
		warm, neighbour := rig(5, &log), rig(6, nil)
		n, err := warm.WarmStart(recs.Records)
		if err != nil || n == 0 {
			t.Fatalf("warm start absorbed %d records: %v", n, err)
		}
		if warm.BestState == nil || warm.BestState.InArena() {
			t.Fatal("the warm start's best state lives in an arena")
		}
		neighbour.SearchRound(8)
		neighbour.SearchRound(8)
		// A released arena is zeroed, and poisoned under the hook.
		if warm.BestState.DAG == nil {
			t.Fatal("the warm start's best state lived in an arena")
		}
		warmBest, err := ir.EncodeSteps(warm.BestState.Steps)
		if err != nil {
			t.Fatal(err)
		}
		best := warm.Tune(24, 8)
		steps, err := ir.EncodeSteps(warm.BestState.Steps)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("absorbed %d best %s\ntuned %016x %s\nmodel %016x\n%s", n, warmBest,
			math.Float64bits(best), steps, warm.ModelFingerprint(), log.Bytes())
	})
	sameTranscripts(t, "warm start read after a neighbour's rounds", plain, poisoned)
}

// poisonedScorer scores through the real program path with a stand-in for
// the ensemble (evo's tests have the same).
type poisonedScorer struct{ feats *feat.Cache }

func (f poisonedScorer) Score(states []*ir.State) []float64 {
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

func (poisonedScorer) NodeScores(*ir.State) map[string]float64 { return nil }

// TestPoisonedSearchRun is Search.Run's exit invariant made loud: the
// population comes from the caller's arena, the children go into the
// run's own, every one of them is released and reused before the result
// is read, and the result reads as at any other worker count.
func TestPoisonedSearchRun(t *testing.T) {
	dag := workloads.ResNet50(1).Tasks[2].Build()
	sketches, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(dag)
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for _, workers := range []int{1, 2, 8} {
		plain, poisoned := twice(t, func(t *testing.T) string {
			mine := ir.BorrowArena()
			init := anno.NewSampler(sketch.CPUTarget(), 3).SamplePopulationIn(mine, sketches, 32)
			search := evo.NewSearch(evo.Config{PopulationSize: 48, Generations: 3, CrossoverProb: 0.15,
				EliteCount: 6, Seed: 9, Workers: workers})
			res := search.Run(dag, init, poisonedScorer{feat.NewCache(0)}, 1000)
			mine.Release()
			again := ir.BorrowArena()
			anno.NewSampler(sketch.CPUTarget(), 4).SamplePopulationIn(again, sketches, 32)
			defer again.Release()
			out := ""
			for _, s := range res {
				if s.InArena() || s.DAG == nil {
					t.Fatal("Run returned a program of an arena")
				}
				low, err := ir.Lower(s)
				if err != nil {
					t.Fatal(err)
				}
				out += fmt.Sprintf("%s %016x\n%s", s.Signature(), math.Float64bits(sim.IntelXeon().Time(low)), s.Print())
			}
			return out
		})
		sameTranscripts(t, fmt.Sprintf("Search.Run at Workers %d", workers), plain, poisoned)
		if first == "" {
			first = plain
		} else if plain != first {
			t.Errorf("Workers %d evolved another result than Workers 1", workers)
		}
	}
}

// TestPoisonedEncodedReplays is the fleet worker's path on borrowed
// memory: sampled programs of a batched matmul, whose cache-write steps
// carve the stage they insert and its loops from the arena, and of a
// norm, whose rfactor steps do too, replayed from their step bytes into
// one arena, each program's memory given back before the next
// (ReplayEncoded, Mark, Rewind). Every program must print, lower and time
// as the heap replay of its steps does, poisoned or not.
func TestPoisonedEncodedReplays(t *testing.T) {
	for _, key := range []string{"GMM.s1", "NRM.s0"} {
		var dag *te.DAG
		for _, w := range workloads.SingleOps(1) {
			if w.Key == key {
				dag = w.Build()
			}
		}
		sketches, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(dag)
		if err != nil {
			t.Fatal(err)
		}
		progs := anno.NewSampler(sketch.CPUTarget(), 5).SamplePopulation(sketches, 16)
		inserting := 0
		var want string
		encs := make([][]byte, len(progs))
		for i, s := range progs {
			for _, st := range s.Steps {
				switch st.(type) {
				case *ir.CacheWriteStep, *ir.RFactorStep:
					inserting++
				}
			}
			if encs[i], err = ir.EncodeSteps(s.Steps); err != nil {
				t.Fatal(err)
			}
			heap, err := ir.Replay(dag, s.Steps)
			if err != nil {
				t.Fatal(err)
			}
			want += timed(t, heap)
		}
		if inserting == 0 {
			t.Fatalf("%s: no sampled program inserts a stage", key)
		}
		plain, poisoned := twice(t, func(t *testing.T) string {
			a := ir.BorrowArena()
			defer a.Release()
			out := ""
			for _, enc := range encs {
				m := a.Mark()
				s, err := a.ReplayEncoded(dag, enc)
				if err != nil {
					t.Fatal(err)
				}
				if !s.InArena() {
					t.Fatal("an encoded replay into an arena is the heap's")
				}
				out += timed(t, s)
				a.Rewind(m)
			}
			return out
		})
		sameTranscripts(t, key+" encoded replays", plain, poisoned)
		if plain != want {
			t.Errorf("%s: arena replays read\n%s\nheap replays\n%s", key, plain, want)
		}
	}
}

// timed is what a worker reads of a program: its signature, nest and
// modelled time.
func timed(t *testing.T, s *ir.State) string {
	t.Helper()
	low, err := ir.LowerBorrowed(s)
	if err != nil {
		t.Fatal(err)
	}
	defer low.Release()
	return fmt.Sprintf("%s %016x\n%s", s.Signature(), math.Float64bits(sim.IntelXeon().Time(low)), s.Print())
}

// TestPoisonedBatchClonesKeepTheirSteps is what Clone detaches: a
// proposal's batch — programs sampled into one arena and evolved into the
// search's, whose steps, factor lists and step lists are carved from
// those arenas — is cloned, the arenas are released, poisoned and filled
// with other programs, and every clone must still encode to the bytes
// its original encoded to before the release.
func TestPoisonedBatchClonesKeepTheirSteps(t *testing.T) {
	ir.PoisonArenas(t)
	dag := workloads.ResNet50(1).Tasks[2].Build()
	sketches, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(dag)
	if err != nil {
		t.Fatal(err)
	}
	mine := ir.BorrowArena()
	init := anno.NewSampler(sketch.CPUTarget(), 3).SamplePopulationIn(mine, sketches, 32)
	search := evo.NewSearch(evo.Config{PopulationSize: 48, Generations: 3, CrossoverProb: 0.15,
		EliteCount: 6, Seed: 9, Workers: 2})
	batch, release := search.RunBorrowed(dag, init, poisonedScorer{feat.NewCache(0)}, 16)
	if len(batch) == 0 {
		t.Fatal("the search returned nothing")
	}
	want := make([][]byte, len(batch))
	for i, s := range batch {
		if !s.InArena() {
			t.Fatalf("program %d of the batch is the heap's: nothing to detach", i)
		}
		if want[i], err = ir.EncodeSteps(s.Steps); err != nil {
			t.Fatal(err)
		}
		batch[i] = s.Clone()
	}
	release()
	mine.Release()
	// Other programs into the same chunks.
	again := ir.BorrowArena()
	other := anno.NewSampler(sketch.CPUTarget(), 4).SamplePopulationIn(again, sketches, 32)
	_, releaseOther := search.RunBorrowed(dag, other, poisonedScorer{feat.NewCache(0)}, 16)
	defer func() {
		releaseOther()
		again.Release()
		if err := ir.CheckFreeArenas(); err != nil {
			t.Error(err)
		}
	}()
	for i, c := range batch {
		got, err := ir.EncodeSteps(c.Steps)
		if err != nil {
			t.Fatalf("clone %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("clone %d reads other steps than its original once the arenas are reused:\n got %s\nwant %s", i, got, want[i])
		}
		if again, err := ir.Replay(dag, c.Steps); err != nil || again.Signature() != c.Signature() {
			t.Errorf("clone %d no longer replays to itself (replay: %v)", i, err)
		}
	}
}

// TestPoisonedSigTablesReadersKeepTheirStrings is the signature table's
// exit clause: no string a reader keeps is made over the table's chunks.
// A policy tunes a few rounds with events and a record log, and its
// measured batch clones are kept; the policy is released, its table's
// chunks are scribbled over (ir.PoisonSigTables) and a neighbour policy
// borrows the table and fills it with its own programs. Only then are the
// clones' signatures, the records' Sig and the events' signatures read:
// they must read as in the unpoisoned run, and as a fresh replay signs.
func TestPoisonedSigTablesReadersKeepTheirStrings(t *testing.T) {
	dag := workloads.ResNet50(1).Tasks[2].Build()
	rig := func(seed int64, log *bytes.Buffer, o *obs.Observer) *policy.Policy {
		ms := measure.New(sim.IntelXeon(), 0.02, 2)
		ms.Workers = 2
		if log != nil {
			ms.Recorder = measure.NewRecorder(log)
		}
		opts := policy.DefaultOptions()
		opts.Seed = seed
		p, err := policy.New(policy.Task{Name: "conv", DAG: dag, Target: sketch.CPUTarget()}, opts, ms)
		if err != nil {
			t.Fatal(err)
		}
		p.Obs = o
		return p
	}
	run := func(t *testing.T) string {
		var log bytes.Buffer
		sink := &obs.MemorySink{}
		p := rig(5, &log, obs.New(sink, obs.NewRegistry()))
		var batch []*ir.State
		for round := 0; round < 3; round++ {
			for _, r := range p.SearchRound(8) {
				batch = append(batch, r.State)
			}
		}
		p.Release()
		neighbour := rig(6, nil, nil)
		neighbour.Tune(16, 8)
		out := ""
		for _, s := range batch {
			fresh, err := ir.Replay(dag, s.Steps)
			if err != nil {
				t.Fatal(err)
			}
			if s.Signature() != fresh.Signature() {
				t.Errorf("a batch clone signs %q once the table is reused, its replay %q", s.Signature(), fresh.Signature())
			}
			out += s.Signature() + "\n"
		}
		l, err := measure.Load(bytes.NewReader(log.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range l.Records {
			out += "record " + rec.Sig + "\n"
		}
		for _, e := range sink.ByType(obs.EvBestImproved) {
			out += "event " + e.Signature + "\n"
		}
		neighbour.Release()
		return out
	}
	plain := run(t)
	t.Run("poisoned", func(t *testing.T) {
		poisoned := ir.PoisonSigTables(t)
		got := run(t)
		if poisoned.Load() < 2 {
			t.Fatalf("%d tables poisoned, want the policy's and its neighbour's", poisoned.Load())
		}
		if err := ir.FreeSigTables.Check(); err != nil {
			t.Fatal(err)
		}
		sameTranscripts(t, "strings read after the signature table's release", plain, got)
	})
}
