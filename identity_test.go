package repro

// The cross-commit half of the determinism contract. TestIdentity runs a
// fixed set of seeded probes through the search, the persistence spine,
// the fleet, the figures, the program path and the fleet worker's bytes
// to time and the cost model's training, and logs one digest line per
// probe:
//
//	identity: <probe> <digest>
//
// ./identity.sh <base> runs it in this tree and in <base> (with this file
// copied over) and names the first probe whose digest moved. Where a
// probe has two arms that the contract says are equal (Workers 1/2/8,
// fresh against resumed, in process against a loopback fleet) the test
// also fails here when they differ.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/ansor"
	"repro/internal/anno"
	"repro/internal/exp"
	"repro/internal/feat"
	"repro/internal/fleet"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
	"repro/internal/xgb"
)

// identityOp is the single-op probes' task, tuned with identityOpts:
// the benchmark's tune-deep op at its sizing.
const identityOp = "C2D.s1"

func identityOpts(seed int64) ansor.TuningOptions {
	return ansor.TuningOptions{Trials: 256, MeasuresPerRound: 64, Workers: 2, Seed: seed}
}

func TestIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("identity probes run in full mode (./identity.sh)")
	}
	dir := t.TempDir()
	probe := func(name, text string) {
		sum := sha256.Sum256([]byte(text))
		t.Logf("identity: %s %x", name, sum[:8])
	}

	// Network tuning at the benchmark's tune-net sizing: the scheduler
	// prepares ahead only at Workers > 1, and tasks of one wave measure
	// concurrently, so the record log is compared per task.
	var nets []string
	for _, workers := range []int{1, 2, 8} {
		text := identityNetwork(t, workers, filepath.Join(dir, fmt.Sprintf("net-w%d.jsonl", workers)))
		probe(fmt.Sprintf("net.w%d", workers), text)
		nets = append(nets, text)
	}
	if nets[1] != nets[0] || nets[2] != nets[0] {
		t.Error("network tuning differs across Workers 1, 2 and 8")
	}

	// Chained single-op tuning: op i warm-starts from the log op i-1
	// recorded, as the benchmark's tune-deep ops do.
	var op0 string
	for i := 0; i < 3; i++ {
		opts := identityOpts(int64(10 + i))
		opts.RecordTo = filepath.Join(dir, fmt.Sprintf("deep%d.jsonl", i))
		if i > 0 {
			opts.WarmStartFrom = filepath.Join(dir, fmt.Sprintf("deep%d.jsonl", i-1))
		}
		text := identityTune(t, opts)
		probe(fmt.Sprintf("deep.op%d", i), text)
		if i == 0 {
			op0 = text
		}
	}

	// A loopback fleet measures op 0 again: the transport must not show.
	opts := identityOpts(10)
	opts.RecordTo = filepath.Join(dir, "fleet.jsonl")
	opts.FleetURL = identityFleet(t, sim.IntelXeon(), 4, 8)
	fleetText := identityTune(t, opts)
	probe("fleet", fleetText)
	if fleetText != op0 {
		t.Error("op 0 measured on a loopback fleet differs from the in-process run")
	}

	// Fresh N trials against k trials, then resumed to N.
	fresh := identityOpts(20)
	fresh.RecordTo = filepath.Join(dir, "fresh.jsonl")
	freshText := identityTune(t, fresh)
	part := identityOpts(20)
	part.Trials = 128
	part.RecordTo = filepath.Join(dir, "part.jsonl")
	identityTune(t, part)
	resumed := identityOpts(20)
	resumed.RecordTo, resumed.ResumeFrom = part.RecordTo, part.RecordTo
	resumedText := identityTune(t, resumed)
	probe("resume.fresh", freshText)
	probe("resume.resumed", resumedText)
	if resumedText != freshText {
		t.Error("a run resumed from 128 trials to 256 differs from a fresh 256-trial run")
	}

	// Short figures: every framework of Figure 6, every scheduler arm of
	// Figure 10, as printed.
	var out bytes.Buffer
	cfg := exp.DefaultConfig()
	cfg.Out = &out
	exp.Fig6(cfg, 1)
	probe("fig6", out.String())
	out.Reset()
	cfg.Trials, cfg.PerRound = 16, 8
	exp.Fig10Panel(cfg, []workloads.Network{workloads.DCGAN(1)}, 2)
	probe("fig10", out.String())

	probe("corpus", identityCorpus(t))
	probe("worker", identityWorker(t))
	probe("model", identityModel(t))
}

// identityTune tunes identityOp and renders what the run returned and
// recorded: best time bits, signature, the model's fingerprint, the
// curve of (trials, best time) and the record log.
func identityTune(t *testing.T, opts ansor.TuningOptions) string {
	t.Helper()
	var task ansor.Task
	for _, w := range workloads.SingleOps(1) {
		if w.Key == identityOp {
			task = ansor.NewTask(w.Key, w.Build(), ansor.TargetIntelCPU(false))
		}
	}
	tuner, err := ansor.NewTuner(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	best, err := tuner.Tune()
	if cerr := tuner.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "best %016x %s\nmodel %016x\n",
		math.Float64bits(best.Seconds), best.State.Signature(), tuner.ModelFingerprint())
	for _, h := range tuner.History() {
		fmt.Fprintf(&b, "%d %016x\n", h.Trials, math.Float64bits(h.BestTime))
	}
	b.WriteString(identityLog(t, opts.RecordTo))
	return b.String()
}

// identityNetwork tunes resnet-50 at the given Workers and renders the
// network latency, every task's latency and the record log.
func identityNetwork(t *testing.T, workers int, log string) string {
	t.Helper()
	net, err := ansor.BuiltinNetwork("resnet-50", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ansor.TuneNetwork(net, ansor.TargetIntelCPU(false), ansor.TuningOptions{
		Trials: 16, MeasuresPerRound: 8, Seed: 3, Workers: workers, RecordTo: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "latency %016x trials %d\n", math.Float64bits(res.Latency), res.Trials)
	for _, task := range net.Tasks {
		fmt.Fprintf(&b, "%s %016x\n", task.Name, math.Float64bits(res.TaskLatencies[task.Name]))
	}
	b.WriteString(identityLog(t, log))
	return b.String()
}

// identityLog renders a record log as one SHA-256 per task over the
// task's lines in file order: the order across tasks is not defined when
// tasks measure concurrently.
func identityLog(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	perTask := map[string][]byte{}
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec struct {
			Task string `json:"task"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		perTask[rec.Task] = append(perTask[rec.Task], line...)
	}
	tasks := make([]string, 0, len(perTask))
	for task := range perTask {
		tasks = append(tasks, task)
	}
	sort.Strings(tasks)
	var b strings.Builder
	for _, task := range tasks {
		fmt.Fprintf(&b, "log %s %x\n", task, sha256.Sum256(perTask[task]))
	}
	return b.String()
}

// identityFleet starts a loopback broker with one worker per capacity on
// machine m and returns the broker's URL; the test's cleanup stops both.
func identityFleet(t *testing.T, m *sim.Machine, capacities ...int) string {
	t.Helper()
	hs := httptest.NewServer(fleet.NewBroker().Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i, c := range capacities {
		w := fleet.NewWorker(hs.URL, fmt.Sprintf("identity-w%d", i), m, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		hs.Close()
	})
	return hs.URL
}

// identityTargets are the corpus probes' targets: a CPU and a GPU.
var identityTargets = []struct {
	space   sketch.Target
	machine *sim.Machine
}{
	{sketch.CPUTarget(), sim.IntelXeon()},
	{sketch.GPUTarget(), sim.NVIDIAV100()},
}

// identityCorpus samples programs of every single operator and subgraph
// on a CPU and a GPU target and renders each one's signature, simulated
// time bits and feature bits: the program path, without a search.
func identityCorpus(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, w := range append(workloads.SingleOps(1), workloads.Subgraphs(1)...) {
		dag := w.Build()
		for _, tgt := range identityTargets {
			sketches, err := sketch.NewGenerator(tgt.space).Generate(dag)
			if err != nil {
				t.Fatalf("%s: %v", w.Key, err)
			}
			rng := rand.New(rand.NewSource(1))
			sampler := anno.NewSampler(tgt.space, 1)
			fmt.Fprintf(&b, "%s %s %d sketches\n", w.Key, tgt.machine.Name, len(sketches))
			for i := 0; i < 4; i++ {
				s, err := sampler.SampleIn(nil, sketches[rng.Intn(len(sketches))])
				if err != nil {
					fmt.Fprintf(&b, "  invalid: %v\n", err)
					continue
				}
				low, err := ir.Lower(s)
				if err != nil {
					fmt.Fprintf(&b, "  %s lower: %v\n", s.Signature(), err)
					continue
				}
				h := sha256.New()
				for _, row := range feat.Extract(low) {
					for _, v := range row {
						fmt.Fprintf(h, "%x,", math.Float64bits(v))
					}
					h.Write([]byte{'\n'})
				}
				fmt.Fprintf(&b, "  %s time %016x features %x\n",
					s.Signature(), math.Float64bits(tgt.machine.Time(low)), h.Sum(nil)[:8])
			}
		}
	}
	return b.String()
}

// identityWorker sends programs of every single operator and subgraph, on
// a CPU and a GPU target, to a loopback fleet's worker as step bytes, each
// in five variants — as encoded, in another layout, with a trailing byte,
// with a step that does not apply, and with one that does not decode
// after that — and renders what comes back: a time's bits or the
// worker's error text. The bytes-to-time path, errors included.
func identityWorker(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, tgt := range identityTargets {
		cl := fleet.NewClient(identityFleet(t, tgt.machine, 16))
		for _, w := range append(workloads.SingleOps(1), workloads.Subgraphs(1)...) {
			dag := w.Build()
			sketches, err := sketch.NewGenerator(tgt.space).Generate(dag)
			if err != nil {
				t.Fatalf("%s: %v", w.Key, err)
			}
			bin, err := te.EncodeDAGBinary(dag)
			if err != nil {
				t.Fatalf("%s: %v", w.Key, err)
			}
			spec := fleet.JobSpec{ID: "identity-" + w.Key + "-" + tgt.machine.Name, Target: tgt.machine.Name,
				Task: w.Key, DAGBin: bin, WaitMS: 20000}
			for _, s := range anno.NewSampler(tgt.space, 2).SamplePopulation(sketches, 3) {
				enc, err := ir.EncodeSteps(s.Steps)
				if err != nil {
					t.Fatalf("%s: %v", w.Key, err)
				}
				open := enc[:len(enc)-1]
				spec.Programs = append(spec.Programs, enc,
					bytes.ReplaceAll(enc, []byte(`,"`), []byte(` , "`)),
					slices.Concat(enc, []byte(" x")),
					slices.Concat(open, []byte(`,{"kind":"Inline","data":{"Stage":"nope"}}]`)),
					slices.Concat(open, []byte(`,{"kind":"Inline","data":{"Stage":"nope"}},{"kind":"Bogus","data":{}}]`)))
			}
			if len(spec.Programs) == 0 {
				continue
			}
			st, err := cl.Submit(spec)
			if err != nil || !st.Done {
				t.Fatalf("%s on %s: %+v, %v", w.Key, tgt.machine.Name, st, err)
			}
			fmt.Fprintf(&b, "%s %s\n", w.Key, tgt.machine.Name)
			for _, r := range st.Results {
				fmt.Fprintf(&b, "  %016x %s\n", math.Float64bits(r.Noiseless), r.Err)
			}
		}
	}
	return b.String()
}

// identityModel trains the cost model through a Fit, a Boost and a Fit
// again on two training sets — features of C2D.s1 programs sampled from
// its sketches, and synthetic rows of a few values each, tied, constant
// within nodes, with two columns copied, one transformed and two in one
// order but tied differently — and renders the fingerprint and the bits
// of every program's score and of its last statement's after each call:
// the trainer, without a search.
func identityModel(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	chain := func(name string, progs [][][]float64, y []float64) {
		m := xgb.NewCostModel(xgb.DefaultOpts())
		n := len(progs)
		for i, call := range []func(){
			func() { m.Fit(progs[:n/2], y[:n/2]) },
			func() { m.Boost(progs[:3*n/4], y[:3*n/4], n/2) },
			func() { m.Fit(progs, y) },
		} {
			call()
			fmt.Fprintf(&b, "%s call %d trees %d fingerprint %016x\n", name, i, m.NumTrees(), m.Fingerprint())
			for _, p := range progs {
				fmt.Fprintf(&b, "%016x %016x\n", math.Float64bits(m.Score(p)), math.Float64bits(m.ScoreStmt(p[len(p)-1])))
			}
		}
	}

	var dag *te.DAG
	for _, w := range workloads.SingleOps(1) {
		if w.Key == identityOp {
			dag = w.Build()
		}
	}
	space, machine := identityTargets[0].space, identityTargets[0].machine
	sketches, err := sketch.NewGenerator(space).Generate(dag)
	if err != nil {
		t.Fatal(err)
	}
	var progs [][][]float64
	var times, y []float64
	for _, s := range anno.NewSampler(space, 1).SamplePopulation(sketches, 256) {
		low, err := ir.Lower(s)
		if err != nil {
			continue
		}
		progs = append(progs, feat.Extract(low))
		times = append(times, machine.Time(low))
	}
	best := slices.Min(times)
	for _, tm := range times {
		y = append(y, best/tm)
	}
	chain(identityOp, progs, y)

	rng := rand.New(rand.NewSource(1))
	progs, y = nil, nil
	for i := 0; i < 400; i++ {
		var p [][]float64
		for s := 1 + rng.Intn(3); s > 0; s-- {
			x := make([]float64, 15)
			for f := range x[:10] {
				x[f] = float64(rng.Intn(1 + f%4))
			}
			x[10], x[11] = x[2], x[3] // exact ties across columns
			// An increasing transform, which joins column 3's order
			// class, and the program's index beside a coarser copy: one
			// (value, row) order, tied differently.
			x[12] = math.Log2(1 + x[3])
			x[13], x[14] = float64(i), float64(i/4)
			p = append(p, x)
		}
		progs = append(progs, p)
		y = append(y, float64(rng.Intn(17))/16)
	}
	chain("tied", progs, y)
	return b.String()
}
