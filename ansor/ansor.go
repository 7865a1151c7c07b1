// Package ansor is the public API of this Ansor reproduction: an
// auto-scheduler that generates high-performance tensor programs for deep
// learning computations (Zheng et al., OSDI 2020).
//
// The typical flow mirrors Figure 4 of the paper:
//
//	dag   := ansor.NewComputeBuilder("matmul").…   // define the computation
//	task  := ansor.NewTask("matmul", dag, ansor.TargetIntelCPU(false))
//	tuner, err := ansor.NewTuner(task, ansor.TuningOptions{Trials: 1000})
//	best, err := tuner.Tune()                      // search
//	fmt.Println(best.Print())                      // the winning program
//
// Networks of many subgraphs are tuned with the gradient-descent task
// scheduler via TuneNetwork. Execution is measured on deterministic
// analytic machine models (package internal/sim) standing in for the
// paper's hardware testbeds; see DESIGN.md.
package ansor

import (
	"fmt"
	"math"

	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/regserver"
	"repro/internal/sched"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/workloads"
)

// ComputeBuilder re-exports the tensor expression builder: declare inputs
// and weights, chain operators, call Finish.
type ComputeBuilder = te.Builder

// NewComputeBuilder returns a builder for a computation DAG.
func NewComputeBuilder(name string) *ComputeBuilder { return te.NewBuilder(name) }

// DAG is a computation definition.
type DAG = te.DAG

// ConvOpts re-exports convolution options.
type ConvOpts = te.ConvOpts

// Target selects the hardware to generate programs for. It bundles the
// machine model used for measurement with the structural search-space
// parameters of §4.
type Target struct {
	Name    string
	Machine *sim.Machine
	Space   sketch.Target
}

// TargetIntelCPU is the paper's 20-core Intel Xeon; avx512 selects the
// vector ISA.
func TargetIntelCPU(avx512 bool) Target {
	m := sim.IntelXeon()
	if avx512 {
		m = sim.IntelXeonAVX512()
	}
	return Target{Name: m.Name, Machine: m, Space: sketch.CPUTarget()}
}

// TargetARMCPU is the paper's 4-core Cortex-A53.
func TargetARMCPU() Target {
	s := sketch.CPUTarget()
	s.VectorLanes = 4
	return Target{Name: "arm-cortex-a53", Machine: sim.ARMCortexA53(), Space: s}
}

// TargetNVIDIAGPU is the paper's V100.
func TargetNVIDIAGPU() Target {
	return Target{Name: "nvidia-v100", Machine: sim.NVIDIAV100(), Space: sketch.GPUTarget()}
}

// TargetByName resolves a target's command-line name: one of the
// aliases intel, intel-avx512, arm and gpu, or a machine-model name
// (Target.Name, the name records and fleet leases carry).
func TargetByName(name string) (Target, error) {
	aliases := map[string]Target{"intel": TargetIntelCPU(false), "intel-avx512": TargetIntelCPU(true),
		"arm": TargetARMCPU(), "gpu": TargetNVIDIAGPU()}
	for alias, t := range aliases {
		if name == alias || name == t.Name {
			return t, nil
		}
	}
	return Target{}, fmt.Errorf("unknown target %q (want intel, intel-avx512, arm, gpu, or a machine-model name)", name)
}

// Task is one program-generation task: a subgraph on a target.
type Task struct {
	Name   string
	DAG    *DAG
	Target Target
	// Weight is the subgraph's appearance count within a network.
	Weight int
}

// NewTask builds a task (Weight 1).
func NewTask(name string, dag *DAG, target Target) Task {
	return Task{Name: name, DAG: dag, Target: target, Weight: 1}
}

// TuningOptions controls the search.
type TuningOptions struct {
	// Trials is the measurement budget (§7 uses 1000 per subgraph).
	Trials int
	// MeasuresPerRound is the batch size per search round (default 64).
	MeasuresPerRound int
	// Seed drives all randomness; equal seeds give identical searches.
	Seed int64
	// Workers bounds the goroutines used by each parallel stage of the
	// tuning pipeline — batch measurement, candidate scoring,
	// evolutionary search, cost-model training, and independent
	// scheduler rounds. 0 (the default) uses all cores with a shared
	// process-wide bound, so nested stages never oversubscribe the
	// machine; an explicit value applies per stage and may multiply
	// when stages nest (see internal/pool). Tuning output is
	// bit-identical for any value (see DESIGN.md's determinism
	// contract); Workers only changes wall-clock time.
	Workers int

	// RecordTo appends every fresh successful measurement as one JSON
	// record per line to this file (created if missing), building the
	// durable tuning log that ResumeFrom, WarmStartFrom and
	// ApplyHistoryBest consume. Recording is passive: it never changes
	// search results. Call Close on the tuner (TuneNetwork closes
	// internally) to release the file and surface write errors.
	// TuneNetwork also writes the task scheduler's gradient state
	// (sched.Checkpoint) beside the log, to <RecordTo>.ckpt; when
	// ResumeFrom is set too and that file exists, the resumed run first
	// checks that its seed, per-round batch, target and task list match
	// the checkpoint's, then that its replay passed exactly through the
	// checkpointed state (sched.VerifyReplay), so option or workload
	// drift is an error instead of silent corruption. Single-task tuners
	// have no scheduler state beyond the log and write no checkpoint.
	RecordTo string
	// ResumeFrom replays a tuning log written by RecordTo: the search
	// re-runs deterministically from round one, but every program whose
	// record is in the log is served from it instead of re-measured, so
	// the replayed prefix costs zero fresh trials. With the original
	// seed, options and workload, the resumed run is bit-identical to an
	// uninterrupted one at any Workers value (DESIGN.md, "Persistence
	// layer"). Typically set together with RecordTo pointing at the same
	// file so the continuation keeps appending.
	ResumeFrom string
	// WarmStartFrom seeds each task's cost model and best-k pool from
	// accumulated tuning history before the first round — the search
	// starts informed instead of blind. It accepts the same source forms
	// as ApplyHistoryBest, comma-separated for a merged warm start: a
	// tuning-log/registry file path, an http(s) registry-server URL
	// (which pulls only the task-filtered slice of fleet history via the
	// server's query endpoint), or the literal "registry" for the
	// RegistryURL server. Only records measured on this task's target are
	// absorbed — a time is only ever used on the target that measured it —
	// and they train the model and seed the best-k pool exactly as this
	// run's own measurements would (see internal/warm). Unlike ResumeFrom
	// this deliberately changes the trajectory (a better model from round
	// one) and costs no trials for the replayed programs.
	WarmStartFrom string
	// ApplyHistoryBest skips searching entirely: the best recorded
	// schedule for (workload, target) in this log/registry file — or,
	// when set to an http(s) URL, on that registry server, and when set
	// to the literal "registry", on the RegistryURL server — is replayed
	// with zero measurement trials. Tune returns an error if the source
	// has no entry for the task, and "registry" without a RegistryURL is
	// an error.
	ApplyHistoryBest string
	// RegistryURL connects the run to a shared registry server
	// (ansor-registry): every fresh successful measurement is published
	// there in addition to RecordTo, and a resumed run first seeds the
	// server with its log's existing records (cached replays never
	// re-record, so the tee alone would miss them). Publishing is
	// passive — it never changes search results — and a run that
	// publishes to a server accumulates exactly the records a local
	// RecordTo log would, so
	// applying best from the server is bit-identical to applying best
	// from the local registry path (DESIGN.md, "Registry service").
	// Publish failures surface through Tuner.Close / TuneNetwork's
	// error, like tuning-log write failures.
	RegistryURL string
	// FleetURL runs all measurement on a distributed fleet instead of
	// in-process: batches are submitted to the measurement broker at
	// this URL (`ansor-registry fleet`), sharded across the registered
	// ansor-worker processes hosting this task's target, and reassembled
	// in submission order. Everything else — search, cost model, noise,
	// records, resume cache — stays local, and the tuning output is
	// bit-identical to an in-process run at any worker count or lease
	// assignment (DESIGN.md, "Measurement fleet"). Broker failures
	// surface per-batch as measurement errors and again through
	// Tuner.Close, like tuning-log write failures. A bearer token for a
	// broker started with -auth-token may be embedded as
	// "http://:TOKEN@host:port".
	FleetURL string
	// WarmStartLimit caps how many of this target's records each
	// warm-start source contributes per task (0 = unbounded). Server
	// sources query with the registry's limit parameter; file sources
	// subsample their task slice with the training-representative top-k +
	// slow-tail sampler of measure.Log.Compact — deterministic either way,
	// so a limited warm start is reproducible.
	WarmStartLimit int
	// EventsTo streams the structured tuning narration as JSONL to this
	// destination: a file path (appended, created if missing) or the
	// literal "stderr". Every lifecycle point of the run emits one typed,
	// versioned obs.Event line — task and round boundaries, search
	// phases, scheduler waves, model training, best improvements,
	// warm-start summaries, and (on fleet runs) the per-batch
	// queued→leased→measured→reported timeline joined by trace IDs.
	// Events are narration, never inputs: the sink is bounded and
	// drop-on-full, so a run with events enabled is bit-identical to one
	// without (pinned by tests). Empty disables events.
	EventsTo string
	// Observer overrides the events/metrics plumbing wholesale: when
	// set, EventsTo is ignored and the run narrates into this observer's
	// sink and registry (which the caller owns and closes). Tests use it
	// to capture events in memory and pin timestamps via the observer's
	// injected clock; embedding applications use it to aggregate many
	// runs into one metrics registry.
	Observer *obs.Observer
}

func (o *TuningOptions) defaults() {
	if o.Trials == 0 {
		o.Trials = 1000
	}
	if o.MeasuresPerRound == 0 {
		o.MeasuresPerRound = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Program is a complete scheduled tensor program.
type Program struct {
	State *ir.State
	// Seconds is its measured execution time on the target.
	Seconds float64
	// GFLOPS is its measured throughput.
	GFLOPS float64
}

// Print renders the program's loop nest in the style of Figure 5.
func (p Program) Print() string { return p.State.Print() }

// Tuner searches for the best program of one task.
type Tuner struct {
	task     Task
	opts     TuningOptions
	pol      *policy.Policy
	measurer *measure.Measurer
	sess     *session.Session
	closed   bool
}

// spec maps the options' plumbing fields onto the run assembly's.
func (o TuningOptions) spec() session.Spec {
	return session.Spec{
		RecordTo: o.RecordTo, ResumeFrom: o.ResumeFrom,
		RegistryURL: o.RegistryURL, FleetURL: o.FleetURL,
		WarmStartFrom: o.WarmStartFrom, WarmStartLimit: o.WarmStartLimit,
		EventsTo: o.EventsTo, Observer: o.Observer,
	}
}

// NewTuner builds a tuner; it constructs the task's search space (sketch
// generation) eagerly and fails if the DAG is invalid.
func NewTuner(task Task, opts TuningOptions) (_ *Tuner, err error) {
	opts.defaults()
	sess, err := session.Open(opts.spec())
	if err != nil {
		return nil, fmt.Errorf("ansor: %w", err)
	}
	defer func() {
		if err != nil {
			sess.Close()
		}
	}()
	ms := sess.Measurer(task.Target.Machine, opts.Seed, opts.Workers)
	popts := policy.DefaultOptions()
	popts.Seed = opts.Seed
	pol, err := policy.New(policy.Task{
		Name: task.Name, DAG: task.DAG, Target: task.Target.Space, Weight: task.Weight,
	}, popts, ms)
	if err != nil {
		return nil, fmt.Errorf("ansor: %w", err)
	}
	pol.Obs = sess.Observer()
	if err := sess.WarmStart(pol, task.Target.Machine.Name); err != nil {
		return nil, fmt.Errorf("ansor: %w", err)
	}
	return &Tuner{task: task, opts: opts, pol: pol, measurer: ms, sess: sess}, nil
}

// Close flushes and closes the tuning log (if RecordTo was set), flushes
// any batched registry publishing, drains an EventsTo stream, and reports
// the first write/publish error any of them hit — or, on a fleet-measured
// run, the first broker failure the remote measurer latched. It also
// gives the search's feature memory back, so Tune fails from here on;
// Best, History and ModelFingerprint stay valid. Safe to call on a tuner
// that never recorded, and more than once.
func (t *Tuner) Close() error {
	if !t.closed {
		t.closed = true
		t.pol.Release()
	}
	return t.sess.Close()
}

// Sketches returns the generated sketches of the task's search space
// (incomplete programs with TILE placeholders, §4.1).
func (t *Tuner) Sketches() []*ir.State { return t.pol.Sketches() }

// Tune runs the full search and returns the best program found. With
// ApplyHistoryBest set it does not search at all: the registry's best
// schedule is replayed with zero measurement trials.
func (t *Tuner) Tune() (Program, error) {
	if t.closed {
		return Program{}, fmt.Errorf("ansor: tuner of task %q is closed", t.task.Name)
	}
	if t.opts.ApplyHistoryBest != "" {
		return t.ApplyBest()
	}
	t.pol.Obs.Emit(obs.Event{Type: obs.EvTaskStart, Task: t.task.Name,
		Target: t.task.Target.Machine.Name, Trials: t.opts.Trials})
	t.pol.Tune(t.opts.Trials, t.opts.MeasuresPerRound)
	t.pol.Obs.Emit(obs.Event{Type: obs.EvTaskEnd, Task: t.task.Name,
		Target: t.task.Target.Machine.Name, Seconds: t.pol.BestTime, Trials: t.pol.Trials})
	return t.Best()
}

// ApplyBest replays the best recorded schedule for this task from the
// options' ApplyHistoryBest source (log/registry file or registry
// server URL, see bestLookup) without spending any measurement.
func (t *Tuner) ApplyBest() (Program, error) {
	target := t.task.Target.Machine.Name
	lookup, err := bestLookup(t.opts, target)
	if err != nil {
		return Program{}, err
	}
	rec, ok, err := lookup(t.task.Name, t.task.DAG)
	if err != nil {
		return Program{}, fmt.Errorf("ansor: apply history best: %w", err)
	}
	if !ok {
		return Program{}, fmt.Errorf("ansor: apply history best: no schedule recorded for workload %q (this shape) on target %q",
			t.task.Name, target)
	}
	s, err := rec.Replay(t.task.DAG)
	if err != nil {
		return Program{}, fmt.Errorf("ansor: apply history best: replay %q on %q: %w", t.task.Name, target, err)
	}
	return program(s, rec.Seconds)
}

// bestLookup resolves the options' ApplyHistoryBest source ("registry"
// names the RegistryURL server, see regserver.ResolveSource) to a lookup
// of the best record on the target, keyed by the task's name and exact
// computation fingerprint, so a record tuned for another shape (e.g. a
// different batch size under the same task name) is never served. A file is loaded
// once. A server is asked per key (/v1/best) instead of downloading the
// full snapshot: each lookup rides the server's encoded-response cache,
// and the client's validator cache turns repeat applications into
// conditional GETs. The served record is byte-identical to the snapshot
// path's (the server stores records verbatim).
func bestLookup(opts TuningOptions, target string) (func(name string, dag *DAG) (measure.Record, bool, error), error) {
	src, err := regserver.ResolveSource(opts.ApplyHistoryBest, opts.RegistryURL)
	if err != nil {
		return nil, fmt.Errorf("ansor: apply history best: %w", err)
	}
	if regserver.IsURL(src) {
		cl := regserver.NewClient(src)
		return func(name string, dag *DAG) (measure.Record, bool, error) {
			return cl.BestFor(name, target, dag)
		}, nil
	}
	reg, err := regserver.LoadRegistry(src)
	if err != nil {
		return nil, fmt.Errorf("ansor: apply history best: %w", err)
	}
	return func(name string, dag *DAG) (measure.Record, bool, error) {
		rec, ok := reg.BestFor(name, target, dag)
		return rec, ok, nil
	}, nil
}

// Best returns the best program measured so far.
func (t *Tuner) Best() (Program, error) {
	if t.pol.BestState == nil {
		return Program{}, fmt.Errorf("ansor: no valid program measured for task %q", t.task.Name)
	}
	return program(t.pol.BestState, t.pol.BestTime)
}

// program is s at its measured time, with the throughput its lowered
// loops give at that time.
func program(s *ir.State, sec float64) (Program, error) {
	low, err := ir.Lower(s)
	if err != nil {
		return Program{}, fmt.Errorf("ansor: %w", err)
	}
	return Program{State: s, Seconds: sec, GFLOPS: low.TotalFlops() / sec / 1e9}, nil
}

// Trials returns the number of measurements spent so far.
func (t *Tuner) Trials() int { return t.measurer.Trials() }

// History returns the tuning curve: one (trials, best time) point per
// search round. Equal seeds give identical histories for any Workers
// value.
func (t *Tuner) History() []policy.HistoryPoint { return t.pol.History }

// ModelFingerprint hashes the trained cost-model ensemble; equal
// fingerprints mean bit-identical models. The persistence determinism
// tests use it to assert a resumed search retrained to exactly the
// model of an uninterrupted run.
func (t *Tuner) ModelFingerprint() uint64 { return t.pol.ModelFingerprint() }

// NetworkTask is one weighted subgraph of a network; its Tag groups
// similar tasks for the scheduler's gradient approximation (N(i),
// Appendix A) and is optional.
type NetworkTask = workloads.NetTask

// Network is a set of weighted subgraphs (see package workloads for the
// paper's five networks).
type Network = workloads.Network

// BuiltinNetwork returns one of the paper's evaluation networks:
// "resnet-50", "mobilenet-v2", "3d-resnet-18", "dcgan", "bert".
func BuiltinNetwork(name string, batch int) (Network, error) {
	switch name {
	case "resnet-50":
		return workloads.ResNet50(batch), nil
	case "mobilenet-v2":
		return workloads.MobileNetV2(batch), nil
	case "3d-resnet-18":
		return workloads.Res3D18(batch), nil
	case "dcgan":
		return workloads.DCGAN(batch), nil
	case "bert":
		return workloads.BERT(batch), nil
	}
	return Network{}, fmt.Errorf("ansor: unknown network %q", name)
}

// NetworkResult is the outcome of tuning a network.
type NetworkResult struct {
	// Latency is the end-to-end latency estimate Σ wᵢ·gᵢ.
	Latency float64
	// TaskLatencies maps each task to its best subgraph latency.
	TaskLatencies map[string]float64
	// Trials spent in total.
	Trials int
}

// TuneNetwork tunes all subgraphs of a network with the gradient-descent
// task scheduler (§6), budgeting roughly trialsPerTask measurements per
// unique subgraph. The persistence options of TuningOptions apply to the
// whole network: one shared log records/replays every task, and
// ApplyHistoryBest serves all task latencies from the registry with zero
// measurements.
func TuneNetwork(net Network, target Target, opts TuningOptions) (NetworkResult, error) {
	opts.defaults()
	if opts.ApplyHistoryBest != "" {
		return applyNetworkBest(net, target, opts)
	}
	sess, err := session.Open(opts.spec())
	if err != nil {
		return NetworkResult{}, fmt.Errorf("ansor: %w", err)
	}
	defer sess.Close() // for the error returns; the run's own Close is below
	obsv := sess.Observer()
	ms := sess.Measurer(target.Machine, opts.Seed, opts.Workers)
	run, err := policy.NewNetwork([]Network{net}, opts.MeasuresPerRound, schedOptions(opts), obsv,
		func(i int, task NetworkTask) (*policy.Policy, error) {
			popts := policy.DefaultOptions()
			popts.Seed = opts.Seed + int64(i)*31
			p, err := policy.New(policy.Task{
				Name: task.Name, DAG: task.Build(), Target: target.Space, Weight: task.Weight,
			}, popts, ms)
			if err != nil {
				return nil, fmt.Errorf("ansor: task %s: %w", task.Name, err)
			}
			p.Obs = obsv
			if err := sess.WarmStart(p, target.Machine.Name); err != nil {
				p.Release()
				return nil, fmt.Errorf("ansor: %w", err)
			}
			obsv.Emit(obs.Event{Type: obs.EvTaskStart, Task: task.Name,
				Target: target.Machine.Name, Trials: opts.Trials})
			return p, nil
		})
	if err != nil {
		return NetworkResult{}, err
	}
	defer run.Release() // once the results are read: nothing proposes again
	// A resumed run re-executes from round one with cached measurements;
	// the checkpoint written by the interrupted run lets us VERIFY the
	// replay passed through exactly the recorded state instead of
	// trusting determinism blindly (drifted options, workloads, or logs
	// become errors here).
	var prev *netCheckpoint
	meta := checkpointMeta(net, target, opts)
	ckpt := opts.RecordTo + ".ckpt"
	if opts.RecordTo != "" && opts.ResumeFrom != "" {
		if prev, err = loadCheckpoint(ckpt); err != nil {
			return NetworkResult{}, err
		}
		if prev != nil {
			if err := prev.verifyMeta(meta); err != nil {
				return NetworkResult{}, fmt.Errorf("ansor: resume %s: %w", ckpt, err)
			}
		}
	}
	run.Run(opts.Trials, nil)
	if prev != nil {
		if err := run.Sched.VerifyReplay(prev.Sched); err != nil {
			return NetworkResult{}, fmt.Errorf("ansor: resume %s: replay diverged from checkpoint (options, workload, or log drift): %w",
				ckpt, err)
		}
	}
	if opts.RecordTo != "" {
		if err := writeCheckpoint(ckpt, meta, run.Sched); err != nil {
			return NetworkResult{}, err
		}
	}
	res := NetworkResult{Latency: run.Latencies()[0], TaskLatencies: map[string]float64{}, Trials: ms.Trials()}
	for _, t := range run.Tasks {
		res.TaskLatencies[t.Name()] = t.BestLatency()
		obsv.Emit(obs.Event{Type: obs.EvTaskEnd, Task: t.Name(),
			Target: target.Machine.Name, Seconds: t.BestLatency(), Trials: t.Trials})
	}
	if math.IsInf(res.Latency, 1) {
		return res, fmt.Errorf("ansor: some tasks were never measured; increase Trials")
	}
	// A run that lost records, batches or events went on without them: a
	// divergent run, failed like a torn tuning log.
	if err := sess.Close(); err != nil {
		return res, fmt.Errorf("ansor: %w", err)
	}
	return res, nil
}

// applyNetworkBest serves a whole network's latencies from the registry
// with zero measurement trials. Every unique subgraph must have a
// recorded schedule; missing tasks are reported by name so the caller
// knows what still needs tuning.
func applyNetworkBest(net Network, target Target, opts TuningOptions) (NetworkResult, error) {
	lookup, err := bestLookup(opts, target.Machine.Name)
	if err != nil {
		return NetworkResult{}, err
	}
	res := NetworkResult{TaskLatencies: map[string]float64{}}
	var missing []string
	for _, task := range net.Tasks {
		dag := task.Build()
		rec, ok, err := lookup(task.Name, dag)
		if err != nil {
			return NetworkResult{}, fmt.Errorf("ansor: apply history best: task %s: %w", task.Name, err)
		}
		if !ok {
			missing = append(missing, task.Name)
			continue
		}
		// Replay validates that the recorded steps still build on the
		// task's DAG; a registry from a stale workload definition fails
		// loudly instead of serving unbuildable schedules.
		if _, err := rec.Replay(dag); err != nil {
			return NetworkResult{}, fmt.Errorf("ansor: apply history best: task %s: %w", task.Name, err)
		}
		res.TaskLatencies[task.Name] = rec.Seconds
		res.Latency += float64(task.Weight) * rec.Seconds
	}
	if len(missing) > 0 {
		return NetworkResult{}, fmt.Errorf("ansor: apply history best: no recorded schedule for %d task(s) on %s: %v",
			len(missing), target.Machine.Name, missing)
	}
	return res, nil
}

// schedOptions builds the task scheduler's options for a network run.
// Seed is not carried over: the scheduler's ε-greedy stream is seed 1
// for every TuningOptions.Seed (pinned by TestSchedulerSeedIsNotWired,
// to be repaired with ROADMAP item 3(e), since wiring it moves every
// network trajectory).
func schedOptions(opts TuningOptions) sched.Options {
	sopts := sched.DefaultOptions()
	sopts.Workers = opts.Workers
	return sopts
}
