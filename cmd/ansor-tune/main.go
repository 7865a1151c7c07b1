// Command ansor-tune tunes one operator, subgraph, or whole network from
// the command line and prints the best program / latencies found.
//
// Examples:
//
//	ansor-tune -workload GMM.s1 -trials 1000
//	ansor-tune -workload ConvLayer.s2 -target gpu -trials 500
//	ansor-tune -network mobilenet-v2 -batch 16 -trials 200
//	ansor-tune -workload GMM.s1 -log tune.json          # record the tuning log
//	ansor-tune -workload GMM.s1 -resume tune.json       # continue a killed run
//	ansor-tune -workload GMM.s1 -apply-best tune.json   # serve the best schedule, zero trials
//	ansor-tune -workload GMM.s1 -registry-url http://127.0.0.1:8421         # publish to a shared registry
//	ansor-tune -workload GMM.s1 -registry-url http://127.0.0.1:8421 -apply-best registry
//	ansor-tune -workload GMM.s1 -warm-start tune.json                        # start informed by a local log
//	ansor-tune -workload GMM.s1 -registry-url http://127.0.0.1:8421 -warm-start registry
//	ansor-tune -workload GMM.s1 -warm-start tune.json,http://127.0.0.1:8421  # merged warm start
//	ansor-tune -workload GMM.s1 -warm-start big.json -warm-start-limit 100   # bounded warm start
//	ansor-tune -workload GMM.s1 -fleet-url http://127.0.0.1:8521             # measure on a worker fleet
//	ansor-tune -workload GMM.s1 -events events.jsonl                         # JSONL tuning narration
//	ansor-tune -list
//
// Fleet measurement (-fleet-url) needs a broker (`ansor-registry
// fleet`) and at least one `ansor-worker` for the tuned target; the
// tuning output is bit-identical to a local run at any worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/ansor"
	"repro/internal/prof"
	"repro/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "ansor-tune: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole CLI; main only maps its error to an exit code, so
// tests drive the binary in-process.
func run(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("ansor-tune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file; the search phases are pprof-labeled, so `go tool pprof -tagfocus phase=score` isolates one stage")
		memProfile = fs.String("memprofile", "", "write an allocation profile (live heap + cumulative allocs) to this file at exit")
		workload   = fs.String("workload", "", "single op or subgraph key, e.g. GMM.s1, ConvLayer.s0")
		network    = fs.String("network", "", "network name: resnet-50, mobilenet-v2, 3d-resnet-18, dcgan, bert")
		batch      = fs.Int("batch", 1, "batch size")
		target     = fs.String("target", "intel", "target: intel, intel-avx512, arm, gpu")
		trials     = fs.Int("trials", 1000, "measurement trials (per task for networks)")
		perRound   = fs.Int("per-round", 64, "measurements per search round")
		seed       = fs.Int64("seed", 1, "random seed")
		workers    = fs.Int("workers", 0, "worker goroutines for the tuning pipeline (0 = GOMAXPROCS); results are identical for any value")
		logTo      = fs.String("log", "", "append measurement records to this tuning log (one JSON record per line)")
		resume     = fs.String("resume", "", "resume from this tuning log: logged programs replay without re-measuring; with the same seed/options the run is bit-identical to an uninterrupted one (implies -log to the same file unless -log is set)")
		warmStart  = fs.String("warm-start", "", "seed each task's cost model and best pool from tuning history before the first round; takes a log/registry file, a registry server URL (task-filtered fleet history), the literal 'registry' for the -registry-url server, or a comma-separated mix; only records measured on the tuned target are absorbed")
		applyBest  = fs.String("apply-best", "", "skip searching: replay the best recorded schedule for the workload/network with zero trials; takes a log/registry file, a registry server URL, or the literal 'registry' for the -registry-url server")
		wsLimit    = fs.Int("warm-start-limit", 0, "cap the tuned target's records each warm-start source contributes per task, subsampled training-representatively (top-k fastest + slow tail); 0 = unbounded")
		regURL     = fs.String("registry-url", "", "publish every fresh measurement to this ansor-registry server (e.g. http://127.0.0.1:8421) so concurrent tuning jobs accumulate one shared registry")
		fleetURL   = fs.String("fleet-url", "", "measure on a distributed worker fleet via this broker (ansor-registry fleet) instead of in-process; output is bit-identical to a local run at any worker count")
		events     = fs.String("events", "", "stream the structured tuning narration as JSONL to this file path or the literal 'stderr': task/round/phase boundaries, scheduler waves, model training, best improvements, warm-start summaries, and per-batch fleet timelines joined by trace IDs; non-blocking and drop-on-full, so tuning output is bit-identical with or without it")
		list       = fs.Bool("list", false, "list available workloads and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	if *list {
		fmt.Fprintln(stdout, "single operators and subgraphs (use with -workload):")
		var keys []string
		for _, w := range append(workloads.SingleOps(*batch), workloads.Subgraphs(*batch)...) {
			keys = append(keys, w.Key)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintln(stdout, "  ", k)
		}
		fmt.Fprintln(stdout, "networks (use with -network): resnet-50 mobilenet-v2 3d-resnet-18 dcgan bert")
		return nil
	}

	var tgt ansor.Target
	switch *target {
	case "intel":
		tgt = ansor.TargetIntelCPU(false)
	case "intel-avx512":
		tgt = ansor.TargetIntelCPU(true)
	case "arm":
		tgt = ansor.TargetARMCPU()
	case "gpu":
		tgt = ansor.TargetNVIDIAGPU()
	default:
		return fmt.Errorf("unknown target %q", *target)
	}
	if *resume != "" && *logTo == "" {
		// A resumed run keeps extending the same durable log, so the
		// next resume picks up where this one stops.
		*logTo = *resume
	}
	if *applyBest == "registry" {
		if *regURL == "" {
			return fmt.Errorf("-apply-best registry needs -registry-url")
		}
		*applyBest = *regURL
	}
	opts := ansor.TuningOptions{
		Trials: *trials, MeasuresPerRound: *perRound, Seed: *seed, Workers: *workers,
		RecordTo: *logTo, ResumeFrom: *resume,
		WarmStartFrom: *warmStart, WarmStartLimit: *wsLimit, ApplyHistoryBest: *applyBest,
		RegistryURL: *regURL, FleetURL: *fleetURL,
		EventsTo: *events,
	}
	if *logTo != "" {
		// The scheduler checkpoint lives beside the log so a network
		// resume can verify (not just trust) that options and workloads
		// did not drift; single-task tuning ignores it.
		opts.CheckpointPath = *logTo + ".ckpt"
	}

	switch {
	case *network != "":
		net, err := ansor.BuiltinNetwork(*network, *batch)
		if err != nil {
			return err
		}
		if *applyBest != "" {
			fmt.Fprintf(stdout, "serving %s (batch %d) on %s from %s\n", net.Name, *batch, tgt.Name, *applyBest)
		} else {
			fmt.Fprintf(stdout, "tuning %s (batch %d) on %s: %d tasks, ~%d trials/task\n",
				net.Name, *batch, tgt.Name, len(net.Tasks), *trials)
		}
		res, err := ansor.TuneNetwork(net, tgt, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "end-to-end latency: %.6g s (%d trials)\n", res.Latency, res.Trials)
		var names []string
		for n := range res.TaskLatencies {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(stdout, "  %-40s %.6g s\n", n, res.TaskLatencies[n])
		}
	case *workload != "":
		all := append(workloads.SingleOps(*batch), workloads.Subgraphs(*batch)...)
		var dag *ansor.DAG
		for _, w := range all {
			if w.Key == *workload {
				dag = w.Build()
			}
		}
		if dag == nil {
			return fmt.Errorf("unknown workload %q (try -list)", *workload)
		}
		tuner, err := ansor.NewTuner(ansor.NewTask(*workload, dag, tgt), opts)
		if err != nil {
			return err
		}
		if *applyBest != "" {
			fmt.Fprintf(stdout, "serving %s (batch %d) on %s from %s\n", *workload, *batch, tgt.Name, *applyBest)
		} else {
			fmt.Fprintf(stdout, "tuning %s (batch %d) on %s, %d sketches, %d trials\n",
				*workload, *batch, tgt.Name, len(tuner.Sketches()), *trials)
		}
		best, err := tuner.Tune()
		if err != nil {
			tuner.Close()
			return err
		}
		fmt.Fprintf(stdout, "best: %.6g s, %.1f GFLOP/s (%d fresh trials)\n\n%s",
			best.Seconds, best.GFLOPS, tuner.Trials(), best.Print())
		return tuner.Close()
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -workload, -network, or -list")
	}
	return nil
}
