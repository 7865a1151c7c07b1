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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/ansor"
	"repro/internal/prof"
	"repro/internal/session"
	"repro/internal/workloads"
)

func main() {
	session.Exit("ansor-tune", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI; main only maps its error to an exit code, so
// tests drive the binary in-process.
func run(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("ansor-tune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shared := session.RegisterFlags(fs)
	var (
		workload  = fs.String("workload", "", "single op or subgraph key, e.g. GMM.s1, ConvLayer.s0")
		network   = fs.String("network", "", "network name: resnet-50, mobilenet-v2, 3d-resnet-18, dcgan, bert")
		batch     = fs.Int("batch", 1, "batch size")
		target    = fs.String("target", "intel", "target: intel, intel-avx512, arm, gpu, or a machine-model name like intel-20c-avx2")
		trials    = fs.Int("trials", 1000, "measurement trials (per task for networks)")
		perRound  = fs.Int("per-round", 64, "measurements per search round")
		applyBest = fs.String("apply-best", "", "skip searching: replay the best recorded schedule for the workload/network with zero trials; takes a log/registry file, a registry server URL, or the literal 'registry' for the -registry-url server")
		list      = fs.Bool("list", false, "list available workloads and exit")
	)
	if err := session.ParseFlags(fs, args); err != nil {
		return err
	}
	stopProf, err := prof.Start(shared.CPUProfile, shared.MemProfile)
	if err != nil {
		return err
	}
	defer func() { retErr = errors.Join(retErr, stopProf()) }()

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

	tgt, err := ansor.TargetByName(*target)
	if err != nil {
		return err
	}
	spec := shared.Spec()
	opts := ansor.TuningOptions{
		Trials: *trials, MeasuresPerRound: *perRound, Seed: shared.Seed, Workers: shared.Workers,
		RecordTo: spec.RecordTo, ResumeFrom: spec.ResumeFrom, RegistryURL: spec.RegistryURL, FleetURL: spec.FleetURL,
		WarmStartFrom: spec.WarmStartFrom, WarmStartLimit: spec.WarmStartLimit, EventsTo: spec.EventsTo,
		ApplyHistoryBest: *applyBest,
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
