// Command ansor-bench regenerates the figures of the paper's evaluation
// (§7). Every experiment prints the same rows/series the paper reports.
//
// Examples:
//
//	ansor-bench -exp fig3
//	ansor-bench -exp fig6 -batch 16 -trials 1000   # paper scale
//	ansor-bench -exp fig9 -platform arm
//	ansor-bench -exp all -trials 64                # quick pass
//	ansor-bench -exp fig6 -log bench.json          # record all measurements
//	ansor-bench -exp fig6 -resume bench.json       # replay logged work for free
//	ansor-bench -apply-best bench.json             # inspect the registry and exit
//	ansor-bench -exp fig6 -registry-url http://127.0.0.1:8421   # publish to a shared registry
//	ansor-bench -apply-best http://127.0.0.1:8421  # inspect a registry server and exit
//	ansor-bench -exp fig6 -fleet-url http://127.0.0.1:8521      # measure on a worker fleet (bit-identical)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/prof"
	"repro/internal/regserver"
	"repro/internal/session"
)

func main() {
	var (
		which     = flag.String("exp", "all", "experiment: fig3, fig6, fig7, fig8, fig9, fig10, all")
		trials    = flag.Int("trials", 0, "trials per case (0 = default reduced scale; paper uses 1000)")
		perRound  = flag.Int("per-round", 0, "measurements per round (0 = default)")
		batch     = flag.Int("batch", 1, "batch size for fig6/fig8/fig10")
		platform  = flag.String("platform", "", "fig9 platform filter: intel, gpu, arm (empty = all)")
		runs      = flag.Int("runs", 3, "fig7 median-of-N runs")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "worker goroutines for the tuning pipeline (0 = GOMAXPROCS); results are identical for any value")
		logTo     = flag.String("log", "", "append every fresh measurement to this tuning log (one JSON record per line)")
		resume    = flag.String("resume", "", "serve measurements recorded in this log instead of re-measuring (implies -log to the same file unless -log is set)")
		applyBest = flag.String("apply-best", "", "print the best recorded schedule per (workload, target) and exit; takes a log/registry file, a registry server URL, or the literal 'registry' for the -registry-url server")
		regURL    = flag.String("registry-url", "", "publish every fresh measurement to this ansor-registry server so experiment runs feed the shared registry")
		warmStart = flag.String("warm-start", "", "warm-start the Ansor runs (baselines stay cold) from tuning history: a log/registry file, a registry server URL (task-filtered fleet history), the literal 'registry' for the -registry-url server, or a comma-separated mix; NOTE this deliberately changes Ansor's results, unlike -resume")
		wsLimit   = flag.Int("warm-start-limit", 0, "cap the records each warm-start source contributes per task, subsampled training-representatively (top-k fastest + slow tail); 0 = unbounded")
		fleetURL  = flag.String("fleet-url", "", "measure on a distributed worker fleet via this broker (ansor-registry fleet) instead of in-process; figures are bit-identical either way")
		events    = flag.String("events", "", "stream the Ansor searches' structured JSONL narration (round/phase events, model training, best improvements, fleet batch timelines) to this file path or the literal 'stderr'; non-blocking and drop-on-full, so figures are bit-identical with or without it")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file; the search phases are pprof-labeled, so `go tool pprof -tagfocus phase=score` isolates one stage")
		memProfile = flag.String("memprofile", "", "write an allocation profile (live heap + cumulative allocs) to this file at exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ansor-bench: %v\n", err)
		os.Exit(1)
	}

	if *applyBest == "registry" {
		if *regURL == "" {
			fmt.Fprintln(os.Stderr, "ansor-bench: -apply-best registry needs -registry-url")
			os.Exit(2)
		}
		*applyBest = *regURL
	}
	if *applyBest != "" {
		reg, err := regserver.LoadRegistry(*applyBest)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ansor-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%-32s %-20s %-10s %12s\n", "workload", "target", "shape", "seconds")
		for _, k := range reg.Keys() {
			rec, _ := reg.Best(k.Workload, k.Target, k.DAG)
			shape := k.DAG
			if len(shape) > 8 {
				shape = shape[:8]
			}
			fmt.Printf("%-32s %-20s %-10s %12.6g\n", k.Workload, k.Target, shape, rec.Seconds)
		}
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "ansor-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := exp.DefaultConfig()
	cfg.Out = os.Stdout
	cfg.Seed = *seed
	cfg.Workers = *workers
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *perRound > 0 {
		cfg.PerRound = *perRound
	}
	if *resume != "" && *logTo == "" {
		*logTo = *resume
	}
	cfg.Session, err = session.Open(session.Spec{
		RecordTo: *logTo, ResumeFrom: *resume, RegistryURL: *regURL, FleetURL: *fleetURL,
		WarmStartFrom: *warmStart, WarmStartLimit: *wsLimit, EventsTo: *events,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ansor-bench: %v\n", err)
		os.Exit(1)
	}

	run := func(name string) {
		switch name {
		case "fig3":
			exp.Fig3(cfg)
		case "fig6":
			exp.Fig6(cfg, *batch)
		case "fig7":
			exp.Fig7(cfg, *runs)
		case "fig8":
			exp.Fig8(cfg, *batch)
		case "fig9":
			c := cfg
			if c.Trials > 200 {
				fmt.Println("(fig9 interprets -trials per task)")
			}
			if *platform != "" {
				exp.Fig9Panel(c, *platform, *batch)
			} else {
				exp.Fig9(c)
			}
		case "fig10":
			c := cfg
			exp.Fig10(c, *batch, 2)
		case "all":
			exp.Fig3(cfg)
			exp.Fig6(cfg, 1)
			exp.Fig6(cfg, 16)
			exp.Fig7(cfg, *runs)
			exp.Fig8(cfg, 1)
			exp.Fig8(cfg, 16)
			exp.Fig9(cfg)
			exp.Fig10(cfg, *batch, 2)
		default:
			fmt.Fprintf(os.Stderr, "ansor-bench: unknown experiment %q\n", name)
			cfg.Session.Close()
			os.Exit(2)
		}
	}
	run(*which)
	// A log with dropped records, a fleet that failed batches mid-run or a
	// torn event stream must fail the process: scripts would resume from a
	// silently truncated file, or read figures run on partial measurements
	// as a success.
	ok := true
	if err := cfg.Session.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "ansor-bench: %v\n", err)
		ok = false
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "ansor-bench: %v\n", err)
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}
