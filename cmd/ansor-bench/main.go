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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/exp"
	"repro/internal/prof"
	"repro/internal/regserver"
	"repro/internal/session"
)

func main() {
	session.Exit("ansor-bench", run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI; main only maps its error to an exit code, so
// tests drive the binary in-process.
func run(args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("ansor-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shared := session.RegisterFlags(fs)
	fs.Lookup("warm-start").Usage += "; ansor-bench warm-starts only the Ansor runs: baselines stay cold"
	var (
		which     = fs.String("exp", "all", "experiment: fig3, fig6, fig7, fig8, fig9, fig10, all")
		trials    = fs.Int("trials", 0, "trials per case (0 = default reduced scale; paper uses 1000)")
		perRound  = fs.Int("per-round", 0, "measurements per round (0 = default)")
		batch     = fs.Int("batch", 1, "batch size for fig6/fig8/fig10")
		platform  = fs.String("platform", "", "fig9 platform filter: intel, gpu, arm (empty = all)")
		runs      = fs.Int("runs", 3, "fig7 median-of-N runs")
		applyBest = fs.String("apply-best", "", "print the best recorded schedule per (workload, target) and exit; takes a log/registry file, a registry server URL, or the literal 'registry' for the -registry-url server")
	)
	if err := session.ParseFlags(fs, args); err != nil {
		return err
	}
	stopProf, err := prof.Start(shared.CPUProfile, shared.MemProfile)
	if err != nil {
		return err
	}
	defer func() { retErr = errors.Join(retErr, stopProf()) }()

	spec := shared.Spec()
	if *applyBest != "" {
		src, err := regserver.ResolveSource(*applyBest, spec.RegistryURL)
		if err != nil {
			return session.Usage(err)
		}
		reg, err := regserver.LoadRegistry(src)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-32s %-20s %-10s %12s\n", "workload", "target", "shape", "seconds")
		for _, k := range reg.Keys() {
			rec, _ := reg.Best(k.Workload, k.Target, k.DAG)
			shape := k.DAG
			if len(shape) > 8 {
				shape = shape[:8]
			}
			fmt.Fprintf(stdout, "%-32s %-20s %-10s %12.6g\n", k.Workload, k.Target, shape, rec.Seconds)
		}
		return nil
	}

	cfg := exp.DefaultConfig()
	cfg.Out = stdout
	cfg.Seed = shared.Seed
	cfg.Workers = shared.Workers
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *perRound > 0 {
		cfg.PerRound = *perRound
	}
	if cfg.Session, err = session.Open(spec); err != nil {
		return err
	}
	// A log with dropped records, a fleet that failed batches mid-run or a
	// torn event stream must fail the process: scripts would resume from a
	// silently truncated file, or read figures run on partial measurements
	// as a success.
	defer func() { retErr = errors.Join(retErr, cfg.Session.Close()) }()

	switch *which {
	case "fig3":
		exp.Fig3(cfg)
	case "fig6":
		exp.Fig6(cfg, *batch)
	case "fig7":
		exp.Fig7(cfg, *runs)
	case "fig8":
		exp.Fig8(cfg, *batch)
	case "fig9":
		if cfg.Trials > 200 {
			fmt.Fprintln(stdout, "(fig9 interprets -trials per task)")
		}
		if *platform != "" {
			exp.Fig9Panel(cfg, *platform, *batch)
		} else {
			exp.Fig9(cfg)
		}
	case "fig10":
		exp.Fig10(cfg, *batch, 2)
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
		return session.Usage(fmt.Errorf("unknown experiment %q", *which))
	}
	return nil
}
