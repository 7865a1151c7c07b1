// Command ansor-worker is one measurement device of the distributed
// fleet: it hosts an analytic machine model (the stand-in for one
// physical board of the paper's measurement farm), long-polls the broker
// for leased slices of measurement batches, times each program, and
// posts the results back. Run as many workers as you have "boards" — the
// broker shards batches across every worker registered for the job's
// target, requeues slices when a worker dies mid-batch, and tuning
// output stays bit-identical to a local run regardless (see DESIGN.md,
// "Measurement fleet").
//
// Examples:
//
//	ansor-registry fleet -addr 127.0.0.1:8521
//	ansor-worker -broker http://127.0.0.1:8521 -target intel -capacity 4 -id intel-w1
//	ansor-worker -broker http://127.0.0.1:8521 -target intel -capacity 4 -id intel-w2
//	ansor-worker -broker http://127.0.0.1:8521 -target gpu -capacity 8
//	ansor-worker -broker http://:s3cret@127.0.0.1:8521 -target arm   # token-guarded broker
//	ansor-tune -workload GMM.s1 -fleet-url http://127.0.0.1:8521
//
// Workers never roll measurement noise (that is derived by the
// submitting run from its tuning seed) and never record tuning logs
// (records belong to the submitting run); a worker is a pure
// program-timing service.
//
// A worker is leased only jobs for the target it hosts: a time is only
// ever used on the target that measured it, so an idle avx512 worker
// never drains an avx2 queue, and a grant naming any other target fails
// its programs (see DESIGN.md, "Measurement fleet").
//
// The worker's own side of the fleet is observable: -metrics-addr
// serves /metrics (JSON: leases taken, programs measured, program
// errors, quarantine state), /metrics/prom (Prometheus text
// exposition) and /healthz, and
// -events streams worker_lease/worker_result JSONL events that join the
// submitting run's per-batch timeline through the trace IDs echoed on
// lease grants (DESIGN.md, "Observability").
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/ansor"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/regserver"
	"repro/internal/session"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	session.Exit("ansor-worker", run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI; main only maps its error to an exit code and
// wires OS signals into ctx, so tests drive the binary in-process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ansor-worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		broker      = fs.String("broker", "http://127.0.0.1:8521", "measurement broker URL (ansor-registry fleet); a bearer token may be embedded as http://:TOKEN@host")
		target      = fs.String("target", "intel", "hosted machine model: intel, intel-avx512, arm, gpu, or a model name like intel-20c-avx2")
		capacity    = fs.Int("capacity", 4, "programs per lease: how much of a batch this worker takes in one bite")
		id          = fs.String("id", "", "worker id for the broker's failure accounting (default <model>-w1, e.g. intel-20c-avx2-w1); give every worker of a target a distinct id")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for CPU/heap profiles; token-free, off when empty")
		metricsAddr = fs.String("metrics-addr", "", "serve the worker's observability endpoints on this address (e.g. localhost:8531): /metrics (JSON: leases taken, programs measured, program errors, quarantine state), /metrics/prom (Prometheus text exposition), and /healthz; off when empty")
		events      = fs.String("events", "", "stream structured JSONL lifecycle events (worker_lease, worker_result) to this file path or the literal \"stderr\"; non-blocking and drop-on-full, off when empty")
	)
	if err := session.ParseFlags(fs, args); err != nil {
		return err
	}
	prof.Serve(*pprofAddr, "ansor-worker", stderr)
	if *capacity < 1 {
		return fmt.Errorf("-capacity must be positive, got %d", *capacity)
	}
	tgt, err := ansor.TargetByName(*target)
	if err != nil {
		return err
	}
	m := tgt.Machine
	wid := *id
	if wid == "" {
		wid = m.Name + "-w1"
	}
	w := fleet.NewWorker(*broker, wid, m, *capacity)
	if *events != "" {
		sink, err := obs.OpenSink(*events)
		if err != nil {
			return fmt.Errorf("-events %s: %w", *events, err)
		}
		defer sink.Close()
		w.Obs.Events = sink
	}
	if *metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(*metricsAddr, w.MetricsHandler()); err != nil {
				fmt.Fprintf(stderr, "ansor-worker: metrics server: %v\n", err)
			}
		}()
	}
	if err := w.Ping(); err != nil {
		return err
	}
	// Never echo the broker URL verbatim: it may embed the auth token.
	display, _ := regserver.SplitTokenURL(*broker)
	fmt.Fprintf(stdout, "ansor-worker: %s serving target %s (capacity %d) from %s\n",
		wid, m.Name, *capacity, display)
	err = w.Run(ctx)
	fmt.Fprintf(stdout, "ansor-worker: %s stopping\n", wid)
	return err
}
