// Command ansor-registry serves one shared best-schedule registry to
// many concurrent tuning jobs: `ansor-tune -registry-url` publishes
// every fresh measurement here, and `-apply-best` can serve schedules
// straight from the accumulated database (see DESIGN.md, "Registry
// service").
//
// Examples:
//
//	ansor-registry serve -addr 127.0.0.1:8421 -store registry.json
//	ansor-registry serve -auth-token s3cret                 # publishes need the bearer token
//	ansor-registry serve -tls-cert srv.pem -tls-key srv.key # serve HTTPS
//	ansor-registry compact -store registry.json -top-k 10   # bound a long-lived store/log
//	ansor-registry fleet -addr 127.0.0.1:8521               # host a measurement broker
//	ansor-worker -broker http://127.0.0.1:8521 -target intel -capacity 4 -id intel-w1
//	ansor-tune -workload GMM.s1 -fleet-url http://127.0.0.1:8521   # measure on the fleet
//	ansor-tune -workload GMM.s1 -registry-url http://127.0.0.1:8421
//	ansor-tune -workload GMM.s1 -registry-url http://:s3cret@127.0.0.1:8421  # token in the URL
//	ansor-tune -workload GMM.s1 -registry-url http://127.0.0.1:8421 -apply-best registry
//	ansor-tune -workload GMM.s1 -registry-url http://127.0.0.1:8421 -warm-start registry
//	ansor-bench -apply-best http://127.0.0.1:8421   # print the server's registry
//	curl http://127.0.0.1:8421/metrics              # registry health (JSON)
//	curl http://127.0.0.1:8421/metrics/prom         # Prometheus text exposition
//	curl http://127.0.0.1:8521/metrics/prom         # broker metrics, same format
//
// Both verbs serve their /metrics JSON payload in Prometheus text
// exposition too, at /metrics/prom; the broker additionally narrates
// fleet lifecycle events (batch leased / measured, lease requeues,
// quarantines) as JSONL via fleet -events (DESIGN.md, "Observability").
//
// The store file is append-durable: every record that improves the
// registry is appended immediately (the measure.Recorder semantics of
// tuning logs), and a periodic snapshot compacts the file to the
// current best set. Shutdown on SIGINT/SIGTERM is graceful: in-flight
// requests drain and a final snapshot is written.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/regserver"
	"repro/internal/session"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	session.Exit("ansor-registry", run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the whole CLI; main only maps its error to an exit code and
// wires OS signals into ctx, so tests drive the binary in-process.
// onReady, when non-nil, receives the bound address once the server is
// listening.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, onReady func(addr string)) error {
	verb := "serve"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		verb = args[0]
		args = args[1:]
	}
	switch verb {
	case "serve":
		return runServe(ctx, args, stdout, stderr, onReady)
	case "compact":
		return runCompact(args, stdout, stderr)
	case "fleet":
		return runFleet(ctx, args, stdout, stderr, onReady)
	default:
		return fmt.Errorf("unknown verb %q (want serve, compact, or fleet)", verb)
	}
}

// runFleet hosts a measurement broker: tuning jobs submit batches with
// `-fleet-url`, ansor-worker processes lease and measure them. The
// broker is deliberately memoryless (jobs are transient; the submitter
// owns the programs), so unlike `serve` there is no store and nothing
// to snapshot — shutdown just drains in-flight requests.
func runFleet(ctx context.Context, args []string, stdout, stderr io.Writer, onReady func(addr string)) error {
	fs := flag.NewFlagSet("ansor-registry fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8521", "address to listen on")
		leaseTTL    = fs.Duration("lease-ttl", 30*time.Second, "how long a worker may hold a lease before its slice is requeued on another worker")
		maxFailures = fs.Int("max-failures", 3, "expired leases before a worker is quarantined (0 = never)")
		authToken   = fs.String("auth-token", "", "require `Authorization: Bearer <token>` on job submission, leases and results (empty = open); clients embed it as http://:TOKEN@host")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for CPU/heap profiles; token-free, off when empty")
		events      = fs.String("events", "", "stream the broker's fleet lifecycle events as JSONL to this file path or the literal 'stderr': batch_leased, batch_measured, fleet_requeue, fleet_quarantine, joined to submitters' timelines by trace IDs; non-blocking and drop-on-full, off when empty")
	)
	if err := session.ParseFlags(fs, args); err != nil {
		return err
	}
	prof.Serve(*pprofAddr, "ansor-registry", stderr)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	b := fleet.NewBroker()
	b.LeaseTTL = *leaseTTL
	b.MaxFailures = *maxFailures
	b.AuthToken = *authToken
	if *events != "" {
		sink, err := obs.OpenSink(*events)
		if err != nil {
			return fmt.Errorf("fleet: -events %s: %w", *events, err)
		}
		defer sink.Close()
		b.Obs.Events = sink
	}
	fmt.Fprintf(stdout, "ansor-registry: measurement broker listening on %s (lease TTL %s, quarantine after %d failures, exact-target leases)\n",
		ln.Addr(), *leaseTTL, *maxFailures)
	hs := &http.Server{Handler: b.Handler()}
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		fmt.Fprintf(stdout, "ansor-registry: broker shutting down\n")
		shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// runCompact bounds a store/log file in place: per (workload, target,
// shape) it keeps the top-k fastest records plus a deterministic
// training-representative sample of the tail (measure.Log.Compact),
// written with the same temp+rename discipline as server snapshots so
// a crash mid-compact never loses the original.
//
// Compact is an OFFLINE verb: never run it against the store of a live
// `ansor-registry serve` — the rename would replace the file under the
// server's open append descriptor, and records the server acknowledges
// afterwards would land in the unlinked inode (lost on restart). A
// running server already bounds its own store via periodic snapshots;
// compact exists for archived stores and plain tuning logs.
func runCompact(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("ansor-registry compact", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		store = fs.String("store", "registry.json", "store or tuning-log file to compact in place (OFFLINE only: stop any server using this file first — compacting under a live server loses its later appends)")
		topK  = fs.Int("top-k", 10, "records kept per (workload, target, shape): the k fastest plus up to k training-representative samples of the tail")
	)
	if err := session.ParseFlags(fs, args); err != nil {
		return err
	}
	if *topK <= 0 {
		return fmt.Errorf("compact: -top-k must be positive, got %d", *topK)
	}
	if _, err := os.Stat(*store); err != nil {
		// Unlike tuning resume, compacting a missing file is a mistake,
		// not a cold start.
		return fmt.Errorf("compact: %w", err)
	}
	l, err := measure.LoadFile(*store)
	if err != nil {
		return fmt.Errorf("compact %s: %w", *store, err)
	}
	c := l.Compact(*topK)
	tmp := *store + ".tmp"
	if err := c.SaveFile(tmp); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("compact %s: %w", *store, err)
	}
	if err := os.Rename(tmp, *store); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("compact %s: %w", *store, err)
	}
	fmt.Fprintf(stdout, "ansor-registry: compacted %s: %d -> %d records (top-%d per workload/target/shape)\n",
		*store, len(l.Records), len(c.Records), *topK)
	return nil
}

func runServe(ctx context.Context, args []string, stdout, stderr io.Writer, onReady func(addr string)) (err error) {
	fs := flag.NewFlagSet("ansor-registry serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8421", "address to listen on")
		store     = fs.String("store", "registry.json", "durable store: improving records append here immediately; snapshots compact it to the best set (empty = in-memory only)")
		every     = fs.Duration("snapshot-every", 30*time.Second, "interval between best-set snapshots of the store")
		authToken = fs.String("auth-token", "", "require `Authorization: Bearer <token>` on record publishes (empty = open); publishers embed it as http://:TOKEN@host in -registry-url and friends")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for CPU/heap profiles; token-free, off when empty")
		tlsCert   = fs.String("tls-cert", "", "serve HTTPS with this PEM certificate (requires -tls-key); clients use https:// URLs")
		tlsKey    = fs.String("tls-key", "", "PEM private key for -tls-cert")
	)
	if err := session.ParseFlags(fs, args); err != nil {
		return err
	}
	prof.Serve(*pprofAddr, "ansor-registry", stderr)
	if (*tlsCert == "") != (*tlsKey == "") {
		return fmt.Errorf("serve: -tls-cert and -tls-key must be set together")
	}

	// Bind the address before touching the store: a bad -addr must not
	// create (or later snapshot-truncate) the store file.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	var srv *regserver.Server
	if *store != "" {
		if srv, err = regserver.Open(*store); err != nil {
			return err
		}
	} else {
		srv = regserver.New(nil)
	}
	srv.AuthToken = *authToken
	// One Close for every exit path: it writes the final snapshot, so
	// its error must reach the caller.
	defer func() {
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
	}()
	hs := &http.Server{Handler: srv.Handler()}
	scheme := "http"
	if *tlsCert != "" {
		scheme = "https"
	}
	fmt.Fprintf(stdout, "ansor-registry: listening on %s (%s, store %q, %d keys)\n",
		ln.Addr(), scheme, *store, srv.Registry().Len())
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() {
		if *tlsCert != "" {
			serveErr <- hs.ServeTLS(ln, *tlsCert, *tlsKey)
		} else {
			serveErr <- hs.Serve(ln)
		}
	}()

	ticker := time.NewTicker(*every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := srv.Snapshot(); err != nil {
				fmt.Fprintf(stderr, "ansor-registry: %v\n", err)
			}
		case err := <-serveErr:
			return err
		case <-ctx.Done():
			fmt.Fprintf(stdout, "ansor-registry: shutting down (%d keys)\n", srv.Registry().Len())
			shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := hs.Shutdown(shctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			return nil
		}
	}
}
