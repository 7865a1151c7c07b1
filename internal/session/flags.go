package session

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

// Flags are the run flags ansor-tune and ansor-bench share, declared on
// the binary's FlagSet by RegisterFlags. Each binary declares its own
// -trials, -per-round, -batch and -apply-best, whose defaults or actions
// differ.
type Flags struct {
	spec Spec
	// Seed, Workers and the profile paths are read after fs.Parse.
	Seed                   int64
	Workers                int
	CPUProfile, MemProfile string
}

// RegisterFlags declares the shared run flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	s := &f.spec
	fs.Int64Var(&f.Seed, "seed", 1, "random seed")
	fs.IntVar(&f.Workers, "workers", 0, "worker goroutines for the tuning pipeline (0 = GOMAXPROCS); results are identical for any value")
	fs.StringVar(&s.RecordTo, "log", "", "append every fresh measurement to this tuning log (one JSON record per line)")
	fs.StringVar(&s.ResumeFrom, "resume", "", "resume from this tuning log: logged programs replay without re-measuring, so with the same seed and options the run is bit-identical to an uninterrupted one (implies -log to the same file unless -log is set)")
	fs.StringVar(&s.RegistryURL, "registry-url", "", "publish every fresh measurement to this ansor-registry server (e.g. http://127.0.0.1:8421), so concurrent runs accumulate one shared registry")
	fs.StringVar(&s.FleetURL, "fleet-url", "", "measure on a distributed worker fleet via this broker (ansor-registry fleet) instead of in-process; output is bit-identical to a local run at any worker count")
	fs.StringVar(&s.WarmStartFrom, "warm-start", "", "seed each task's cost model and best pool from tuning history before the first round; takes a log/registry file, a registry server URL (task-filtered fleet history), the literal 'registry' for the -registry-url server, or a comma-separated mix; only records measured on the tuned target are absorbed, and unlike -resume this changes the results")
	fs.IntVar(&s.WarmStartLimit, "warm-start-limit", 0, "cap the tuned target's records each warm-start source contributes per task, subsampled training-representatively (top-k fastest + slow tail); 0 = unbounded")
	fs.StringVar(&s.EventsTo, "events", "", "stream the structured tuning narration as JSONL to this file path or the literal 'stderr': task/round/phase boundaries, scheduler waves, model training, best improvements, warm-start summaries, and per-batch fleet timelines joined by trace IDs; non-blocking and drop-on-full, so the output is bit-identical with or without it")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file; the search phases are pprof-labeled, so `go tool pprof -tagfocus phase=score` isolates one stage")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write an allocation profile (live heap + cumulative allocs) to this file at exit")
	return f
}

// Spec is the parsed run's Spec. A resumed run keeps extending the log
// it resumes from, so the next resume picks up where this one stops:
// -resume implies -log to the same file unless -log is set.
func (f *Flags) Spec() Spec {
	s := f.spec
	if s.ResumeFrom != "" && s.RecordTo == "" {
		s.RecordTo = s.ResumeFrom
	}
	return s
}

// UsageError is an error in what a command was asked for — a bad flag,
// an unknown experiment — on which it exits 2 instead of 1.
type UsageError struct {
	err error
	// printed: the flag package already printed it, with the usage.
	printed bool
}

// Usage marks err as a usage error.
func Usage(err error) error { return UsageError{err: err} }

func (e UsageError) Error() string { return e.err.Error() }
func (e UsageError) Unwrap() error { return e.err }

// ParseFlags parses a command's arguments into fs, whose output is the
// command's stderr: -h returns flag.ErrHelp, and a bad flag a UsageError
// the flag package has already printed.
func ParseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return UsageError{err: err, printed: true}
}

// Exit ends the named command's main on the error its run returned,
// by one rule for every binary: nil and -h exit 0; a usage error exits
// 2, printed as "<name>: <err>" unless the flag package printed it; any
// other error is printed so and exits 1.
func Exit(name string, err error) {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	var usage UsageError
	isUsage := errors.As(err, &usage)
	if !usage.printed {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	if isUsage {
		os.Exit(2)
	}
	os.Exit(1)
}
