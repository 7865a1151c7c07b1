// Package warm is the fleet warm-start subsystem: it turns accumulated
// tuning history — a local log file, a registry server, or several of
// both — into the source-tagged, weighted records a search policy
// absorbs before its first round (policy.WarmStartWeighted).
//
// The pipeline is fetch → filter → weight:
//
//   - A Source fetches the records relevant to one task: a file source
//     reads a tuning log once and serves per-task slices of it; a
//     registry source issues the server's task-filtered query
//     (GET /v1/records?workload=...) so a fresh job pulls only its own
//     slice of fleet history instead of the full snapshot.
//   - Records measured on the job's own target replay at full weight and
//     stay eligible for the best-k pool, exactly like the original
//     file-only warm start.
//   - Records measured on a sibling target (e.g. avx2 → avx512) carry
//     signal the cost model can use — the §5.2 program features are
//     target-agnostic — but their times live on another machine's clock.
//     They transfer with a per-target linear throughput calibration
//     (fit from overlapping (workload, dag) pairs measured on both
//     targets), a target-distance weight discount, and TrainOnly set:
//     they shape the model's view of the search space but never enter
//     the best-k pool or claim a measured best, so the tuning curve's
//     "best" always refers to a time measured on this target.
//   - Records from a different hardware class (CPU ↔ GPU) do not
//     transfer at all: the search spaces differ structurally and the
//     calibration assumption (one throughput scale) does not hold.
//
// Preparation canonicalizes record order, so warm-starting from a file
// and from a server holding the same records is bit-identical — the
// determinism contract of DESIGN.md extends through the warm start.
package warm

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/measure"
	"repro/internal/policy"
	"repro/internal/regserver"
)

// Source fetches raw warm-start records for one task. Implementations
// must be usable for many tasks (TuneNetwork fetches per subgraph) but
// need not tolerate concurrent Fetch calls: warm start happens during
// policy construction, which is serial in every caller.
type Source interface {
	// Fetch returns the source's records for the workload, on any
	// target. Callers own filtering and weighting (Records).
	Fetch(workload string) (*measure.Log, error)
	// Name tags prepared records with their provenance.
	Name() string
}

// Open resolves a warm-start spec into a Source. A spec is one or more
// comma-separated sources, each either a tuning-log/registry file path,
// an http(s) registry-server URL, or the literal "registry" — which
// resolves to registryURL, so CLIs can say `-warm-start registry` next
// to `-registry-url` exactly like `-apply-best registry`. A server
// source is pinged eagerly: a misspelled URL fails before any tuning
// work.
//
// limit, when > 0, bounds how many records each source contributes per
// task (`-warm-start-limit`): server sources pass it to the registry
// query's limit parameter, file sources subsample their task slice
// through Subsample — both deterministic, so a limited warm start is
// still a pure function of (source contents, limit). A fleet can hold
// thousands of records per workload; absorbing them all makes job
// startup cost scale with fleet history, and the limit caps it at a
// training-representative core.
func Open(spec, registryURL string, limit int) (Source, error) {
	parts := strings.Split(spec, ",")
	var srcs []Source
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "registry" {
			if registryURL == "" {
				return nil, fmt.Errorf("warm: spec %q needs a registry URL (-registry-url)", spec)
			}
			part = registryURL
		}
		if regserver.IsURL(part) {
			cl := regserver.NewClient(part)
			if err := cl.Ping(); err != nil {
				return nil, fmt.Errorf("warm: %w", err)
			}
			srcs = append(srcs, &serverSource{cl: cl, url: part, limit: limit})
			continue
		}
		srcs = append(srcs, &fileSource{path: part, limit: limit})
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("warm: empty warm-start spec")
	}
	if len(srcs) == 1 {
		return srcs[0], nil
	}
	return multiSource(srcs), nil
}

// fileSource serves per-task slices of one tuning log, read lazily and
// exactly once (a network tuning job fetches for every subgraph).
type fileSource struct {
	path   string
	limit  int
	loaded bool
	log    *measure.Log
}

func (f *fileSource) Name() string { return f.path }

func (f *fileSource) Fetch(workload string) (*measure.Log, error) {
	if !f.loaded {
		l, err := measure.LoadFile(f.path)
		if err != nil {
			return nil, fmt.Errorf("warm: %s: %w", f.path, err)
		}
		f.log = l
		f.loaded = true
	}
	out := &measure.Log{}
	for _, rec := range f.log.Records {
		if rec.Task == workload {
			out.Records = append(out.Records, rec)
		}
	}
	return Subsample(out, f.limit), nil
}

// serverSource queries a registry server's task-filtered endpoint.
type serverSource struct {
	cl    *regserver.Client
	url   string
	limit int
}

func (s *serverSource) Name() string { return s.url }

func (s *serverSource) Fetch(workload string) (*measure.Log, error) {
	l, err := s.cl.Records(workload, "", s.limit) // the server applies the limit
	if err != nil {
		return nil, fmt.Errorf("warm: %w", err)
	}
	return l, nil
}

// Subsample bounds a record log to at most limit records while keeping
// it training-representative, by reusing measure.Log.Compact's
// per-group top-k + evenly-spaced slow-tail sampler: it picks the
// largest k whose compaction fits the limit (binary search — Compact
// output size is monotone in k), then truncates the remainder in the
// compaction's deterministic order if even k=1 overshoots (many groups,
// tiny limit). Purely a function of the log's contents and limit;
// limit <= 0 means unbounded.
func Subsample(l *measure.Log, limit int) *measure.Log {
	if limit <= 0 || len(l.Records) <= limit {
		return l
	}
	lo, hi := 1, limit
	best := l.Compact(1)
	for lo <= hi {
		k := (lo + hi) / 2
		c := l.Compact(k)
		if len(c.Records) <= limit {
			best = c
			lo = k + 1
		} else {
			hi = k - 1
		}
	}
	if len(best.Records) > limit {
		best = &measure.Log{Records: best.Records[:limit]}
	}
	return best
}

// multiSource concatenates its children's fetches. Duplicate programs
// across sources are harmless: preparation canonicalizes order and the
// policy absorbs each program once.
type multiSource []Source

func (m multiSource) Name() string {
	names := make([]string, len(m))
	for i, s := range m {
		names[i] = s.Name()
	}
	return strings.Join(names, ",")
}

func (m multiSource) Fetch(workload string) (*measure.Log, error) {
	out := &measure.Log{}
	for _, s := range m {
		l, err := s.Fetch(workload)
		if err != nil {
			return nil, err
		}
		out.Records = append(out.Records, l.Records...)
	}
	return out, nil
}

// Records fetches and prepares one task's warm-start records: the
// fetch → filter → weight pipeline. Same-target records come first at
// weight 1, pool-eligible. Sibling records follow, calibrated onto the
// native clock, discounted by target distance, and TrainOnly. Both
// partitions are canonically sorted, so any source ordering (file append order, server key order)
// prepares identically — warm-from-file and warm-from-server over the
// same records stay bit-identical downstream.
func Records(src Source, workload, target string) ([]policy.WarmRecord, error) {
	return RecordsCalibrated(src, workload, target, nil)
}

// RecordsCalibrated is Records with a fleet-pooled calibration overlay:
// scales the task's own overlap pairs cannot fit (no native history
// yet) fall back to pooled, fit across every workload the fleet has
// measured (regserver's /v1/calibration). nil pooled is plain Records.
func RecordsCalibrated(src Source, workload, target string, pooled *measure.Calibration) ([]policy.WarmRecord, error) {
	l, err := src.Fetch(workload)
	if err != nil {
		return nil, err
	}
	return PrepareCalibrated(l.Records, workload, target, src.Name(), pooled), nil
}

// Prepare is the filter/weight stage of Records, exposed for callers
// that already hold raw records.
func Prepare(recs []measure.Record, workload, target, source string) []policy.WarmRecord {
	return PrepareCalibrated(recs, workload, target, source, nil)
}

// PrepareCalibrated is Prepare with a pooled-calibration fallback for
// sibling scales the local records cannot fit (see RecordsCalibrated).
// Weights follow measure's target-distance schedule (WeightSibling,
// WeightSameClass, UncalibratedFactor).
func PrepareCalibrated(recs []measure.Record, workload, target, source string, pooled *measure.Calibration) []policy.WarmRecord {
	var native, sibling []measure.Record
	for _, rec := range recs {
		if rec.Task != workload || rec.Seconds <= 0 {
			continue
		}
		if rec.Target == target {
			native = append(native, rec)
			continue
		}
		if measure.TargetDistance(target, rec.Target) >= 3 {
			continue
		}
		sibling = append(sibling, rec)
	}
	sortCanonical(native)
	sortCanonical(sibling)
	cal := measure.FitCalibration(recs, target)
	cal.Merge(pooled) // locally-fit scales win; pooled fills the gaps

	out := make([]policy.WarmRecord, 0, len(native)+len(sibling))
	for _, rec := range native {
		out = append(out, policy.WarmRecord{Record: rec, Weight: 1, Source: source})
	}
	for _, rec := range sibling {
		w := measure.WeightSibling
		if measure.TargetDistance(target, rec.Target) == 2 {
			w = measure.WeightSameClass
		}
		if scale, ok := cal.Scale(rec.Target); ok {
			rec.Seconds *= scale
			if rec.Noiseless > 0 {
				rec.Noiseless *= scale
			}
		} else {
			w *= measure.UncalibratedFactor
		}
		out = append(out, policy.WarmRecord{Record: rec, Weight: w, TrainOnly: true, Source: source})
	}
	return out
}

// Stats summarizes a prepared warm-start record set for the tuner's
// warm_start event: how many records replay at native weight versus
// arrive as calibrated, train-only transfers from sibling targets.
func Stats(recs []policy.WarmRecord) (native, transfer int) {
	for _, wr := range recs {
		if wr.TrainOnly {
			transfer++
		} else {
			native++
		}
	}
	return native, transfer
}

// sortCanonical imposes the canonical record order preparation promises:
// a pure function of the records' contents, independent of how the
// source happened to order them.
func sortCanonical(recs []measure.Record) {
	sort.SliceStable(recs, func(a, b int) bool {
		if recs[a].Target != recs[b].Target {
			return recs[a].Target < recs[b].Target
		}
		if recs[a].DAG != recs[b].DAG {
			return recs[a].DAG < recs[b].DAG
		}
		if recs[a].Seconds != recs[b].Seconds {
			return recs[a].Seconds < recs[b].Seconds
		}
		return string(recs[a].Steps) < string(recs[b].Steps)
	})
}
