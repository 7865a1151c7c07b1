// Package warm is the fleet warm-start subsystem: it turns accumulated
// tuning history — a local log file, a registry server, or several of
// both — into the records a search policy absorbs before its first round
// (policy.WarmStart).
//
// The pipeline is fetch → canonical order → absorb, under one rule: a
// time is only ever used on the target that measured it.
//
//   - A Source fetches one task's records measured on the job's target: a
//     file source reads a tuning log once and serves per-(task, target)
//     slices of it; a registry source issues the server's filtered query
//     (GET /v1/records?workload=...&target=...) so a fresh job pulls only
//     its own slice of fleet history instead of the full snapshot. Either
//     way a warm-start limit counts only records that will be absorbed.
//   - Records sorts them canonically, so warm-starting from a file and
//     from a server holding the same records is bit-identical — the
//     determinism contract of DESIGN.md extends through the warm start.
//   - The policy absorbs them as it absorbs its own measurements: they
//     train the cost model, seed the best-k pool and are never re-measured.
package warm

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/measure"
	"repro/internal/regserver"
)

// Source fetches raw warm-start records for one task. Implementations
// must be usable for many tasks (TuneNetwork fetches per subgraph) but
// need not tolerate concurrent Fetch calls: warm start happens during
// policy construction, which is serial in every caller.
type Source interface {
	// Fetch returns the source's records for the workload measured on
	// target.
	Fetch(workload, target string) (*measure.Log, error)
	// Name names the source (its file paths or server URLs) for the
	// warm-start event.
	Name() string
}

// Open resolves a warm-start spec into a Source. A spec is one or more
// comma-separated sources, each either a tuning-log/registry file path,
// an http(s) registry-server URL, or the literal "registry" for the
// server at registryURL (regserver.ResolveSource, the rule
// ApplyHistoryBest follows too). A server source is pinged eagerly: a
// misspelled URL fails before any tuning work.
//
// limit, when > 0, bounds how many records each source contributes per
// task (`-warm-start-limit`), counted after the target filter: server
// sources pass it to the registry query's limit parameter, file sources
// subsample their (task, target) slice through Subsample — both deterministic, so a limited warm start is
// still a pure function of (source contents, limit). A fleet can hold
// thousands of records per workload; absorbing them all makes job
// startup cost scale with fleet history, and the limit caps it at a
// training-representative core.
func Open(spec, registryURL string, limit int) (Source, error) {
	parts := strings.Split(spec, ",")
	var srcs []Source
	for _, part := range parts {
		src, err := regserver.ResolveSource(strings.TrimSpace(part), registryURL)
		if err != nil {
			return nil, fmt.Errorf("warm: %w", err)
		}
		switch {
		case src == "": // a stray comma names no source
		case regserver.IsURL(src):
			cl := regserver.NewClient(src)
			if err := cl.Ping(); err != nil {
				return nil, fmt.Errorf("warm: %w", err)
			}
			srcs = append(srcs, &serverSource{cl: cl, url: src, limit: limit})
		default:
			srcs = append(srcs, &fileSource{path: src, limit: limit})
		}
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("warm: empty warm-start spec")
	}
	if len(srcs) == 1 {
		return srcs[0], nil
	}
	return multiSource(srcs), nil
}

// fileSource serves per-(task, target) slices of one tuning log, read
// lazily and exactly once (a network tuning job fetches for every
// subgraph).
type fileSource struct {
	path   string
	limit  int
	loaded bool
	log    *measure.Log
}

func (f *fileSource) Name() string { return f.path }

func (f *fileSource) Fetch(workload, target string) (*measure.Log, error) {
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
		if rec.Task == workload && rec.Target == target {
			out.Records = append(out.Records, rec)
		}
	}
	return Subsample(out, f.limit), nil
}

// serverSource queries a registry server's task- and target-filtered
// endpoint.
type serverSource struct {
	cl    *regserver.Client
	url   string
	limit int
}

func (s *serverSource) Name() string { return s.url }

func (s *serverSource) Fetch(workload, target string) (*measure.Log, error) {
	l, err := s.cl.Records(workload, target, s.limit) // the server applies the limit
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
// across sources are harmless: Records canonicalizes order and the
// policy absorbs each program once.
type multiSource []Source

func (m multiSource) Name() string {
	names := make([]string, len(m))
	for i, s := range m {
		names[i] = s.Name()
	}
	return strings.Join(names, ",")
}

func (m multiSource) Fetch(workload, target string) (*measure.Log, error) {
	out := &measure.Log{}
	for _, s := range m {
		l, err := s.Fetch(workload, target)
		if err != nil {
			return nil, err
		}
		out.Records = append(out.Records, l.Records...)
	}
	return out, nil
}

// Records fetches one task's warm-start records measured on target, in
// canonical order: a time is only ever used on the target that measured
// it, so the sources filter on the target before any limit applies, and
// the order is a pure function of the records' contents, so any source
// ordering (file append order, server key order) yields the same slice —
// warm-from-file and warm-from-server over the same records stay
// bit-identical downstream.
func Records(src Source, workload, target string) ([]measure.Record, error) {
	l, err := src.Fetch(workload, target)
	if err != nil {
		return nil, err
	}
	recs := l.Records
	// One target's records: by computation, time, then program.
	sort.SliceStable(recs, func(a, b int) bool {
		if recs[a].DAG != recs[b].DAG {
			return recs[a].DAG < recs[b].DAG
		}
		if recs[a].Seconds != recs[b].Seconds {
			return recs[a].Seconds < recs[b].Seconds
		}
		return string(recs[a].Steps) < string(recs[b].Steps)
	})
	return recs, nil
}
