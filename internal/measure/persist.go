package measure

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// setKey identifies one measured program: results are only comparable
// within one (target, task) scope. Scoping by task keeps the replay
// cache trajectory-neutral — a resumed search consults exactly the
// entries its own task wrote, so dedupe never changes which programs the
// search picks, only whether picking them costs a fresh trial (see
// DESIGN.md, "Persistence layer"). The program is keyed by its canonical
// encoded step list, which fully determines it (§5.1) — unlike the
// structural Signature, which is deliberately coarse for search-level
// dedupe, the step encoding can never conflate two programs that measure
// differently.
type setKey struct {
	target, task, dag, steps string
}

// MeasuredSet is a concurrency-safe set of already-measured programs
// with their recorded times. A Measurer with a MeasuredSet attached
// serves matching programs from it instead of re-measuring, which is
// what makes resume free for already-logged work (§5.1's dedupe applied
// at the measurement layer).
type MeasuredSet struct {
	mu sync.RWMutex
	m  map[setKey]Record
}

// NewMeasuredSet returns an empty set.
func NewMeasuredSet() *MeasuredSet {
	return &MeasuredSet{m: map[setKey]Record{}}
}

// Add inserts a record. Serving reconstructs measurements from the
// noiseless machine time, so records lacking it (legacy logs) are
// skipped — they can still be replayed or registry-served, just not used
// to shortcut fresh measurement. The first record for a key wins.
func (ms *MeasuredSet) Add(rec Record) bool {
	if len(rec.Steps) == 0 || rec.Seconds <= 0 || rec.Noiseless <= 0 || rec.DAG == "" {
		return false
	}
	k := setKey{rec.Target, rec.Task, rec.DAG, string(rec.Steps)}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if _, ok := ms.m[k]; ok {
		return false
	}
	ms.m[k] = rec
	return true
}

// AddLog inserts every usable record of a log and returns how many were
// new.
func (ms *MeasuredSet) AddLog(l *Log) int {
	n := 0
	for _, rec := range l.Records {
		if ms.Add(rec) {
			n++
		}
	}
	return n
}

// Lookup returns the recorded measurement for a program identified by
// its canonical encoded step list, if present.
func (ms *MeasuredSet) Lookup(target, task, dag string, steps []byte) (Record, bool) {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	rec, ok := ms.m[setKey{target, task, dag, string(steps)}]
	return rec, ok
}

// Contains reports whether the program was already measured.
func (ms *MeasuredSet) Contains(target, task, dag string, steps []byte) bool {
	_, ok := ms.Lookup(target, task, dag, steps)
	return ok
}

// Len returns the number of distinct measured programs.
func (ms *MeasuredSet) Len() int {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	return len(ms.m)
}

// teeSink is one secondary sink with its own latched error: sinks fail
// independently, so one sick tee (a dead registry server) can neither
// stop the primary log nor starve a healthy sibling tee.
type teeSink struct {
	w   io.Writer
	err error
}

// Recorder receives fresh successful measurements and streams them,
// deduplicated by (target, task, dag, steps), to an optional writer and
// its tees (one record line each, so an *os.File opened in append mode
// accumulates a durable log across runs). It keeps no copy of what it
// wrote, only the dedupe set. It is safe for concurrent use by measurers
// sharing it.
type Recorder struct {
	mu   sync.Mutex
	w    io.Writer
	tees []teeSink
	seen map[setKey]struct{}
	// line is the record line Record encodes into and hands each sink. It
	// is overwritten by the next Record, so a sink keeps nothing of the
	// slice past its Write (io.Writer's own rule).
	line []byte
	// err latches the primary sink's first failure; each tee latches its
	// own (see teeSink).
	err error
}

// NewRecorder returns a recorder streaming to w (nil: to its tees only,
// if any).
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: w, seen: map[setKey]struct{}{}}
}

// Tee adds a secondary streaming sink: every subsequently recorded
// record is also written to w (one JSON line per record, the same
// framing as the primary sink). The registry-service wiring uses this
// to publish a tuning run's fresh measurements to a server while the
// durable log file keeps receiving them. The sinks fail independently:
// a failing tee latches its own first error (surfaced through Err)
// without stopping either the tuning run or the primary log sink. Tee
// sinks that also implement io.Closer (e.g. the registry client's
// batched writer) are flushed and closed by Close.
func (r *Recorder) Tee(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tees = append(r.tees, teeSink{w: w})
}

// MarkSeen pre-seeds the dedupe set (without re-writing the records),
// used when appending to an existing log file so resumed runs do not
// duplicate lines.
func (r *Recorder) MarkSeen(l *Log) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range l.Records {
		if len(rec.Steps) > 0 {
			r.seen[setKey{rec.Target, rec.Task, rec.DAG, string(rec.Steps)}] = struct{}{}
		}
	}
}

// Record appends one record; duplicates are dropped. It reports whether
// the record was new.
func (r *Recorder) Record(rec Record) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(rec.Steps) > 0 {
		k := setKey{rec.Target, rec.Task, rec.DAG, string(rec.Steps)}
		if _, ok := r.seen[k]; ok {
			return false, r.firstErrLocked()
		}
		r.seen[k] = struct{}{}
	}
	if r.w != nil || len(r.tees) > 0 {
		line, err := AppendRecord(r.line[:0], rec)
		if err != nil {
			if r.err == nil {
				r.err = fmt.Errorf("measure: save log: %w", err)
			}
			return true, r.firstErrLocked()
		}
		r.line = line
		// Keep tuning if a sink fails; each sink latches its own first
		// error (surfaced to whoever closes the run) so a sick registry
		// server cannot starve the durable log file, or vice versa.
		if r.w != nil && r.err == nil {
			if _, err := r.w.Write(line); err != nil {
				r.err = err
			}
		}
		for i := range r.tees {
			if r.tees[i].err != nil {
				continue
			}
			if _, err := r.tees[i].w.Write(line); err != nil {
				r.tees[i].err = err
			}
		}
	}
	return true, r.firstErrLocked()
}

// Close flushes and closes every tee sink that implements io.Closer
// (the primary sink stays open — its file is owned by whoever passed it
// to NewRecorder) and returns the first error any sink latched,
// including flush errors surfaced by the closes. Whoever ends the run
// must call Close rather than just Err once a buffering sink (the
// registry client's batched writer) may hold unflushed records.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.tees {
		if c, ok := r.tees[i].w.(io.Closer); ok {
			if err := c.Close(); err != nil && r.tees[i].err == nil {
				r.tees[i].err = err
			}
		}
	}
	err := r.firstErrLocked()
	r.tees = nil
	return err
}

// firstErrLocked returns the primary sink's first error, else the first
// tee's (in attach order).
func (r *Recorder) firstErrLocked() error {
	if r.err != nil {
		return r.err
	}
	for _, tee := range r.tees {
		if tee.err != nil {
			return tee.err
		}
	}
	return nil
}

// Err returns the first write error encountered by any streaming sink
// (the primary sink's first error wins over the tee's).
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firstErrLocked()
}

// OpenPersistence wires the file-backed persistence of one run: a
// resume cache loaded from resumeFrom, and a recorder appending to
// recordTo with its dedupe set pre-seeded from the file's existing
// records. Either path may be empty; when both name the same file (the
// usual resume-and-keep-recording setup) it is read once. The caller
// owns closing the returned file and surfacing Recorder.Err.
func OpenPersistence(recordTo, resumeFrom string) (*Recorder, *MeasuredSet, *os.File, error) {
	var resumeLog *Log
	var cache *MeasuredSet
	if resumeFrom != "" {
		l, err := LoadFile(resumeFrom)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("measure: resume from %s: %w", resumeFrom, err)
		}
		resumeLog = l
		cache = NewMeasuredSet()
		cache.AddLog(l)
	}
	if recordTo == "" {
		return nil, cache, nil, nil
	}
	existing := resumeLog
	if recordTo != resumeFrom {
		l, err := LoadFile(recordTo)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("measure: record to %s: %w", recordTo, err)
		}
		existing = l
	}
	f, err := os.OpenFile(recordTo, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("measure: record to %s: %w", recordTo, err)
	}
	rec := NewRecorder(f)
	rec.MarkSeen(existing)
	return rec, cache, f, nil
}
