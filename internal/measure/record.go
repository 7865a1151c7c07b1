package measure

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/ir"
	"repro/internal/te"
)

// Record is one persisted measurement: the task it belongs to, the
// target machine it was measured on, the program's rewriting steps
// (which fully determine it, §5.1), its canonical signature, and the
// measured time. Records are the durable tuning log — the equivalent of
// TVM's measure records — so a finished search can be replayed without
// re-measuring, warm-start a cost model, or serve a best schedule from
// the registry. Its bytes are a record line (codec.go); the struct tags
// name the same keys for encoding/json, which reads every other layout.
type Record struct {
	// Task is the workload key the program was tuned for (e.g. "GMM.s1"
	// or a network task name).
	Task string `json:"task"`
	// Target names the machine model the time was measured on
	// (sim.Machine.Name). NewRecord always stamps it; a record without
	// one is filed under the empty name, a target like any other.
	Target string `json:"target,omitempty"`
	// Sig is the program's structural signature (ir.State.Signature),
	// recorded for inspection and search-level dedupe. The measured-set
	// keys on DAG+Steps — the exact program identity — not on Sig.
	Sig string `json:"sig,omitempty"`
	// DAG fingerprints the computation the steps rewrite
	// (DAGFingerprint): one task name can cover several shapes (e.g. the
	// batch variants of a workload), and a cache serve is only valid for
	// the exact computation that was measured.
	DAG   string          `json:"dag,omitempty"`
	Steps json.RawMessage `json:"steps"`
	// Seconds is the measured time including the deterministic
	// per-program noise.
	Seconds float64 `json:"seconds"`
	// Noiseless is the machine model's exact time: derivable from
	// Seconds only up to float rounding, so it is stored.
	Noiseless float64 `json:"noiseless,omitempty"`
}

// NewRecord builds the durable record of one successful measurement.
func NewRecord(task, target string, r Result) (Record, error) {
	if r.Err != nil || r.Seconds <= 0 {
		return Record{}, fmt.Errorf("measure: cannot record failed measurement")
	}
	steps := r.EncSteps
	if steps == nil {
		var err error
		if steps, err = ir.EncodeSteps(r.State.Steps); err != nil {
			return Record{}, err
		}
	}
	return Record{
		Task:      task,
		Target:    target,
		Sig:       r.State.Signature(),
		DAG:       DAGFingerprint(r.State.DAG),
		Steps:     steps,
		Seconds:   r.Seconds,
		Noiseless: r.NoiselessSeconds,
	}, nil
}

// dagFPs memoizes fingerprints per DAG pointer: DAGs are immutable once
// built, and the measurement hot path fingerprints the same task DAG
// for every candidate.
var dagFPs sync.Map // *te.DAG -> string

// DAGFingerprint canonically identifies a computation: a hash of the
// DAG's rendered structure (nodes, loop extents, reads), so records of
// different shapes sharing one task name never serve each other.
func DAGFingerprint(d *te.DAG) string {
	if fp, ok := dagFPs.Load(d); ok {
		return fp.(string)
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(d.String()))
	fp := fmt.Sprintf("%016x", h.Sum64())
	dagFPs.Store(d, fp)
	return fp
}

// Log is an append-only collection of records.
type Log struct {
	Records []Record
}

// Add appends a successful measurement to the log.
func (l *Log) Add(task, target string, r Result) error {
	rec, err := NewRecord(task, target, r)
	if err != nil {
		return err
	}
	l.Records = append(l.Records, rec)
	return nil
}

// AddAll appends every successful result of a batch and returns how many
// were recorded plus the first encoding error encountered (failed
// measurements are skipped silently — they carry no program to record).
func (l *Log) AddAll(task, target string, rs []Result) (int, error) {
	var n int
	var first error
	for _, r := range rs {
		if r.Err != nil || r.Seconds <= 0 {
			continue
		}
		if err := l.Add(task, target, r); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		n++
	}
	return n, first
}

// Compact bounds an append-only log for long-lived deployments: per
// (task, target, dag) group it keeps the topK fastest records plus a
// deterministic training-representative sample of up to topK more,
// spread evenly across the remainder's time distribution — warm-started
// cost models need slow programs as negative examples, so keeping only
// winners would bias every model trained from a compacted log. Within a
// group, records order by (Seconds, canonical steps), and groups by
// first appearance, so compaction is a pure function of the log's
// contents: compacting the same records always yields the same bytes.
// The original log is untouched; duplicates (same steps, same time) are
// collapsed.
func (l *Log) Compact(topK int) *Log {
	if topK <= 0 {
		topK = 1
	}
	type groupKey struct{ task, target, dag string }
	groups := map[groupKey][]Record{}
	var order []groupKey
	for _, rec := range l.Records {
		k := groupKey{rec.Task, rec.Target, rec.DAG}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], rec)
	}
	out := &Log{}
	for _, k := range order {
		recs := groups[k]
		sort.SliceStable(recs, func(a, b int) bool {
			if recs[a].Seconds != recs[b].Seconds {
				return recs[a].Seconds < recs[b].Seconds
			}
			return string(recs[a].Steps) < string(recs[b].Steps)
		})
		// Collapse exact duplicates (a resumed run's log can repeat a
		// legacy record that predates recorder dedupe).
		var uniq []Record
		for _, rec := range recs {
			if n := len(uniq); n > 0 && rec.Seconds == uniq[n-1].Seconds && string(rec.Steps) == string(uniq[n-1].Steps) {
				continue
			}
			uniq = append(uniq, rec)
		}
		recs = uniq
		n := topK
		if n > len(recs) {
			n = len(recs)
		}
		out.Records = append(out.Records, recs[:n]...)
		rest := recs[n:]
		if len(rest) == 0 {
			continue
		}
		// Evenly spaced quantile sample of the tail, slowest included.
		sample := topK
		if sample > len(rest) {
			sample = len(rest)
		}
		prev := -1
		for i := 0; i < sample; i++ {
			j := len(rest) - 1
			if sample > 1 {
				j = i * (len(rest) - 1) / (sample - 1)
			}
			if j == prev {
				continue
			}
			prev = j
			out.Records = append(out.Records, rest[j])
		}
	}
	return out
}

// Replay rebuilds the record's program on the given DAG, on the heap.
func (rec Record) Replay(dag *te.DAG) (*ir.State, error) {
	return (*ir.Arena)(nil).ReplayEncoded(dag, rec.Steps)
}
