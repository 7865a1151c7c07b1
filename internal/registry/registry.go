// Package registry maintains the best recorded schedule per
// (workload, target): the serving side of the persistence layer. A
// production auto-scheduler answers most queries from logs accumulated
// by past searches ("apply history best" in TVM terms) instead of
// re-searching; this package turns tuning logs into that database —
// load/save of log files and zero-trial replay of the best entry.
//
// The store is sharded by key hash (power-of-two shard count, FNV-1a
// over the key fields), so concurrent readers and publishers contend
// per shard instead of on one lock — the serve path of a shared
// registry server scales with cores. Sharding is invisible in every
// output: Keys, Query, Log and the snapshot bytes merge shards
// deterministically, so a registry at any shard count is bit-identical
// to the single-shard one (see DESIGN.md, "Serve path at scale").
package registry

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/measure"
	"repro/internal/te"
)

// DefaultShards is the shard count New uses: enough to spread a
// many-core server's read traffic, cheap enough that tiny in-process
// registries don't notice.
const DefaultShards = 16

// Key identifies one registry entry. One task name legitimately covers
// several computation shapes (e.g. batch variants), whose schedules and
// times are not interchangeable — so the DAG fingerprint is part of the
// key, and serving never hands one shape's record to another.
type Key struct {
	// Workload is the task name the schedule was tuned for.
	Workload string
	// Target is the machine model name it was measured on. A record
	// without target or DAG fingerprint is stored under ("", "") and
	// served for exactly that key, like any other.
	Target string
	// DAG is the computation fingerprint (measure.DAGFingerprint).
	DAG string
}

// less is the canonical key order every merged output uses.
func (k Key) less(o Key) bool {
	if k.Workload != o.Workload {
		return k.Workload < o.Workload
	}
	if k.Target != o.Target {
		return k.Target < o.Target
	}
	return k.DAG < o.DAG
}

// shard is one lock domain of the store.
type shard struct {
	mu   sync.RWMutex
	best map[Key]measure.Record
}

// Registry holds the fastest record seen per key. It is safe for
// concurrent use.
type Registry struct {
	shards []shard
	mask   uint64

	// version counts accepted adds. The registry service uses it as a
	// cheap change validator for query/snapshot ETags: an unchanged
	// version guarantees unchanged contents.
	version atomic.Uint64
	size    atomic.Int64

	// NotifyChange, when non-nil, is called after every accepted Add —
	// the one mutation that can change a served answer — with the
	// affected key, outside the shard locks. The registry service hooks
	// its encoded-response cache invalidation here. Set before
	// concurrent use.
	NotifyChange func(Key)
}

// New returns an empty registry with DefaultShards shards.
func New() *Registry { return NewSharded(DefaultShards) }

// NewSharded returns an empty registry with the given shard count,
// rounded up to a power of two (minimum 1). All shard counts produce
// bit-identical Keys/Query/Log/snapshot output; the count only changes
// how many concurrent writers and readers proceed without contention.
func NewSharded(n int) *Registry {
	p := 1
	for p < n {
		p <<= 1
	}
	r := &Registry{shards: make([]shard, p), mask: uint64(p - 1)}
	for i := range r.shards {
		r.shards[i].best = map[Key]measure.Record{}
	}
	return r
}

// shardFor hashes the key fields (FNV-1a, NUL-separated) onto a shard.
func (r *Registry) shardFor(k Key) *shard {
	h := fnv.New64a()
	h.Write([]byte(k.Workload))
	h.Write([]byte{0})
	h.Write([]byte(k.Target))
	h.Write([]byte{0})
	h.Write([]byte(k.DAG))
	return &r.shards[h.Sum64()&r.mask]
}

// accepts reports whether a record is valid registry material at all.
// Shared by Add and Improves, which must never drift apart: the
// registry service persists exactly the records Add accepts.
func accepts(rec measure.Record) bool {
	return rec.Task != "" && rec.Seconds > 0
}

// beats reports whether the challenger strictly improves on the
// incumbent (ties keep the incumbent).
func beats(incumbent, challenger measure.Record) bool {
	return challenger.Seconds < incumbent.Seconds
}

// Add offers one record; it is kept only if it beats the current best
// for its key. Reports whether the entry improved.
func (r *Registry) Add(rec measure.Record) bool {
	if !accepts(rec) {
		return false
	}
	k := Key{rec.Task, rec.Target, rec.DAG}
	sh := r.shardFor(k)
	sh.mu.Lock()
	cur, existed := sh.best[k]
	if existed && !beats(cur, rec) {
		sh.mu.Unlock()
		return false
	}
	sh.best[k] = rec
	sh.mu.Unlock()
	if !existed {
		r.size.Add(1)
	}
	r.version.Add(1)
	if r.NotifyChange != nil {
		r.NotifyChange(k)
	}
	return true
}

// Version returns the mutation counter: it changes whenever an Add is
// accepted, so an unchanged version proves every served answer is
// unchanged too.
func (r *Registry) Version() uint64 { return r.version.Load() }

// Improves reports whether Add would accept the record: a valid record
// strictly better than the current best for its key. Callers that need
// check-then-act atomicity (e.g. persist-before-add durability) must
// serialize their writers externally.
func (r *Registry) Improves(rec measure.Record) bool {
	if !accepts(rec) {
		return false
	}
	k := Key{rec.Task, rec.Target, rec.DAG}
	sh := r.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	cur, ok := sh.best[k]
	return !ok || beats(cur, rec)
}

// AddLog offers every record of a log and returns how many improved a
// key.
func (r *Registry) AddLog(l *measure.Log) int {
	n := 0
	for _, rec := range l.Records {
		if r.Add(rec) {
			n++
		}
	}
	return n
}

// Best returns the fastest record for the workload's exact computation
// (DAG fingerprint) on the target. A record of a different shape or
// target of the same task name is never returned: its schedule and time
// do not transfer. A read-locked lookup that writes nothing.
func (r *Registry) Best(workload, target, dag string) (measure.Record, bool) {
	k := Key{workload, target, dag}
	sh := r.shardFor(k)
	sh.mu.RLock()
	rec, ok := sh.best[k]
	sh.mu.RUnlock()
	return rec, ok
}

// BestFor is Best keyed by the computation itself.
func (r *Registry) BestFor(workload, target string, dag *te.DAG) (measure.Record, bool) {
	return r.Best(workload, target, measure.DAGFingerprint(dag))
}

// Len returns the number of keys with a best entry.
func (r *Registry) Len() int {
	return int(r.size.Load())
}

// Keys returns every key, sorted for deterministic iteration: the
// shard merge is a full collect-then-sort, so the output is identical
// at any shard count.
func (r *Registry) Keys() []Key {
	out := make([]Key, 0, r.Len())
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for k := range sh.best {
			out = append(out, k)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// Query returns the best records whose key matches the filters, in Keys
// order (deterministic), capped at limit when limit > 0. An empty
// workload or target matches every value — so ("GMM.s1", "", 0) returns
// the workload's best record on every target the fleet has measured.
//
// The scan is a single pass: each shard is snapshotted once under its
// read lock, only the matching records are collected, and only those
// are sorted — no full key sort, no per-key re-locking.
func (r *Registry) Query(workload, target string, limit int) *measure.Log {
	type hit struct {
		k   Key
		rec measure.Record
	}
	var hits []hit
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for k, rec := range sh.best {
			if workload != "" && k.Workload != workload {
				continue
			}
			if target != "" && k.Target != target {
				continue
			}
			hits = append(hits, hit{k, rec})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].k.less(hits[j].k) })
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	l := &measure.Log{}
	for _, h := range hits {
		l.Records = append(l.Records, h.rec)
	}
	return l
}

// Log snapshots the registry as a log of best records in Keys order, so
// Save output is deterministic and re-loadable anywhere logs are.
func (r *Registry) Log() *measure.Log {
	return r.Query("", "", 0)
}

// SaveFile writes the registry's best records to path (line-oriented,
// the same format as tuning logs).
func (r *Registry) SaveFile(path string) error {
	return r.Log().SaveFile(path)
}

// LoadFile builds a registry from a tuning log or registry file. A
// missing file yields an empty registry.
func LoadFile(path string) (*Registry, error) {
	l, err := measure.LoadFile(path)
	if err != nil {
		return nil, err
	}
	r := New()
	r.AddLog(l)
	return r, nil
}
