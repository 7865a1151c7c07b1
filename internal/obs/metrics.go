package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. Updates are single
// atomic adds; consistency between *different* counters is provided by
// Registry.Atomically / Registry.Snapshot.
type Counter struct{ v atomic.Int64 }

// Add adds n (callers keep counters monotone; nothing enforces it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that goes up and down (queue depths, ages, values
// mirrored from other subsystems at scrape time).
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default latency buckets (seconds), spanning
// sub-millisecond phase timings through minute-scale rounds.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram counts observations into fixed upper-bound buckets
// (le-semantics: bucket i counts v <= Bounds[i], plus an implicit +Inf
// overflow bucket). Observe is two atomic adds and an atomic float
// accumulate — cheap enough for per-phase timings on the search path.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// HistSnapshot is one histogram's state at snapshot time.
type HistSnapshot struct {
	// Bounds are the upper bounds; Counts[i] is the count of
	// observations <= Bounds[i] exclusive of lower buckets (per-bucket,
	// not cumulative). Counts has one extra entry: the +Inf bucket.
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot is a point-in-time copy of a registry. Values updated
// inside Registry.Atomically are mutually consistent in any snapshot.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistSnapshot
}

// Registry is a named set of counters, gauges, and histograms with
// get-or-create lookup and consistent snapshots.
//
// The consistency contract: updates that must never be observed torn
// apart (e.g. records_offered and records_improved, where a scrape
// showing improved > offered is a lie) run inside Atomically; Snapshot
// excludes all Atomically blocks, so it sees each pair entirely or not
// at all. Plain Counter.Add calls stay lock-free and may land on
// either side of a snapshot individually.
type Registry struct {
	snap sync.RWMutex // Atomically holds R, Snapshot holds W

	mu       sync.Mutex // guards the maps below
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// upper bounds (nil = DefBuckets) on first use. An existing histogram
// keeps its original bounds regardless of the argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Atomically runs fn so that no Snapshot splits its updates: every
// snapshot sees all of fn's effects or none of them. Independent
// Atomically blocks may interleave with each other (it is a read-lock,
// not a global serialization), so keep unrelated updates in separate
// blocks.
func (r *Registry) Atomically(fn func()) {
	r.snap.RLock()
	defer r.snap.RUnlock()
	fn()
}

// Snapshot copies the registry's current values. It excludes all
// in-flight Atomically blocks, giving cross-metric consistency for
// paired updates.
func (r *Registry) Snapshot() Snapshot {
	r.snap.Lock()
	defer r.snap.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{
			Bounds: h.bounds,
			Counts: make([]int64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sum.Load()),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}
