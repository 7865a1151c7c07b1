// Package obs is the unified observability layer: a named metrics
// registry (counters, gauges, fixed-bucket latency histograms) with
// consistent snapshots and Prometheus text exposition, plus a typed,
// versioned JSONL event stream narrating tuning runs (DESIGN.md,
// "Observability").
//
// Two rules make it safe to wire through the search path:
//
//   - No backpressure. Event sinks are bounded and drop-on-full; an
//     Emit never blocks a search round, and a run with events enabled
//     is bit-identical to one without (pinned by tests in ansor/).
//   - Injected clocks. Wall-clock enters events and histograms only
//     through Observer.Clock, so tests pin timestamps and production
//     code defaults to time.Now. Nothing in the search consumes these
//     times; they are narration, not inputs.
package obs

import (
	"sync"
	"time"
)

// Observer bundles the two observability channels a subsystem needs:
// an event sink and a metrics registry, with the clock that timestamps
// both. Any field may be nil and every method is nil-receiver-safe, so
// call sites need no guards; a nil *Observer is "observability off".
type Observer struct {
	// Events receives lifecycle events; nil drops them.
	Events Sink
	// Metrics hosts the histograms fed by Observe; nil drops them.
	Metrics *Registry
	// Clock supplies wall-clock time (nil = time.Now). Events carry its
	// readings as timestamps; the search never reads them back.
	Clock func() time.Time
}

// New returns an Observer over the given sink and registry (either may
// be nil) with the real clock.
func New(events Sink, metrics *Registry) *Observer {
	return &Observer{Events: events, Metrics: metrics}
}

// Now reads the observer's clock. A nil observer returns the zero
// time; the durations derived from it are then zero too, which the
// nil-safe Observe path drops anyway.
func (o *Observer) Now() time.Time {
	if o == nil {
		return time.Time{}
	}
	if o.Clock != nil {
		return o.Clock()
	}
	return time.Now()
}

// SinceSeconds returns the clock time elapsed since t0, in seconds.
func (o *Observer) SinceSeconds(t0 time.Time) float64 {
	if o == nil {
		return 0
	}
	return o.Now().Sub(t0).Seconds()
}

// Emit stamps e with the schema version and the clock's timestamp
// (unless the caller set one) and forwards it to the sink. Non-blocking
// and nil-safe.
func (o *Observer) Emit(e Event) {
	if o == nil || o.Events == nil {
		return
	}
	e.V = Version
	if e.TS == "" {
		e.TS = o.Now().UTC().Format(time.RFC3339Nano)
	}
	o.Events.Emit(e)
}

// Observe records a duration (seconds) in the named histogram of the
// observer's registry, creating it with DefBuckets on first use.
func (o *Observer) Observe(name string, seconds float64) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Histogram(name, nil).Observe(seconds)
}

// Add adds n to the named counter of the observer's registry, creating
// it on first use.
func (o *Observer) Add(name string, n int64) {
	if o == nil || o.Metrics == nil {
		return
	}
	o.Metrics.Counter(name).Add(n)
}

// Count adds one to the named counter.
func (o *Observer) Count(name string) { o.Add(name, 1) }

// FakeClock returns a deterministic clock for tests: the first call
// yields start, and every call advances it by step. Safe for
// concurrent use.
func FakeClock(start time.Time, step time.Duration) func() time.Time {
	var mu sync.Mutex
	next := start
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t := next
		next = next.Add(step)
		return t
	}
}
