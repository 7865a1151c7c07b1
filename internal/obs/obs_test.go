package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	r.Counter("a").Add(4)
	r.Gauge("g").Set(-1)
	r.Gauge("g").Set(2.5)
	h := r.Histogram("h", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if s.Counters["a"] != 5 {
		t.Errorf("counter a = %d, want 5", s.Counters["a"])
	}
	if s.Gauges["g"] != 2.5 {
		t.Errorf("gauge g = %g, want 2.5", s.Gauges["g"])
	}
	hs := s.Histograms["h"]
	if want := []int64{1, 1, 1, 1}; len(hs.Counts) != 4 ||
		hs.Counts[0] != want[0] || hs.Counts[1] != want[1] || hs.Counts[2] != want[2] || hs.Counts[3] != want[3] {
		t.Errorf("histogram counts = %v, want %v", hs.Counts, want)
	}
	if hs.Count != 4 || hs.Sum != 5.555 {
		t.Errorf("histogram count/sum = %d/%g, want 4/5.555", hs.Count, hs.Sum)
	}
	// Boundary value lands in its own bucket (le semantics).
	h.Observe(0.01)
	if got := r.Snapshot().Histograms["h"].Counts[0]; got != 2 {
		t.Errorf("le=0.01 bucket = %d after boundary observe, want 2", got)
	}
}

// TestSnapshotPairConsistency is the regserver offered/improved bug in
// miniature: two counters updated as a pair through Atomically must
// never be observed torn apart, no matter how the snapshots interleave
// with concurrent publishers.
func TestSnapshotPairConsistency(t *testing.T) {
	r := NewRegistry()
	offered, improved := r.Counter("offered"), r.Counter("improved")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Atomically(func() {
					offered.Add(3)
					improved.Add(3) // improved never exceeds offered in any consistent view
				})
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		if s.Counters["improved"] > s.Counters["offered"] {
			t.Fatalf("snapshot %d tore a pair: improved %d > offered %d",
				i, s.Counters["improved"], s.Counters["offered"])
		}
	}
	close(stop)
	wg.Wait()
}

func TestStreamSinkWritesJSONLAndDrops(t *testing.T) {
	var buf bytes.Buffer
	s := NewStreamSink(&buf, 4)
	o := New(s, nil)
	o.Clock = FakeClock(time.Unix(1700000000, 0), time.Millisecond)
	o.Emit(Event{Type: EvRoundStart, Task: "mm", Round: 1})
	o.Emit(Event{Type: EvRoundEnd, Task: "mm", Round: 1, Seconds: 0.5})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.V != Version || e.Type != EvRoundStart || e.TS != "2023-11-14T22:13:20Z" {
		t.Errorf("decoded %+v", e)
	}
	// Post-close emits drop silently.
	o.Emit(Event{Type: EvRoundStart})
	if s.Dropped() == 0 {
		t.Error("post-close emit was not counted as dropped")
	}
}

// TestStreamSinkNeverBlocks pins the no-backpressure contract: with a
// writer that never makes progress, emits beyond the buffer drop
// instead of stalling the caller.
func TestStreamSinkNeverBlocks(t *testing.T) {
	block := make(chan struct{})
	s := NewStreamSink(blockingWriter{block}, 2)
	defer close(block)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s.Emit(Event{Type: EvPhase, Round: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a stuck writer")
	}
	if s.Dropped() == 0 {
		t.Error("expected drops with a stuck writer")
	}
}

type blockingWriter struct{ ch chan struct{} }

func (w blockingWriter) Write(p []byte) (int, error) {
	<-w.ch
	return len(p), nil
}

func TestNilObserverSafe(t *testing.T) {
	var o *Observer
	o.Emit(Event{Type: EvPhase})
	o.Observe("x", 1)
	if !o.Now().IsZero() {
		t.Error("nil observer Now() not zero")
	}
	_ = o.SinceSeconds(time.Time{})
	// Partly-nil observers are fine too.
	New(nil, nil).Emit(Event{Type: EvPhase})
	New(nil, NewRegistry()).Observe("x", 1)
}

func TestEventFieldOrderStable(t *testing.T) {
	e := Event{V: 1, TS: "t", Type: "phase", Task: "mm", Round: 2, Phase: "sketch", DurMS: 1.5}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"v":1,"ts":"t","type":"phase","task":"mm","round":2,"phase":"sketch","dur_ms":1.5}`
	if string(b) != want {
		t.Errorf("field order drifted:\ngot  %s\nwant %s", b, want)
	}
}

func TestOpenSink(t *testing.T) {
	if s, err := OpenSink(""); err != nil || s != nil {
		t.Fatalf("OpenSink(\"\") = %v, %v; want nil, nil", s, err)
	}
	path := t.TempDir() + "/events.jsonl"
	s, err := OpenSink(path)
	if err != nil {
		t.Fatal(err)
	}
	New(s, nil).Emit(Event{Type: EvTaskStart, Task: "mm"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A second open appends rather than truncating.
	s, err = OpenSink(path)
	if err != nil {
		t.Fatal(err)
	}
	New(s, nil).Emit(Event{Type: EvTaskEnd, Task: "mm"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines after two appends, want 2", len(lines))
	}
}

func TestFakeClock(t *testing.T) {
	c := FakeClock(time.Unix(0, 0), time.Second)
	if !c().Equal(time.Unix(0, 0)) || !c().Equal(time.Unix(1, 0)) {
		t.Error("fake clock did not step deterministically")
	}
}
