package regserver

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/measure"
)

// TestBatchWriterFlushesByCountAndClose: records reach the server once
// the count threshold fires, and the tail is flushed by Close.
func TestBatchWriterFlushesByCountAndClose(t *testing.T) {
	srv, cl := newTestServer(t)
	w := cl.BatchWriter(3, time.Hour) // interval effectively disabled
	rec1 := measure.NewRecorder(nil)
	rec1.Tee(w)

	for i := 0; i < 3; i++ {
		if _, err := rec1.Record(rec("op", "cpu", "d", float64(9-i))); err != nil {
			t.Fatal(err)
		}
	}
	// The count flush is asynchronous; give the flusher a moment.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Registry().Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if best, ok := srv.Registry().Best("op", "cpu", "d"); !ok || best.Seconds != 7 {
		t.Fatalf("count-triggered flush missing: %+v ok=%v", best, ok)
	}

	// One more record stays buffered below the threshold until Close.
	if _, err := rec1.Record(rec("op", "cpu", "d", 1)); err != nil {
		t.Fatal(err)
	}
	if err := rec1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if best, ok := srv.Registry().Best("op", "cpu", "d"); !ok || best.Seconds != 1 {
		t.Fatalf("close did not flush the tail: %+v ok=%v", best, ok)
	}
}

// TestBatchWriterIntervalFlush: with a tiny interval, records arrive
// without ever hitting the count threshold.
func TestBatchWriterIntervalFlush(t *testing.T) {
	srv, cl := newTestServer(t)
	w := cl.BatchWriter(1000, 20*time.Millisecond)
	defer w.Close()
	if _, err := w.Write([]byte(mustLine(t, rec("op", "cpu", "d", 2)))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Registry().Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Registry().Len() != 1 {
		t.Fatal("interval flush never happened")
	}
}

func mustLine(t *testing.T, r measure.Record) string {
	t.Helper()
	var buf bytes.Buffer
	if err := (&measure.Log{Records: []measure.Record{r}}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBatchWriterSurvivesHungServer is the hot-path regression of the
// batched publisher: a server that accepts connections and then hangs
// must not block Record calls or starve the recorder's primary log
// sink (the synchronous writer serialized every record on a network
// round trip; the batch writer may only ever pay buffer appends).
func TestBatchWriterSurvivesHungServer(t *testing.T) {
	block := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
			return
		}
		<-block // hang every publish
	}))
	defer func() { close(block); hs.Close() }()

	cl := NewClient(hs.URL).WithTimeout(50 * time.Millisecond)
	var file bytes.Buffer
	rec1 := measure.NewRecorder(&file)
	rec1.Tee(cl.BatchWriter(2, 10*time.Millisecond))

	start := time.Now()
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := rec1.Record(rec("op", "cpu", "d", float64(n-i))); err != nil {
			// The latched tee error may surface mid-run; the primary sink
			// must keep recording regardless.
			continue
		}
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("recording blocked on the hung server: %v for %d records", el, n)
	}
	rec1.Close()

	// Every record reached the durable log.
	l, err := measure.Load(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) != n {
		t.Fatalf("hung server starved the local log: %d/%d records", len(l.Records), n)
	}
}

// TestBatchWriter500Server: a server that 500s every publish latches
// one error through Close without disturbing the primary sink — the
// batched companion of the PR 3 latched-sink regression test.
func TestBatchWriter500Server(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusInternalServerError, "store is sick")
	}))
	defer hs.Close()

	var file bytes.Buffer
	rec1 := measure.NewRecorder(&file)
	rec1.Tee(NewClient(hs.URL).BatchWriter(1, time.Hour))
	for i := 0; i < 4; i++ {
		rec1.Record(rec("op", "cpu", "d", float64(4-i)))
	}
	err := rec1.Close()
	if err == nil {
		t.Fatal("500ing server must latch an error through Close")
	}
	l, _ := measure.Load(bytes.NewReader(file.Bytes()))
	if len(l.Records) != 4 {
		t.Fatalf("500ing server starved the local log: %d/4 records", len(l.Records))
	}
}

// TestBatchWriterRetriesOnce: one transient failure is absorbed by the
// retry; the batch still lands and no error latches.
func TestBatchWriterRetriesOnce(t *testing.T) {
	srv := New(nil)
	var fails int
	failFirst := true
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failFirst {
			failFirst = false
			fails++
			WriteError(w, http.StatusInternalServerError, "transient")
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer hs.Close()

	w := NewClient(hs.URL).BatchWriter(1, time.Hour)
	if _, err := w.Write([]byte(mustLine(t, rec("op", "cpu", "d", 3)))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("retry should have absorbed the transient failure: %v", err)
	}
	if fails != 1 || srv.Registry().Len() != 1 {
		t.Fatalf("fails=%d keys=%d, want 1/1", fails, srv.Registry().Len())
	}
}

// TestRecordsQueryAndMetrics: the task-filtered query endpoint and the
// health metrics.
func TestRecordsQueryAndMetrics(t *testing.T) {
	srv, cl := newTestServer(t)
	seed := []measure.Record{
		rec("gmm", "cpu-a", "d1", 1.0),
		rec("gmm", "cpu-b", "d1", 2.0),
		rec("gmm", "cpu-a", "d2", 3.0),
		rec("conv", "cpu-a", "d3", 4.0),
	}
	for _, r := range seed {
		if _, err := cl.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	cl.Add(rec("gmm", "cpu-a", "d1", 5.0)) // non-improving

	cases := []struct {
		workload, target string
		limit, want      int
	}{
		{"gmm", "", 0, 3},
		{"gmm", "cpu-a", 0, 2},
		{"", "cpu-a", 0, 3},
		{"", "", 0, 4},
		{"gmm", "", 2, 2},
		{"nope", "", 0, 0},
	}
	for _, c := range cases {
		l, err := cl.Records(c.workload, c.target, c.limit)
		if err != nil {
			t.Fatalf("records(%q,%q,%d): %v", c.workload, c.target, c.limit, err)
		}
		if len(l.Records) != c.want {
			t.Errorf("records(%q,%q,%d): got %d, want %d", c.workload, c.target, c.limit, len(l.Records), c.want)
		}
		for _, r := range l.Records {
			if c.workload != "" && r.Task != c.workload {
				t.Errorf("query leaked foreign workload %q", r.Task)
			}
			if c.target != "" && r.Target != c.target {
				t.Errorf("query leaked foreign target %q", r.Target)
			}
		}
	}

	// The query serves the registry's best verbatim: same bytes as the
	// in-process registry's own view of the key.
	l, err := cl.Records("gmm", "cpu-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := srv.Registry().Query("gmm", "cpu-a", 0)
	var got, exp bytes.Buffer
	if err := l.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&exp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Error("served query records diverge from the in-process registry")
	}

	m, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Keys != 4 {
		t.Errorf("metrics keys = %d, want 4", m.Keys)
	}
	if m.RecordsOffered != 5 || m.RecordsImproved != 4 {
		t.Errorf("metrics counters offered=%d improved=%d, want 5/4", m.RecordsOffered, m.RecordsImproved)
	}
	if m.SnapshotAgeSeconds != -1 {
		t.Errorf("in-memory server should report snapshot age -1, got %g", m.SnapshotAgeSeconds)
	}
	if m.StoreBytes != 0 {
		t.Errorf("in-memory server should report 0 store bytes, got %d", m.StoreBytes)
	}
	if m.UptimeSeconds < 0 {
		t.Errorf("uptime %g", m.UptimeSeconds)
	}
}

// TestMetricsWithStore: snapshot age and store size reflect the durable
// store lifecycle.
func TestMetricsWithStore(t *testing.T) {
	store := t.TempDir() + "/registry.json"
	srv, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := NewClient(hs.URL)

	if _, err := cl.Add(rec("op", "cpu", "d", 1)); err != nil {
		t.Fatal(err)
	}
	m, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.StoreBytes <= 0 {
		t.Errorf("store bytes = %d after an accepted publish", m.StoreBytes)
	}
	if m.SnapshotAgeSeconds != -1 {
		t.Errorf("snapshot age should be -1 before the first snapshot, got %g", m.SnapshotAgeSeconds)
	}
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if m, err = cl.Metrics(); err != nil {
		t.Fatal(err)
	}
	if m.SnapshotAgeSeconds < 0 {
		t.Errorf("snapshot age should be >= 0 after a snapshot, got %g", m.SnapshotAgeSeconds)
	}
}
