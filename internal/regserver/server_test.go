package regserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/registry"
)

// rec builds a minimal valid record; steps stay synthetic JSON (the
// server stores them verbatim and never replays) but are unique per
// measured time — as in real logs, where a different time implies a
// different program.
func rec(task, target, dag string, seconds float64) measure.Record {
	return measure.Record{
		Task: task, Target: target, DAG: dag,
		Steps:   json.RawMessage(fmt.Sprintf(`[{"n":%q}]`, fmt.Sprintf("%s-%s-%g", task, dag, seconds))),
		Seconds: seconds, Noiseless: seconds,
	}
}

func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := New(nil)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, NewClient(hs.URL)
}

func TestRegServerEndpoints(t *testing.T) {
	srv, cl := newTestServer(t)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	// Add: improving, non-improving, tie.
	if ok, err := cl.Add(rec("gmm", "cpu", "d1", 2.0)); err != nil || !ok {
		t.Fatalf("first add: ok=%v err=%v", ok, err)
	}
	if ok, err := cl.Add(rec("gmm", "cpu", "d1", 3.0)); err != nil || ok {
		t.Fatalf("slower add should not improve: ok=%v err=%v", ok, err)
	}
	if ok, err := cl.Add(rec("gmm", "cpu", "d1", 2.0)); err != nil || ok {
		t.Fatalf("tie should keep incumbent: ok=%v err=%v", ok, err)
	}
	if ok, err := cl.Add(rec("gmm", "cpu", "d1", 1.0)); err != nil || !ok {
		t.Fatalf("faster add must improve: ok=%v err=%v", ok, err)
	}
	// Invalid records are ignored like registry.Add ignores them.
	if ok, err := cl.Add(rec("", "cpu", "d1", 1.0)); err != nil || ok {
		t.Fatalf("empty-task add: ok=%v err=%v", ok, err)
	}

	// Best: exact, miss, and a target-less record under its exact key only.
	best, ok, err := cl.Best("gmm", "cpu", "d1")
	if err != nil || !ok || best.Seconds != 1.0 {
		t.Fatalf("best: %+v ok=%v err=%v", best, ok, err)
	}
	if _, ok, err := cl.Best("gmm", "gpu", "d9"); err != nil || ok {
		t.Fatalf("miss should be ok=false without error, got ok=%v err=%v", ok, err)
	}
	if _, err := cl.Add(rec("legacy-op", "", "", 0.5)); err != nil {
		t.Fatal(err)
	}
	if r, ok, err := cl.Best("legacy-op", "", ""); err != nil || !ok || r.Seconds != 0.5 {
		t.Fatalf("target-less record: %+v ok=%v err=%v", r, ok, err)
	}
	if r, ok, err := cl.Best("legacy-op", "any-target", "anydag"); err != nil || ok {
		t.Fatalf("target-less record served for another key: %+v ok=%v err=%v", r, ok, err)
	}

	// Snapshot equals the in-process registry.
	snap, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRegistry(t, srv.Registry(), snap)

	// AddLog: another registry's best set uploads as one record batch.
	other := registry.New()
	other.Add(rec("gmm", "cpu", "d1", 0.25)) // improves
	other.Add(rec("conv", "gpu", "d2", 4.0)) // new key
	if n, err := cl.AddLog(other.Log()); err != nil || n != 2 {
		t.Fatalf("add log: n=%d err=%v", n, err)
	}
	if r, _, _ := cl.Best("gmm", "cpu", "d1"); r.Seconds != 0.25 {
		t.Fatalf("add log did not improve gmm: %+v", r)
	}
}

func TestRegServerHTTPErrors(t *testing.T) {
	srv, cl := newTestServer(t)
	base := cl.base
	good := `{"task":"op","target":"cpu","dag":"d","steps":[],"seconds":1}` + "\n"

	for _, c := range []struct {
		method, path string
		body         string
		wantCode     int
		wantBody     string // substring of the response, when set
	}{
		{"POST", "/v1/best", "", http.StatusMethodNotAllowed, ""},
		{"GET", "/v1/keys", "", http.StatusNotFound, ""},
		{"POST", "/v1/snapshot", "", http.StatusMethodNotAllowed, ""},
		{"GET", "/v1/metrics", "", http.StatusNotFound, ""}, // metrics is unversioned, like healthz
		{"POST", "/metrics", "", http.StatusMethodNotAllowed, ""},
		{"GET", "/v1/best", "", http.StatusBadRequest, ""},             // missing workload
		{"GET", "/v1/records?limit=-3", "", http.StatusBadRequest, ""}, // bad limit
		{"GET", "/v1/records?limit=x", "", http.StatusBadRequest, ""},
		{"POST", "/v1/records", "{not json", http.StatusBadRequest, ""},
		{"POST", "/v1/records", `{"bogus":1}`, http.StatusBadRequest, "not a record"},
		// One record per JSON value: the single-object form is refused,
		// also behind a good record.
		{"POST", "/v1/records", `{"records":[` + strings.TrimSpace(good) + `]}`, http.StatusBadRequest, "not a record"},
		{"POST", "/v1/records", good + `{"records":[]}`, http.StatusBadRequest, "not a record"},
		{"GET", "/nope", "", http.StatusNotFound, ""},
	} {
		req, err := http.NewRequest(c.method, base+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.wantCode || !strings.Contains(string(body), c.wantBody) {
			t.Errorf("%s %s: got %d %s, want %d %q", c.method, c.path, resp.StatusCode, body, c.wantCode, c.wantBody)
		}
	}
	// A refused body is refused whole: the good record ahead of the bad
	// value was not applied.
	if n := srv.Registry().Len(); n != 0 {
		t.Errorf("refused uploads left %d keys behind", n)
	}
}

// TestRegServerDurability covers the store lifecycle: append-on-accept,
// crash recovery from the appended lines, snapshot compaction, and
// reopen after Close.
func TestRegServerDurability(t *testing.T) {
	store := filepath.Join(t.TempDir(), "registry.json")
	srv, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	cl := NewClient(hs.URL)
	for i := 4; i >= 1; i-- { // improving sequence: 4 appended lines
		if _, err := cl.Add(rec("op", "cpu", "d", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Add(rec("op", "cpu", "d", 9)); err != nil { // not improving: not appended
		t.Fatal(err)
	}
	hs.Close()

	// Crash (no Close, no Snapshot): the appended lines alone must
	// rebuild the registry.
	crashed, err := registry.LoadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if best, ok := crashed.Best("op", "cpu", "d"); !ok || best.Seconds != 1 {
		t.Fatalf("append-durable store lost the best record: %+v ok=%v", best, ok)
	}
	if l, _ := measure.LoadFile(store); len(l.Records) != 4 {
		t.Fatalf("store should hold the 4 improving records, got %d", len(l.Records))
	}

	// Snapshot compacts to the best set and stays appendable.
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if l, _ := measure.LoadFile(store); len(l.Records) != 1 {
		t.Fatalf("snapshot should compact to 1 record, got %d", len(l.Records))
	}
	if ok, err := srv.addDurably(rec("op2", "cpu", "d", 7)); err != nil || !ok {
		t.Fatalf("addDurably: ok=%v err=%v", ok, err)
	}
	if err := srv.Close(); err != nil { // final snapshot
		t.Fatal(err)
	}
	reopened, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Registry().Len() != 2 {
		t.Fatalf("reopened store: want 2 keys, got %d", reopened.Registry().Len())
	}
	assertSameRegistry(t, srv.Registry(), reopened.Registry())
}

// TestRegServerConcurrentPublishers is the race-focused service test: N
// goroutines publish interleaved record streams while M goroutines
// hammer Best/Records/Snapshot reads. The final registry
// must equal the sequential merge of everything published — concurrency
// may reorder arrivals but never change the per-key minimum.
func TestRegServerConcurrentPublishers(t *testing.T) {
	srv, cl := newTestServer(t)

	const publishers = 8
	const readers = 4
	const perPublisher = 50

	// Deterministic interleaved streams: publisher p offers records for
	// tasks p%4 with times that interleave across publishers.
	record := func(p, i int) measure.Record {
		task := fmt.Sprintf("task%d", p%4)
		secs := float64(1+(i*7+p*13)%100) / 10
		return rec(task, "cpu", fmt.Sprintf("dag%d", p%2), secs)
	}

	var pubWG, readWG sync.WaitGroup
	errs := make(chan error, publishers+readers)
	done := make(chan struct{})
	for m := 0; m < readers; m++ {
		readWG.Add(1)
		go func(m int) {
			defer readWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, _, err := cl.Best(fmt.Sprintf("task%d", m%4), "cpu", "dag0"); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Records(fmt.Sprintf("task%d", m%4), "cpu", 0); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Snapshot(); err != nil {
					errs <- err
					return
				}
			}
		}(m)
	}
	for p := 0; p < publishers; p++ {
		pubWG.Add(1)
		go func(p int) {
			defer pubWG.Done()
			w := measure.NewRecorder(nil)
			w.Tee(cl.BatchWriter(4, time.Millisecond))
			for i := 0; i < perPublisher; i++ {
				if _, err := w.Record(record(p, i)); err != nil {
					errs <- err
					return
				}
			}
			if err := w.Close(); err != nil { // flushes the tail
				errs <- err
			}
		}(p)
	}
	pubWG.Wait()
	close(done)
	readWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Sequential merge: every record offered, in any order, must land on
	// the same per-key best (Add keeps the strict minimum).
	want := registry.New()
	for p := 0; p < publishers; p++ {
		for i := 0; i < perPublisher; i++ {
			want.Add(record(p, i))
		}
	}
	assertSameRegistry(t, want, srv.Registry())

	// And the same holds over the wire.
	snap, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	assertSameRegistry(t, want, snap)
}

// assertSameRegistry requires identical keys and bit-identical best
// records (times and steps) in both registries.
func assertSameRegistry(t *testing.T, want, got *registry.Registry) {
	t.Helper()
	if !reflect.DeepEqual(want.Keys(), got.Keys()) {
		t.Fatalf("keys diverged:\nwant %v\n got %v", want.Keys(), got.Keys())
	}
	for _, k := range want.Keys() {
		a, _ := want.Best(k.Workload, k.Target, k.DAG)
		b, _ := got.Best(k.Workload, k.Target, k.DAG)
		if a.Seconds != b.Seconds || a.Noiseless != b.Noiseless ||
			!bytes.Equal(a.Steps, b.Steps) || a.Sig != b.Sig {
			t.Fatalf("entry %v diverged:\nwant %+v\n got %+v", k, a, b)
		}
	}
}

// TestClientKeepsItsConnection: answers whose body the client has no use
// for — a registry miss's JSON error, a health check, a refused publish,
// an accepted one's trailing newline — must not cost the keep-alive
// connection; the body is drained before it is closed. One connection
// serves the whole conversation.
func TestClientKeepsItsConnection(t *testing.T) {
	var dials atomic.Int64
	srv := New(nil)
	srv.AuthToken = "s3cret"
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()
	// A transport of its own, shared by a tokenless client and one with
	// the token in its URL: the test counts the transport's connections.
	cl := NewClient(hs.URL)
	cl.hc.Transport = &http.Transport{}
	authed := NewClient("http://:s3cret@" + hs.Listener.Addr().String())
	authed.hc.Transport = cl.hc.Transport
	for i := 0; i < 20; i++ {
		if _, ok, err := cl.Best("nosuch", "cpu", "dag"); ok || err != nil {
			t.Fatalf("miss %d: ok=%v err=%v", i, ok, err)
		}
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Add(rec("t", "cpu", "dag", float64(100-i))); err == nil {
			t.Fatal("tokenless publish should be refused")
		}
		if _, err := authed.Add(rec("t", "cpu", "dag", float64(100-i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("%d connections opened for one sequential client, want 1", n)
	}
}
