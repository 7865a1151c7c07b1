package regserver

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/registry"
)

// getBest issues a raw /v1/best GET with an optional If-None-Match,
// returning status, body, and the ETag header.
func getBest(t *testing.T, base, workload, target, dag, inm string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest("GET",
		base+"/v1/best?workload="+workload+"&target="+target+"&dag="+dag, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("ETag")
}

// TestBestETagLifecycle walks the full validator lifecycle at the HTTP
// level: 200 with a strong ETag, 304 on revalidation, a new ETag
// exactly when the answer improves, and 200 again for the new body.
func TestBestETagLifecycle(t *testing.T) {
	srv, cl := newTestServer(t)
	base := cl.base
	if _, err := cl.Add(rec("op", "cpu", "d", 2.0)); err != nil {
		t.Fatal(err)
	}

	code, body, etag := getBest(t, base, "op", "cpu", "d", "")
	if code != http.StatusOK || etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("first GET: code=%d etag=%q", code, etag)
	}
	if !strings.HasSuffix(body, "\n") {
		t.Fatal("body must keep the trailing newline json.Encoder served")
	}

	// Revalidation with the current tag: bodyless 304, same tag.
	code, body304, etag2 := getBest(t, base, "op", "cpu", "d", etag)
	if code != http.StatusNotModified || body304 != "" || etag2 != etag {
		t.Fatalf("revalidate: code=%d body=%q etag=%q", code, body304, etag2)
	}
	// A list of candidates containing the tag also matches, as does "*".
	if code, _, _ := getBest(t, base, "op", "cpu", "d", `"zzz", `+etag); code != http.StatusNotModified {
		t.Fatalf("list revalidate: code=%d", code)
	}
	if code, _, _ := getBest(t, base, "op", "cpu", "d", "*"); code != http.StatusNotModified {
		t.Fatalf("star revalidate: code=%d", code)
	}

	// A non-improving publish must not change the validator.
	if _, err := cl.Add(rec("op", "cpu", "d", 3.0)); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := getBest(t, base, "op", "cpu", "d", etag); code != http.StatusNotModified {
		t.Fatalf("validator must survive a rejected publish, code=%d", code)
	}

	// An improving publish changes the validator: the stale tag now gets
	// a fresh 200 with the new body and a new tag.
	if _, err := cl.Add(rec("op", "cpu", "d", 1.0)); err != nil {
		t.Fatal(err)
	}
	code, newBody, newTag := getBest(t, base, "op", "cpu", "d", etag)
	if code != http.StatusOK || newTag == etag || newBody == body {
		t.Fatalf("improvement must invalidate: code=%d tag=%q", code, newTag)
	}
	if !strings.Contains(newBody, `"seconds":1`) {
		t.Fatalf("new body should hold the improved record: %s", newBody)
	}

	m := srv.metrics()
	if m.BestNotModified < 3 || m.BestMisses < 2 || m.BestHits < 1 {
		t.Errorf("lifecycle counters off: %+v", m)
	}

	// A key is exactly (workload, target, dag). A target-less record of
	// the same workload is served under ("", "") and is a 404 for any
	// other target; improving it changes its own validator and leaves
	// op/cpu/d's cached answer in place.
	if _, err := cl.Add(rec("op", "", "", 2.0)); err != nil {
		t.Fatal(err)
	}
	code, _, bareTag := getBest(t, base, "op", "", "", "")
	if code != http.StatusOK {
		t.Fatalf("target-less record under its exact key: code=%d", code)
	}
	if code, body, _ := getBest(t, base, "op", "gpu", "d9", ""); code != http.StatusNotFound {
		t.Fatalf("another target of the workload: code=%d body=%s, want 404", code, body)
	}
	if _, err := cl.Add(rec("op", "", "", 0.5)); err != nil {
		t.Fatal(err)
	}
	if code, body, tag := getBest(t, base, "op", "", "", bareTag); code != http.StatusOK || tag == bareTag || !strings.Contains(body, `"seconds":0.5`) {
		t.Fatalf("improved target-less record: code=%d tag=%q body=%s", code, tag, body)
	}
	hits := srv.metrics().BestHits
	if code, _, _ := getBest(t, base, "op", "cpu", "d", newTag); code != http.StatusNotModified || srv.metrics().BestHits != hits+1 {
		t.Fatalf("improving another key of the workload must leave this one cached: code=%d hits %d -> %d",
			code, hits, srv.metrics().BestHits)
	}
}

// TestBestCacheServesExactBytes: the cached body equals a fresh marshal
// byte for byte (cold miss vs warm hit), and a disabled cache still
// serves correct ETags.
func TestBestCacheServesExactBytes(t *testing.T) {
	srv, cl := newTestServer(t)
	base := cl.base
	if _, err := cl.Add(rec("op", "cpu", "d", 2.0)); err != nil {
		t.Fatal(err)
	}
	_, cold, etagCold := getBest(t, base, "op", "cpu", "d", "") // miss: fills
	_, warm, etagWarm := getBest(t, base, "op", "cpu", "d", "") // hit
	if cold != warm || etagCold != etagWarm {
		t.Fatal("warm hit must serve the exact bytes of the cold miss")
	}
	if srv.metrics().BestHits == 0 {
		t.Fatal("second GET should be a cache hit")
	}

	srv.SetBestCache(0) // disable
	_, nocache, etagNo := getBest(t, base, "op", "cpu", "d", "")
	if nocache != cold || etagNo != etagCold {
		t.Fatal("uncached serving must produce identical bytes and tag")
	}
	if code, _, _ := getBest(t, base, "op", "cpu", "d", etagNo); code != http.StatusNotModified {
		t.Fatal("conditional GET must work without the cache")
	}
}

// TestBestParamsParity: the hand-rolled /v1/best query parser agrees
// with the generic url.Values parser on every input — escapes and
// oddities included (those take the fallback).
func TestBestParamsParity(t *testing.T) {
	for _, raw := range []string{
		"workload=GMM.s1&target=intel-xeon&dag=abc123",
		"dag=abc&workload=w&target=t",              // any order
		"workload=w",                               // missing params
		"workload=&target=t&dag=d",                 // empty value
		"workload=a&workload=b",                    // duplicate: first wins
		"workload=w%2Fx&target=t&dag=d",            // escaped: fallback
		"workload=a+b&target=t&dag=d",              // plus-as-space: fallback
		"workload=w;target=t",                      // semicolon: fallback
		"other=1&workload=w&workloadx=no&dag=d",    // prefix key must not match
		"target=t&dag=d",                           // no workload at all
		"workload",                                 // no '=' at all
		"workload=w&target=GPU%20A100&dag=f%3D%3D", // realistic escapes
	} {
		req := httptest.NewRequest("GET", "/v1/best?"+raw, nil)
		w, tgt, d := bestParams(req)
		q := req.URL.Query()
		if w != q.Get("workload") || tgt != q.Get("target") || d != q.Get("dag") {
			t.Errorf("query %q: bestParams=(%q,%q,%q), url.Values=(%q,%q,%q)",
				raw, w, tgt, d, q.Get("workload"), q.Get("target"), q.Get("dag"))
		}
	}
}

// TestRespCacheVersionedFill: a fill computed at a stale registry
// version is dropped, closing the read-marshal-insert race with
// publishers.
func TestRespCacheVersionedFill(t *testing.T) {
	reg := registry.New()
	c := newRespCache(4, reg.Version)
	reg.Add(rec("op", "cpu", "d", 2.0))
	v := reg.Version()

	// A fill from before a mutation must be rejected...
	reg.Add(rec("op", "cpu", "d", 1.0))
	c.put(cacheKey{"op", "cpu", "d"}, []byte("stale"), `"s"`, v)
	if _, _, ok := c.get(cacheKey{"op", "cpu", "d"}); ok {
		t.Fatal("stale fill must not be inserted")
	}
	// ...and a current fill accepted.
	c.put(cacheKey{"op", "cpu", "d"}, []byte("fresh"), `"f"`, reg.Version())
	if body, _, ok := c.get(cacheKey{"op", "cpu", "d"}); !ok || string(body) != "fresh" {
		t.Fatal("current fill must be inserted")
	}
}

// TestRespCacheLRUBound: the cache evicts least-recently-used entries
// past its capacity and counts the evictions.
func TestRespCacheLRUBound(t *testing.T) {
	reg := registry.New()
	c := newRespCache(2, reg.Version)
	v := reg.Version()
	c.put(cacheKey{"a", "", ""}, []byte("a"), `"a"`, v)
	c.put(cacheKey{"b", "", ""}, []byte("b"), `"b"`, v)
	c.get(cacheKey{"a", "", ""}) // a is now more recent than b
	c.put(cacheKey{"c", "", ""}, []byte("c"), `"c"`, v)
	if _, _, ok := c.get(cacheKey{"b", "", ""}); ok {
		t.Fatal("LRU entry b should have been evicted")
	}
	if _, _, ok := c.get(cacheKey{"a", "", ""}); !ok {
		t.Fatal("recently used entry a should survive")
	}
	if c.evictions.Load() != 1 || c.len() != 2 {
		t.Fatalf("evictions=%d len=%d, want 1 and 2", c.evictions.Load(), c.len())
	}
}

// TestClientValidatorCache: the high-level client transparently rides
// conditional GETs — repeat Best calls revalidate with 304s and still
// return the full answer.
func TestClientValidatorCache(t *testing.T) {
	srv, cl := newTestServer(t)
	if _, err := cl.Add(rec("op", "cpu", "d", 2.0)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		best, ok, err := cl.Best("op", "cpu", "d")
		if err != nil || !ok || best.Seconds != 2.0 {
			t.Fatalf("Best #%d: %+v ok=%v err=%v", i, best, ok, err)
		}
	}
	if srv.metrics().BestNotModified < 2 {
		t.Fatalf("repeat Best should revalidate: %+v", srv.metrics())
	}
	// The cached decode stays correct after an improvement.
	if _, err := cl.Add(rec("op", "cpu", "d", 1.0)); err != nil {
		t.Fatal(err)
	}
	if best, _, err := cl.Best("op", "cpu", "d"); err != nil || best.Seconds != 1.0 {
		t.Fatalf("post-improvement Best: %+v err=%v", best, err)
	}
}
