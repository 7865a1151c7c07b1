package regserver

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMetricsPrometheusExposition: the registry server's /metrics/prom
// renders the same obs snapshot as the JSON payload in the Prometheus
// text exposition format (obs's tests lint that format). The JSON
// payload keeps its documented fields from the same snapshot, so the two
// encodings can never disagree.
func TestMetricsPrometheusExposition(t *testing.T) {
	srv, cl := newTestServer(t)
	for _, seconds := range []float64{1.0, 0.5} {
		if _, err := cl.Add(rec("gmm", "cpu-a", "d1", seconds)); err != nil {
			t.Fatal(err)
		}
	}

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics/prom: %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("/metrics/prom Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	if want := "# TYPE ansor_registry_records_offered counter\nansor_registry_records_offered 2\n"; !strings.Contains(string(body), want) {
		t.Errorf("/metrics/prom lacks %q:\n%s", want, body)
	}

	// The plain JSON encoding is untouched by the Prometheus form and
	// still reflects the publishes above.
	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Keys != 1 || m.RecordsOffered != 2 || m.RecordsImproved != 2 {
		t.Errorf("JSON metrics = %+v, want 1 key, 2 offered, 2 improved", m)
	}
}
