package obs

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestWritePrometheusLints renders a snapshot shaped like the broker's,
// the registry server's and the worker's — counters, gauges, histograms
// on DefBuckets and on custom bounds, and a name promName sanitises —
// and holds it to the exposition-format lint below.
func TestWritePrometheusLints(t *testing.T) {
	r := NewRegistry()
	r.Counter("jobs_submitted").Add(12)
	r.Counter("records_offered").Add(2)
	r.Counter("programs_measured").Add(0)
	r.Gauge("uptime_seconds").Set(3.25)
	r.Gauge("snapshot_age_seconds").Set(-1)
	r.Gauge("quarantined").Set(1)
	h := r.Histogram("lease_wait_seconds", nil)
	h.Observe(0.002)
	h.Observe(0.3)
	h.Observe(120) // lands in +Inf
	c := r.Histogram("train_seconds", []float64{1, 0.1, 10})
	c.Observe(0.05)
	c.Observe(1)
	r.Histogram("phase.sketch-gen", nil).Observe(0.01)
	var buf bytes.Buffer
	WritePrometheus(&buf, "ansor_test", r.Snapshot())
	out := buf.String()
	for _, want := range []string{
		"# TYPE ansor_test_jobs_submitted counter\nansor_test_jobs_submitted 12\n",
		"ansor_test_programs_measured 0\n",
		"# TYPE ansor_test_uptime_seconds gauge\nansor_test_uptime_seconds 3.25\n",
		"ansor_test_snapshot_age_seconds -1\n",
		`ansor_test_lease_wait_seconds_bucket{le="+Inf"} 3`,
		"ansor_test_lease_wait_seconds_count 3",
		`ansor_test_train_seconds_bucket{le="0.1"} 1` + "\n" + `ansor_test_train_seconds_bucket{le="1"} 2`,
		"# TYPE ansor_test_phase_sketch_gen histogram\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
	if err := lintPrometheus(buf.Bytes()); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
}

func TestLintPrometheusRejectsMalformed(t *testing.T) {
	for name, text := range map[string]string{
		"undeclared":     "foo 1\n",
		"bad value":      "# TYPE foo counter\nfoo abc\n",
		"bad name":       "# TYPE foo counter\n1foo 3\n",
		"non-cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing inf":    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n",
	} {
		if err := lintPrometheus([]byte(text)); err == nil {
			t.Errorf("%s: lint accepted malformed input %q", name, text)
		}
	}
}

var (
	promTypeLine   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	promHelpLine   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	promSampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$`)
	promLabelPart  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
)

// lintPrometheus checks that b parses as the text exposition format:
// well-formed TYPE/HELP comments and sample lines, every sample's base
// metric declared by a preceding TYPE, histogram buckets cumulative
// with a "+Inf" bucket matching _count.
func lintPrometheus(b []byte) error {
	types := map[string]string{}
	buckets := map[string][]struct {
		le  float64
		cum int64
	}{}
	counts := map[string]int64{}
	hasInf := map[string]bool{}

	for ln, line := range strings.Split(string(b), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := promTypeLine.FindStringSubmatch(line); m != nil {
				if _, dup := types[m[1]]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", ln+1, m[1])
				}
				types[m[1]] = m[2]
				continue
			}
			if promHelpLine.MatchString(line) {
				continue
			}
			return fmt.Errorf("line %d: malformed comment %q", ln+1, line)
		}
		m := promSampleLine.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample %q", ln+1, line)
		}
		name, labels, value := m[1], m[2], m[3]
		if labels != "" {
			for _, part := range strings.Split(strings.Trim(labels, "{}"), ",") {
				if !promLabelPart.MatchString(part) {
					return fmt.Errorf("line %d: malformed label %q", ln+1, part)
				}
			}
		}
		v, err := parsePromValue(value)
		if err != nil {
			return fmt.Errorf("line %d: %v", ln+1, err)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		typ, declared := types[base]
		if !declared {
			if typ, declared = types[name]; !declared {
				return fmt.Errorf("line %d: sample %s has no TYPE declaration", ln+1, name)
			}
			base = name
		}
		if typ == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, err := parsePromLE(labels)
				if err != nil {
					return fmt.Errorf("line %d: %v", ln+1, err)
				}
				bs := buckets[base]
				if len(bs) > 0 && (le <= bs[len(bs)-1].le || int64(v) < bs[len(bs)-1].cum) {
					return fmt.Errorf("line %d: histogram %s buckets not cumulative/ascending", ln+1, base)
				}
				buckets[base] = append(bs, struct {
					le  float64
					cum int64
				}{le, int64(v)})
				if math.IsInf(le, 1) {
					hasInf[base] = true
				}
			case strings.HasSuffix(name, "_count"):
				counts[base] = int64(v)
			}
		}
	}
	for name, typ := range types {
		if typ != "histogram" {
			continue
		}
		if !hasInf[name] {
			return fmt.Errorf("histogram %s: missing le=\"+Inf\" bucket", name)
		}
		bs := buckets[name]
		if inf := bs[len(bs)-1].cum; inf != counts[name] {
			return fmt.Errorf("histogram %s: +Inf bucket %d != _count %d", name, inf, counts[name])
		}
	}
	return nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	return v, nil
}

func parsePromLE(labels string) (float64, error) {
	for _, part := range strings.Split(strings.Trim(labels, "{}"), ",") {
		if le, ok := strings.CutPrefix(part, `le="`); ok {
			return parsePromValue(strings.TrimSuffix(le, `"`))
		}
	}
	return 0, fmt.Errorf("bucket sample without le label: %q", labels)
}
