package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
)

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4), metric names sorted for stable output. Each
// name is prefixed (e.g. "ansor_broker") and sanitized to the legal
// charset. Histograms render cumulative le-buckets plus _sum/_count.
func WritePrometheus(w io.Writer, prefix string, s Snapshot) {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := promName(prefix, name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name])
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := promName(prefix, name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, promFloat(s.Gauges[name]))
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		n := promName(prefix, name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", n)
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, promFloat(b), cum)
		}
		cum += h.Counts[len(h.Bounds)]
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, cum)
		fmt.Fprintf(w, "%s_sum %s\n", n, promFloat(h.Sum))
		fmt.Fprintf(w, "%s_count %d\n", n, h.Count)
	}
}

var promBadRune = regexp.MustCompile(`[^a-zA-Z0-9_:]`)

func promName(prefix, name string) string {
	n := name
	if prefix != "" {
		n = prefix + "_" + name
	}
	return promBadRune.ReplaceAllString(n, "_")
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
