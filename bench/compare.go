package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// endToEndDef declares one end-to-end metric: BENCHMARK.json lists the
// same names, units, directions and bounds (a unit test keeps the two in
// step). bound is the share of the base's median by which the metric may
// get worse before compare calls it a regression, and also how wide the
// run-to-run spread may be before a row counts as unresolved. The bounds
// are three times the widest spread seen on the 2-core reference box
// (README.md, "Baseline"), capped at the 25 % the driver allows; only
// the allocation count repeats well enough for less.
type endToEndDef struct {
	name, unit, better string
	bound              float64
}

var endToEnd = []endToEndDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p95", "ms", "lower", 0.25},
	{"alloc_kb_per_work", "KiB", "lower", 0.15},
	{"program_latency_us", "us", "lower", 0.25},
}

// runSet is the untraced runs of one --out file, by workload.
type runSet struct {
	values            map[string]map[string][]float64 // workload -> metric -> one value per run
	attempted, failed map[string]int
}

func loadRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Traced {
			continue
		}
		if rs.values[rec.Workload] == nil {
			rs.values[rec.Workload] = map[string][]float64{}
		}
		for name, mv := range rec.Metrics {
			rs.values[rec.Workload][name] = append(rs.values[rec.Workload][name], mv.Value)
		}
		rs.attempted[rec.Workload] += rec.Attempted
		rs.failed[rec.Workload] += rec.Failed
	}
	return rs, sc.Err()
}

func (rs *runSet) failShare(w string) float64 {
	if rs.attempted[w] == 0 {
		return 0
	}
	return float64(rs.failed[w]) / float64(rs.attempted[w])
}

// verdict classifies one workload × metric row. worse is the change of
// the median in the metric's bad direction, as a share of the base's
// median; spreads are interquartile distances over the median.
func verdict(worse, baseSpread, newSpread, bound float64) string {
	switch {
	case worse > bound:
		return "worse"
	case baseSpread > bound || newSpread > bound:
		return "unresolved"
	case -worse > baseSpread:
		return "better"
	}
	return "same"
}

// runCompare implements --compare. With one file it reports each
// metric's median, quartiles and spread against the bound; with two it
// adds the new file's and a verdict per row, and returns non-zero when a
// row is worse or a workload's share of failed ops rose.
func runCompare(paths []string, w io.Writer) int {
	if len(paths) < 1 || len(paths) > 2 {
		fmt.Fprintln(w, "usage: --compare base.jsonl [new.jsonl]")
		return 2
	}
	var sets []*runSet
	for _, p := range paths {
		rs, err := loadRuns(p)
		if err != nil {
			fmt.Fprintln(w, "compare:", err)
			return 2
		}
		sets = append(sets, rs)
	}
	base := sets[0]
	var names []string
	for n := range base.values {
		names = append(names, n)
	}
	sort.Strings(names)
	bad := 0
	for _, wl := range names {
		fmt.Fprintf(w, "%s: %d runs, failed ops %d/%d\n", wl, len(base.values[wl]["setup_s"]), base.failed[wl], base.attempted[wl])
		for _, def := range endToEnd {
			a := base.values[wl][def.name]
			q1, med, q3 := quartiles(a)
			fmt.Fprintf(w, "  %-20s %-4s base %12.6g [%12.6g %12.6g] spread %5.1f%% bound %3.0f%%",
				def.name, def.unit, med, q1, q3, 100*spread(a), 100*def.bound)
			if len(sets) == 1 {
				fmt.Fprintln(w)
				continue
			}
			b := sets[1].values[wl][def.name]
			if len(b) == 0 {
				fmt.Fprintln(w, "  (not in new)")
				continue
			}
			nq1, nmed, nq3 := quartiles(b)
			worse := (nmed - med) / med
			if def.better == "higher" {
				worse = -worse
			}
			v := verdict(worse, spread(a), spread(b), def.bound)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(w, "  new %12.6g [%12.6g %12.6g] spread %5.1f%%  new/base %.4f  %s\n",
				nmed, nq1, nq3, 100*spread(b), nmed/med, v)
		}
		if len(sets) == 2 && sets[1].failShare(wl) > base.failShare(wl) {
			fmt.Fprintf(w, "  failed ops rose: %d/%d -> %d/%d\n", base.failed[wl], base.attempted[wl], sets[1].failed[wl], sets[1].attempted[wl])
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", bad)
		return 1
	}
	return 0
}
