// Cross-target transfer primitives: target distance classification and
// per-target-pair time calibration. They live in measure (not warm)
// because more than warm start needs them: warm start calibrates and
// discounts sibling history with them, the registry server fits pooled
// calibrations over its whole record log, and the fleet broker uses
// distance alone to decide near-sibling dispatch (a sibling times a
// program on the job target's own model, so no fleet time is ever
// calibrated).
package measure

import (
	"sort"
	"strings"
)

// Target-distance weight schedule: full weight natively, halved for a
// sibling vector ISA of the same core, quartered across vendors within
// a hardware class. An uncalibrated transfer (no overlapping pairs to
// fit a time scale from) is halved once more — its times are raw
// foreign-clock readings.
const (
	WeightSibling      = 0.5
	WeightSameClass    = 0.25
	UncalibratedFactor = 0.5
)

// TargetDistance classifies how transferable tuning records are between
// two machine-model names:
//
//	0 — same target: records replay natively.
//	1 — same core, different vector ISA (intel-20c-avx2 ↔ avx512).
//	2 — same hardware class (both CPUs): structure transfers, times
//	    need calibration.
//	3 — different class (CPU ↔ GPU): no transfer; the search spaces
//	    differ structurally (§4's sketch rules are per-class).
func TargetDistance(a, b string) int {
	if a == b {
		return 0
	}
	if isGPU(a) != isGPU(b) {
		return 3
	}
	if family(a) == family(b) {
		return 1
	}
	return 2
}

// isGPU classifies a machine-model name (sim names GPUs by vendor).
func isGPU(name string) bool {
	return strings.HasPrefix(name, "nvidia") || strings.Contains(name, "gpu")
}

// family strips the trailing variant component: intel-20c-avx2 and
// intel-20c-avx512 are both family intel-20c.
func family(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		return name[:i]
	}
	return name
}

// Calibration holds per-sibling-target linear time scales into one
// native target's clock. The fields are exported (and JSON-tagged) so
// a registry server can serve a fleet-pooled calibration from
// /v1/calibration and clients can apply it without refitting.
type Calibration struct {
	Target string `json:"target"`
	// Scales maps sibling target -> multiplier from that target's clock
	// onto the native one.
	Scales map[string]float64 `json:"scales,omitempty"`
	// Pairs counts the (workload, dag) overlap pairs each scale was fit
	// from — a confidence signal (more pairs, better fit).
	Pairs map[string]int `json:"pairs,omitempty"`
}

// Scale returns the fitted multiplier for a sibling target and whether
// one could be fit.
func (c *Calibration) Scale(sibling string) (float64, bool) {
	if c == nil {
		return 0, false
	}
	s, ok := c.Scales[sibling]
	return s, ok
}

// Merge overlays scales from other for sibling targets this calibration
// has none for. Locally-fit scales win: the caller's own overlap pairs
// are measured on its exact workload, while other (typically a pooled
// fleet calibration) aggregates every workload.
func (c *Calibration) Merge(other *Calibration) {
	if c == nil || other == nil || other.Target != c.Target {
		return
	}
	for sib, s := range other.Scales {
		if _, ok := c.Scales[sib]; ok {
			continue
		}
		if c.Scales == nil {
			c.Scales = map[string]float64{}
		}
		c.Scales[sib] = s
		if n, ok := other.Pairs[sib]; ok {
			if c.Pairs == nil {
				c.Pairs = map[string]int{}
			}
			c.Pairs[sib] = n
		}
	}
}

// FitCalibration fits, for every non-native target in refs, the
// least-squares through-origin linear map from that target's times to
// the native target's, using the best times of (workload, dag) pairs
// both targets have measured. A single throughput ratio per target pair
// is the coarsest useful model — and the only one a handful of overlap
// pairs can support; it is also exactly what "machine A runs this class
// of programs k× faster" means. Records with no native overlap partner
// contribute nothing; targets with no overlap at all get no scale (the
// caller discounts them instead). Summation order is canonical (sorted
// pair keys), so the fit is a pure function of the record multiset —
// float-sum order never leaks into the scales.
func FitCalibration(refs []Record, target string) *Calibration {
	type pairKey struct{ task, dag string }
	nativeBest := map[pairKey]float64{}
	sibBest := map[string]map[pairKey]float64{}
	for _, rec := range refs {
		if rec.Seconds <= 0 || rec.Task == "" {
			continue
		}
		k := pairKey{rec.Task, rec.DAG}
		if rec.Target == target {
			if cur, ok := nativeBest[k]; !ok || rec.Seconds < cur {
				nativeBest[k] = rec.Seconds
			}
			continue
		}
		m := sibBest[rec.Target]
		if m == nil {
			m = map[pairKey]float64{}
			sibBest[rec.Target] = m
		}
		if cur, ok := m[k]; !ok || rec.Seconds < cur {
			m[k] = rec.Seconds
		}
	}
	cal := &Calibration{Target: target, Scales: map[string]float64{}, Pairs: map[string]int{}}
	for sib, m := range sibBest {
		keys := make([]pairKey, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].task != keys[b].task {
				return keys[a].task < keys[b].task
			}
			return keys[a].dag < keys[b].dag
		})
		var sxx, sxy float64
		pairs := 0
		for _, k := range keys {
			if y, ok := nativeBest[k]; ok {
				x := m[k]
				sxx += x * x
				sxy += x * y
				pairs++
			}
		}
		if sxx > 0 && sxy > 0 {
			cal.Scales[sib] = sxy / sxx
			cal.Pairs[sib] = pairs
		}
	}
	return cal
}
