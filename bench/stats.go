package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks; vals need not be sorted. 0 for
// an empty slice.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// quartiles returns (q1, median, q3) the way Python's
// statistics.quantiles(vals, n=4) does (exclusive method), which is the
// rule the acceptance spread is defined by. Fewer than two values give
// that value three times.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based ranks, clamped like CPython.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j)*4
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// geomean of strictly positive values; 0 when there are none.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// sample is one completed op of the measured phase.
type sample struct {
	// end is the op's completion time, measured from the phase start.
	end time.Duration
	// ms is the op's latency in milliseconds.
	ms float64
	// work is the number of work items the op completed (trials,
	// programs, requests).
	work int
}

// opStats are the timing metrics of one measured phase.
type opStats struct {
	workPerS, p50, p95 float64
}

// blockStats aggregates a measured phase robustly: the ops, in order of
// completion, are cut into `blocks` consecutive groups of equal count;
// throughput (work over the group's wall-clock span) and the latency
// percentiles are computed per group, and the best group is reported
// for each. On a shared box other tenants slow some stretches of a run
// down and never speed one up, so the best stretch is the closest a run
// gets to the program's own speed, and it repeats where the mean or the
// median stretch does not. Fewer ops than blocks make one group per op.
func blockStats(samples []sample, blocks int) opStats {
	s := append([]sample(nil), samples...)
	sort.SliceStable(s, func(a, b int) bool { return s[a].end < s[b].end })
	if blocks > len(s) {
		blocks = len(s)
	}
	var best opStats
	for b := 0; b < blocks; b++ {
		group := s[b*len(s)/blocks : (b+1)*len(s)/blocks]
		ms := make([]float64, len(group))
		work := 0
		first := group[0].end // earliest start in the group
		for i, x := range group {
			ms[i] = x.ms
			work += x.work
			if start := x.end - time.Duration(x.ms*1e6); start < first {
				first = start
			}
		}
		span := group[len(group)-1].end - first
		st := opStats{workPerS: float64(work) / span.Seconds(), p50: percentile(ms, 50), p95: percentile(ms, 95)}
		if b == 0 {
			best = st
			continue
		}
		best.workPerS = math.Max(best.workPerS, st.workPerS)
		best.p50 = math.Min(best.p50, st.p50)
		best.p95 = math.Min(best.p95, st.p95)
	}
	return best
}
