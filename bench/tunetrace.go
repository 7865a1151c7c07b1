package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// tuneTrace turns the event streams of traced tune ops into spans
// (op → round → phase) and the policy/sched/xgb/warm/obs metrics. The
// events come from the observer passed through the public
// TuningOptions.Observer; the op span is the benchmark's own stopwatch
// around the call.
type tuneTrace struct {
	tr   trace
	base time.Time
	ops  []int // span ids of the op roots

	events int
	// improvedRounds counts rounds that found at least one new best.
	improvedRounds int
	waves          int
	waveWidth      int
	trainings      int
	refits         int
	trainMS        []float64
	warmRecords    int
}

func newTuneTrace(base time.Time) *tuneTrace { return &tuneTrace{base: base} }

func (tt *tuneTrace) ns(t time.Time) int64 { return int64(t.Sub(tt.base)) }

// addOp folds one op's events in. A phase event is the child of the
// round (task, round number) open when it was emitted; one emitted
// outside every round — the warm-start model fit runs before round 1 —
// is a child of the op.
func (tt *tuneTrace) addOp(op int, start, end time.Time, events []obs.Event) {
	root := tt.tr.add(-1, op, "op", tt.ns(start), tt.ns(end))
	tt.ops = append(tt.ops, root)
	tt.events += len(events)
	open := map[string]int{}      // task#round -> span id of the open round
	improved := map[string]bool{} // rounds that reported a new best
	for _, e := range events {
		ts, err := time.Parse(time.RFC3339Nano, e.TS)
		if err != nil {
			continue // an event without a readable timestamp carries no span
		}
		at := tt.ns(ts)
		key := fmt.Sprintf("%s#%d", e.Task, e.Round)
		switch e.Type {
		case obs.EvRoundStart:
			open[key] = tt.tr.add(root, op, "round", at, at)
		case obs.EvRoundEnd:
			if id, ok := open[key]; ok {
				tt.tr.spans[id].End = at
				delete(open, key)
			}
		case obs.EvPhase:
			parent := root
			if id, ok := open[key]; ok {
				parent = id
			}
			tt.tr.add(parent, op, "phase:"+e.Phase, at-int64(e.DurMS*1e6), at)
			if e.Phase == "train" {
				tt.trainMS = append(tt.trainMS, e.DurMS)
			}
		case obs.EvModelTrained:
			tt.trainings++
			if e.Detail == "refit" {
				tt.refits++
			}
		case obs.EvBestImproved:
			if _, ok := open[key]; ok { // warm-start absorption reports bests before round 1
				improved[key] = true
			}
		case obs.EvWaveScheduled:
			tt.waves++
			tt.waveWidth += e.Count
		case obs.EvWarmStart:
			tt.warmRecords += e.Count
		}
	}
	tt.improvedRounds += len(improved)
	for _, id := range open { // a round the op ended inside of
		tt.tr.spans[id].End = tt.ns(end)
	}
}

// metrics reports the shares of summed round time (phases by name plus
// the rounds' self time, which close to 1) and the counts per op.
func (tt *tuneTrace) metrics() map[string]float64 {
	m := map[string]float64{}
	nOps := float64(len(tt.ops))
	if nOps == 0 {
		return m
	}
	var roundMS []float64
	var roundSum, roundSelf, opWall, opUncovered int64
	phaseSum := map[string]int64{}
	for _, root := range tt.ops {
		opWall += tt.tr.spans[root].dur()
		var rounds [][2]int64
		for _, c := range tt.tr.children(root) {
			s := tt.tr.spans[c]
			if s.Name != "round" {
				continue
			}
			rounds = append(rounds, [2]int64{s.Start, s.End})
			roundMS = append(roundMS, float64(s.dur())/1e6)
			roundSum += s.dur()
			roundSelf += tt.tr.selfTime(c)
			for _, p := range tt.tr.children(c) {
				phaseSum[strings.TrimPrefix(tt.tr.spans[p].Name, "phase:")] += tt.tr.spans[p].dur()
			}
		}
		opUncovered += tt.tr.spans[root].dur() - unionLen(rounds)
	}
	nRounds := float64(len(roundMS))
	m["policy.rounds_per_op"] = nRounds / nOps
	m["policy.round_ms_p50"] = percentile(roundMS, 50)
	m["policy.round_ms_p95"] = percentile(roundMS, 95)
	if roundSum > 0 {
		for _, name := range []string{"sketch", "evolve", "score", "measure", "train"} {
			m["policy."+name+"_share"] = float64(phaseSum[name]) / float64(roundSum)
		}
		m["policy.self_share"] = float64(roundSelf) / float64(roundSum)
		m["policy.best_improved_per_round"] = float64(tt.improvedRounds) / nRounds
	}
	m["sched.waves_per_op"] = float64(tt.waves) / nOps
	if tt.waves > 0 {
		m["sched.wave_width_mean"] = float64(tt.waveWidth) / float64(tt.waves)
	}
	m["sched.overlap"] = float64(roundSum) / float64(opWall)
	m["ansor.outside_rounds_share"] = float64(opUncovered) / float64(opWall)
	m["xgb.trainings_per_op"] = float64(tt.trainings) / nOps
	if tt.trainings > 0 {
		m["xgb.refit_ratio"] = float64(tt.refits) / float64(tt.trainings)
	}
	m["xgb.train_ms_p50"] = percentile(tt.trainMS, 50)
	m["xgb.train_ms_p95"] = percentile(tt.trainMS, 95)
	m["warm.records_absorbed"] = float64(tt.warmRecords) / nOps
	m["obs.events_per_op"] = float64(tt.events) / nOps
	return m
}
