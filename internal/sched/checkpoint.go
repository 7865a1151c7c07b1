package sched

import (
	"encoding/json"
	"fmt"
	"math"
)

// Checkpoint is the trace a scheduler leaves of its gradient state: the
// unit count, the per-task allocation histories (the g_i curves backing
// the backward difference) and the objective curve. It does not resume a
// job: a killed job resumes by re-running from round one on the tuning
// log's cached measurements, and VerifyReplay then checks that the re-run
// passed through exactly this state. A checkpoint written before it lost
// its since_improve, warmed and picks fields still loads; they are
// ignored.
type Checkpoint struct {
	Units     int           `json:"units"`
	History   [][]jsonFloat `json:"history"`
	CostCurve []jsonFloat   `json:"cost_curve"`
}

// jsonFloat is a float64 whose JSON form spells the infinities "inf"
// and "-inf", which encoding/json rejects: the latency of a task not yet
// measured is +Inf.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	switch {
	case math.IsInf(float64(f), 1):
		return []byte(`"inf"`), nil
	case math.IsInf(float64(f), -1):
		return []byte(`"-inf"`), nil
	}
	return json.Marshal(float64(f))
}

func (f *jsonFloat) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"inf"`:
		*f = jsonFloat(math.Inf(1))
	case `"-inf"`:
		*f = jsonFloat(math.Inf(-1))
	default:
		return json.Unmarshal(data, (*float64)(f))
	}
	return nil
}

// Checkpoint snapshots the scheduler's gradient state. The snapshot is
// a copy: later allocations do not mutate it.
func (s *Scheduler) Checkpoint() *Checkpoint {
	c := &Checkpoint{Units: s.Units, History: make([][]jsonFloat, len(s.history)), CostCurve: jsonFloats(s.CostCurve)}
	for i, h := range s.history {
		c.History[i] = jsonFloats(h)
	}
	return c
}

func jsonFloats(v []float64) []jsonFloat {
	out := make([]jsonFloat, len(v))
	for i, x := range v {
		out[i] = jsonFloat(x)
	}
	return out
}

// VerifyReplay checks that a scheduler which re-ran from scratch (the
// replay-resume path: cached measurements, same seed and options) passed
// exactly through the checkpointed state — same allocation histories
// and objective curve as a prefix of the current run. A mismatch means the determinism contract was broken (changed
// seed, options, task set, or log) and resumed output cannot be trusted
// to extend the original run.
func (s *Scheduler) VerifyReplay(c *Checkpoint) error {
	if s.Units < c.Units {
		return fmt.Errorf("sched: replay stopped at %d units, checkpoint has %d", s.Units, c.Units)
	}
	if len(c.History) != len(s.Tasks) {
		return fmt.Errorf("sched: checkpoint has %d tasks, scheduler has %d", len(c.History), len(s.Tasks))
	}
	for i, want := range c.History {
		got := s.history[i]
		if len(got) < len(want) {
			return fmt.Errorf("sched: task %d replayed %d allocations, checkpoint has %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != float64(want[j]) {
				return fmt.Errorf("sched: task %d allocation %d diverged: %g vs checkpointed %g", i, j, got[j], want[j])
			}
		}
	}
	if len(s.CostCurve) < len(c.CostCurve) {
		return fmt.Errorf("sched: replay cost curve has %d points, checkpoint has %d", len(s.CostCurve), len(c.CostCurve))
	}
	for j, want := range c.CostCurve {
		got := s.CostCurve[j]
		if got != float64(want) {
			return fmt.Errorf("sched: cost curve point %d diverged: %g vs checkpointed %g", j, got, want)
		}
	}
	return nil
}
