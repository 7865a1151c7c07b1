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
	Units     int         `json:"units"`
	History   [][]float64 `json:"history"`
	CostCurve []float64   `json:"cost_curve"`
}

// Checkpoint snapshots the scheduler's gradient state. The snapshot is
// deep-copied: later allocations do not mutate it.
func (s *Scheduler) Checkpoint() *Checkpoint {
	c := &Checkpoint{
		Units:     s.Units,
		History:   make([][]float64, len(s.history)),
		CostCurve: append([]float64(nil), s.CostCurve...),
	}
	for i, h := range s.history {
		c.History[i] = append([]float64(nil), h...)
	}
	return c
}

// Marshal serializes the checkpoint as JSON. Infinities (tasks whose
// best latency never materialized) round-trip as the string "inf".
func (c *Checkpoint) Marshal() ([]byte, error) { return json.Marshal(infToString(c)) }

// UnmarshalCheckpoint parses a checkpoint serialized by Marshal.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	var raw jsonCheckpoint
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("sched: unmarshal checkpoint: %w", err)
	}
	return stringToInf(&raw)
}

// jsonCheckpoint mirrors Checkpoint with infinity-safe float encoding
// (encoding/json rejects +Inf).
type jsonCheckpoint struct {
	Units     int                 `json:"units"`
	History   [][]json.RawMessage `json:"history"`
	CostCurve []json.RawMessage   `json:"cost_curve"`
}

func numOf(v float64) json.RawMessage {
	if math.IsInf(v, 1) {
		return json.RawMessage(`"inf"`)
	}
	if math.IsInf(v, -1) {
		return json.RawMessage(`"-inf"`)
	}
	b, _ := json.Marshal(v)
	return json.RawMessage(b)
}

func floatOf(raw json.RawMessage) (float64, error) {
	var v float64
	if err := json.Unmarshal(raw, &v); err == nil {
		return v, nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return 0, fmt.Errorf("neither number nor string: %s", raw)
	}
	switch s {
	case "inf":
		return math.Inf(1), nil
	case "-inf":
		return math.Inf(-1), nil
	}
	return 0, fmt.Errorf("unknown float string %q", s)
}

func infToString(c *Checkpoint) *jsonCheckpoint {
	out := &jsonCheckpoint{Units: c.Units}
	for _, h := range c.History {
		row := make([]json.RawMessage, len(h))
		for i, v := range h {
			row[i] = numOf(v)
		}
		out.History = append(out.History, row)
	}
	for _, v := range c.CostCurve {
		out.CostCurve = append(out.CostCurve, numOf(v))
	}
	return out
}

func stringToInf(raw *jsonCheckpoint) (*Checkpoint, error) {
	c := &Checkpoint{Units: raw.Units}
	for _, row := range raw.History {
		h := make([]float64, len(row))
		for i, n := range row {
			v, err := floatOf(n)
			if err != nil {
				return nil, fmt.Errorf("sched: unmarshal checkpoint: %w", err)
			}
			h[i] = v
		}
		c.History = append(c.History, h)
	}
	for _, n := range raw.CostCurve {
		v, err := floatOf(n)
		if err != nil {
			return nil, fmt.Errorf("sched: unmarshal checkpoint: %w", err)
		}
		c.CostCurve = append(c.CostCurve, v)
	}
	return c, nil
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
			if got[j] != want[j] && !(math.IsInf(got[j], 1) && math.IsInf(want[j], 1)) {
				return fmt.Errorf("sched: task %d allocation %d diverged: %g vs checkpointed %g", i, j, got[j], want[j])
			}
		}
	}
	if len(s.CostCurve) < len(c.CostCurve) {
		return fmt.Errorf("sched: replay cost curve has %d points, checkpoint has %d", len(s.CostCurve), len(c.CostCurve))
	}
	for j, want := range c.CostCurve {
		got := s.CostCurve[j]
		if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			return fmt.Errorf("sched: cost curve point %d diverged: %g vs checkpointed %g", j, got, want)
		}
	}
	return nil
}
