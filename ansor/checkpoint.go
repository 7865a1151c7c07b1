package ansor

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/sched"
)

// netCheckpoint is the durable scheduler state of one network tuning
// run, written beside the tuning log as <RecordTo>.ckpt.
// The meta fields pin what replay-resume silently assumes: a resumed
// run whose options or workload drifted from the checkpointed run
// fails fast on the meta mismatch, and one that drifted subtly (same
// options, different code or log) fails the post-run VerifyReplay.
type netCheckpoint struct {
	Network  string            `json:"network"`
	Target   string            `json:"target"`
	Seed     int64             `json:"seed"`
	PerRound int               `json:"per_round"`
	Workers  int               `json:"workers,omitempty"` // informational: results are worker-independent
	Tasks    []string          `json:"tasks"`
	Sched    *sched.Checkpoint `json:"sched"`
}

// checkpointMeta builds the meta envelope for the current run.
func checkpointMeta(net Network, target Target, opts TuningOptions) netCheckpoint {
	c := netCheckpoint{
		Network:  net.Name,
		Target:   target.Name,
		Seed:     opts.Seed,
		PerRound: opts.MeasuresPerRound,
		Workers:  opts.Workers,
	}
	for _, t := range net.Tasks {
		c.Tasks = append(c.Tasks, t.Name)
	}
	return c
}

// verifyMeta errors on any drift between the checkpointed run's
// identity and the current one. Workers is exempt: the determinism
// contract makes results worker-independent.
func (c netCheckpoint) verifyMeta(want netCheckpoint) error {
	if c.Network != want.Network {
		return fmt.Errorf("checkpoint is for network %q, tuning %q", c.Network, want.Network)
	}
	if c.Target != want.Target {
		return fmt.Errorf("checkpoint is for target %q, tuning on %q", c.Target, want.Target)
	}
	if c.Seed != want.Seed {
		return fmt.Errorf("checkpoint used seed %d, this run uses %d", c.Seed, want.Seed)
	}
	if c.PerRound != want.PerRound {
		return fmt.Errorf("checkpoint used %d measures per round, this run uses %d", c.PerRound, want.PerRound)
	}
	if len(c.Tasks) != len(want.Tasks) {
		return fmt.Errorf("checkpoint has %d tasks, network has %d", len(c.Tasks), len(want.Tasks))
	}
	for i := range c.Tasks {
		if c.Tasks[i] != want.Tasks[i] {
			return fmt.Errorf("checkpoint task %d is %q, network has %q", i, c.Tasks[i], want.Tasks[i])
		}
	}
	return nil
}

// loadCheckpoint reads a checkpoint file; a missing file returns
// nil so first runs and fresh resumes need no special casing.
func loadCheckpoint(path string) (*netCheckpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ansor: checkpoint %s: %w", path, err)
	}
	var c netCheckpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("ansor: checkpoint %s: %w", path, err)
	}
	if c.Sched == nil {
		return nil, fmt.Errorf("ansor: checkpoint %s: no scheduler state", path)
	}
	return &c, nil
}

// writeCheckpoint snapshots the scheduler beside the log, atomically
// (temp file + rename), so a crash mid-write never corrupts the
// previous checkpoint.
func writeCheckpoint(path string, meta netCheckpoint, s *sched.Scheduler) error {
	meta.Sched = s.Checkpoint()
	data, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("ansor: checkpoint %s: %w", path, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("ansor: checkpoint %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ansor: checkpoint %s: %w", path, err)
	}
	return nil
}
