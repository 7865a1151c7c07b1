package policy

import "math"

// Scheduled is a policy as the task scheduler of §6 sees it (it satisfies
// sched.Tuner): one unit of time is one search round of PerRound
// measurements.
type Scheduled struct {
	*Policy
	PerRound int
	// Tag groups similar tasks for the gradient approximation (N(i),
	// Appendix A).
	Tag   string
	flops float64
}

// Scheduled wraps the policy for the task scheduler.
func (p *Policy) Scheduled(perRound int, tag string) *Scheduled {
	return &Scheduled{Policy: p, PerRound: perRound, Tag: tag, flops: p.Task.DAG.TotalFlops()}
}

func (t *Scheduled) Name() string { return t.Task.Name }

// BestLatency is the best measured time, +Inf before the first valid
// measurement.
func (t *Scheduled) BestLatency() float64 {
	if t.BestState == nil {
		return math.Inf(1)
	}
	return t.BestTime
}

func (t *Scheduled) AllocateUnit()         { t.SearchRound(t.PerRound) }
func (t *Scheduled) Prepare()              { t.Propose(t.PerRound) }
func (t *Scheduled) TaskFlops() float64    { return t.flops }
func (t *Scheduled) SimilarityTag() string { return t.Tag }
