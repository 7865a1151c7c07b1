package baselines

import (
	"repro/internal/measure"
	"repro/internal/policy"
)

// NewAutoTVM returns a tuning policy restricted to a manual-template-like
// search space (§2, §7.1): two-level space tiles plus one reduction split
// ("SSRS" instead of Ansor's "SSRSRS"), no cache stages, no rfactor, a
// fixed annotation policy — but a cost-model-guided search within that
// space, like AutoTVM's simulated annealing + XGBoost.
func NewAutoTVM(task policy.Task, ms *measure.Measurer, seed int64) (*policy.Policy, error) {
	opts := policy.DefaultOptions()
	opts.Seed = seed
	opts.Structure = "SSRS"
	opts.DisableCacheWrite = true
	opts.DisableRFactor = true
	opts.FixedAnnotation = true
	return policy.New(task, opts, ms)
}

// NewFlexTensor returns a tuning policy modelling FlexTensor (§8): more
// general per-operator templates, but no operator fusion (its templates
// target single operators), no change of padding's computation location
// (no inlining of predicated producers is approximated by disabling
// fusion entirely), and a fixed unrolling policy.
func NewFlexTensor(task policy.Task, ms *measure.Measurer, seed int64) (*policy.Policy, error) {
	opts := policy.DefaultOptions()
	opts.Seed = seed
	opts.Structure = "SSRS"
	opts.DisableFusion = true
	opts.DisableCacheWrite = true
	opts.DisableRFactor = true
	opts.DisableInline = true
	opts.FixedAnnotation = true
	return policy.New(task, opts, ms)
}

// NewLimitedSpace returns the "Limited space" ablation of §7.1/§7.3:
// Ansor's full tuner (random sampling + evolutionary fine-tuning with the
// learned cost model) confined to the template-like space.
func NewLimitedSpace(task policy.Task, ms *measure.Measurer, seed int64) (*policy.Policy, error) {
	opts := policy.DefaultOptions()
	opts.Seed = seed
	opts.Structure = "SSRS"
	opts.DisableCacheWrite = true
	opts.DisableRFactor = true
	return policy.New(task, opts, ms)
}

// NewNoFineTuning returns the "No fine-tuning" ablation: Ansor's full
// search space sampled randomly, no evolutionary search, no cost model.
func NewNoFineTuning(task policy.Task, ms *measure.Measurer, seed int64) (*policy.Policy, error) {
	opts := policy.DefaultOptions()
	opts.Seed = seed
	opts.DisableFineTuning = true
	return policy.New(task, opts, ms)
}

// NewAnsor returns the full system.
func NewAnsor(task policy.Task, ms *measure.Measurer, seed int64) (*policy.Policy, error) {
	opts := policy.DefaultOptions()
	opts.Seed = seed
	return policy.New(task, opts, ms)
}
