package exp

import (
	"math"

	"repro/internal/baselines"
	"repro/internal/measure"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// NetVariant names a network-tuning configuration (Figure 10's ablation).
type NetVariant string

const (
	VariantAnsor           NetVariant = "Ansor"
	VariantNoTaskScheduler NetVariant = "No task scheduler" // round-robin allocation
	VariantNoFineTuning    NetVariant = "No fine-tuning"
	VariantLimitedSpace    NetVariant = "Limited space"
	VariantAutoTVM         NetVariant = "AutoTVM" // restricted space, round-robin
)

// NetCurvePoint is one point of a network tuning curve.
type NetCurvePoint struct {
	// Trials is the policy-local trial count: the sum of every task
	// policy's own budget spent so far, counting cache-served
	// measurements. Unlike the measurer's fresh-trial counter it is
	// resume-invariant — a fully cached re-run walks the same x-axis as
	// the original run instead of collapsing to x=0 — so curves stay
	// comparable across fresh and resumed runs.
	Trials    int
	Latencies []float64 // per DNN (end-to-end, Σ w_i g_i); +Inf before warm-up
}

// NetTuneResult is the outcome of tuning one or more networks.
type NetTuneResult struct {
	Networks  []string
	Latencies []float64 // final per-DNN latency
	Curve     []NetCurvePoint
	// Trials counts fresh measurements only (cache hits are free): the
	// honest cost of THIS run.
	Trials int
	// PolicyTrials is the total policy-local budget spent (fresh +
	// cache-served), the x-axis unit of Curve.
	PolicyTrials int
}

// TuneNetworks tunes a set of DNNs with the task scheduler (§6). Tasks
// shared across networks are deduplicated by name. trialsPerTask scales
// the budget: total trials ≈ trialsPerTask × number of unique tasks.
func TuneNetworks(nets []workloads.Network, plat Platform, cfg Config,
	variant NetVariant, trialsPerTask int) NetTuneResult {
	ms := cfg.measurer(plat.Machine, cfg.Seed)

	mk := func(task policy.Task, m *measure.Measurer, seed int64) (*policy.Policy, error) {
		switch variant {
		case VariantNoFineTuning:
			return baselines.NewNoFineTuning(task, m, seed)
		case VariantLimitedSpace:
			return baselines.NewLimitedSpace(task, m, seed)
		case VariantAutoTVM:
			return baselines.NewAutoTVM(task, m, seed)
		default:
			return baselines.NewAnsor(task, m, seed)
		}
	}

	// Deduplicate tasks across networks by name (§6: "a subgraph can
	// also appear multiple times in a DNN or across different DNNs").
	taskIndex := map[string]int{}
	var pols []*policy.Scheduled
	var tuners []sched.Tuner
	var dnns []sched.DNN
	for _, net := range nets {
		d := sched.DNN{Name: net.Name}
		for _, task := range net.Tasks {
			index, ok := taskIndex[task.Name]
			if !ok {
				p, err := mk(policy.Task{
					Name: task.Name, DAG: task.Build(), Target: plat.Target, Weight: task.Weight,
				}, ms, cfg.Seed+int64(len(tuners))*31)
				if err != nil {
					panic(err)
				}
				p.Obs = cfg.Session.Observer()
				// Only the full-space Ansor variants warm-start; the
				// restricted ablation variants stay cold baselines.
				if variant == VariantAnsor || variant == VariantNoTaskScheduler {
					cfg.warmStart(p, plat.Machine.Name)
				}
				index = len(tuners)
				taskIndex[task.Name] = index
				pols = append(pols, p.Scheduled(cfg.PerRound, task.Tag))
				tuners = append(tuners, pols[index])
			}
			d.Tasks = append(d.Tasks, index)
			d.Weights = append(d.Weights, float64(task.Weight))
		}
		dnns = append(dnns, d)
	}

	opts := sched.DefaultOptions()
	opts.Seed = cfg.Seed
	opts.Workers = cfg.Workers
	opts.RoundRobin = variant == VariantNoTaskScheduler || variant == VariantAutoTVM

	s := sched.New(tuners, dnns, opts)
	s.Obs = cfg.Session.Observer()

	totalUnits := trialsPerTask * len(tuners) / cfg.PerRound
	if totalUnits < len(tuners) {
		totalUnits = len(tuners)
	}
	res := NetTuneResult{}
	for _, net := range nets {
		res.Networks = append(res.Networks, net.Name)
	}
	// policyTrials sums each task policy's own trial counter, which
	// counts cache-served measurements too — the resume-invariant
	// x-axis of the tuning curve.
	policyTrials := func() int {
		n := 0
		for _, p := range pols {
			n += p.Trials
		}
		return n
	}
	// Step wave by wave to record the curve: warm-up and round-robin
	// waves keep their internal parallelism, and wave boundaries depend
	// only on scheduler state, so the curve is identical for any worker
	// count.
	for s.Step(totalUnits) > 0 {
		lats := make([]float64, len(dnns))
		g := make([]float64, len(tuners))
		for i, t := range tuners {
			g[i] = t.BestLatency()
		}
		for j, d := range dnns {
			lats[j] = d.Latency(g)
		}
		res.Curve = append(res.Curve, NetCurvePoint{Trials: policyTrials(), Latencies: lats})
	}
	for _, p := range pols {
		p.Abandon() // a task prepared on a guess the scheduler never confirmed
		p.Release()
	}
	if len(res.Curve) > 0 {
		res.Latencies = res.Curve[len(res.Curve)-1].Latencies
	} else {
		res.Latencies = make([]float64, len(dnns))
		for i := range res.Latencies {
			res.Latencies[i] = math.Inf(1)
		}
	}
	res.Trials = ms.Trials()
	res.PolicyTrials = policyTrials()
	return res
}

// VendorNetworkTime returns a vendor framework's end-to-end latency for a
// network (sum of per-subgraph library times weighted by appearance), or
// +Inf if the framework lacks kernels for some subgraph.
func VendorNetworkTime(net workloads.Network, plat Platform, fw baselines.VendorFramework) float64 {
	var total float64
	for _, task := range net.Tasks {
		d := task.Build()
		if !baselines.VendorSupports(fw, d) {
			return math.Inf(1)
		}
		total += float64(task.Weight) * baselines.VendorTime(plat.VendorMachine, fw, d)
	}
	return total
}
