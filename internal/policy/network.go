package policy

import (
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// Network drives the policies of one or more DNNs with the task
// scheduler of §6: the one loop behind the library's network tuning and
// the figures' network experiments.
type Network struct {
	// Tasks has one policy per distinct task name, in the order the names
	// first appear; the scheduler's task i is Tasks[i].
	Tasks []*Scheduled
	Sched *sched.Scheduler

	dnns     []sched.DNN
	perRound int
}

// NewNetwork builds one policy per distinct task name across nets (§6: "a
// subgraph can also appear multiple times in a DNN or across different
// DNNs") through build, which gets the task's index in Tasks, and the
// scheduler over them, narrating into o. A task's policy comes from its
// first appearance; every appearance adds its weight to its DNN. If build
// fails, the policies already built are released.
func NewNetwork(nets []workloads.Network, perRound int, opts sched.Options, o *obs.Observer,
	build func(i int, task workloads.NetTask) (*Policy, error)) (*Network, error) {
	n := &Network{perRound: perRound}
	index := map[string]int{}
	var tuners []sched.Tuner
	for _, net := range nets {
		d := sched.DNN{Name: net.Name}
		for _, task := range net.Tasks {
			i, ok := index[task.Name]
			if !ok {
				i = len(n.Tasks)
				p, err := build(i, task)
				if err != nil {
					n.Release()
					return nil, err
				}
				index[task.Name] = i
				n.Tasks = append(n.Tasks, p.Scheduled(perRound, task.Tag))
				tuners = append(tuners, n.Tasks[i])
			}
			d.Tasks = append(d.Tasks, i)
			d.Weights = append(d.Weights, float64(task.Weight))
		}
		n.dnns = append(n.dnns, d)
	}
	n.Sched = sched.New(tuners, n.dnns, opts)
	n.Sched.Obs = o
	return n, nil
}

// Run allocates trialsPerTask·tasks/perRound units, at least one a task,
// a wave at a time, calling wave (if not nil) after each: wave boundaries
// depend only on scheduler state, so what wave sees is the same for any
// worker count. It then closes the proposals the scheduler prepared as
// guesses and never picked.
func (n *Network) Run(trialsPerTask int, wave func()) {
	units := max(trialsPerTask*len(n.Tasks)/n.perRound, len(n.Tasks))
	for n.Sched.Step(units) > 0 {
		if wave != nil {
			wave()
		}
	}
	for _, t := range n.Tasks {
		t.Abandon()
	}
}

// Latencies returns each DNN's latency Σ wᵢ·gᵢ (+Inf while one of its
// tasks is unmeasured).
func (n *Network) Latencies() []float64 {
	g := make([]float64, len(n.Tasks))
	for i, t := range n.Tasks {
		g[i] = t.BestLatency()
	}
	lats := make([]float64, len(n.dnns))
	for j := range n.dnns {
		lats[j] = n.dnns[j].Latency(g)
	}
	return lats
}

// Release gives every policy's borrowed memory back, once the results
// are read.
func (n *Network) Release() {
	for _, t := range n.Tasks {
		t.Release()
	}
}
