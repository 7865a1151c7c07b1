// Package sched implements Ansor's task scheduler (§6): gradient-descent
// allocation of tuning time units across the tasks (subgraphs) of one or
// more DNNs, minimizing Table 2's f1 (the sum of the DNNs' latencies)
// with the gradient approximation of Appendix A.
package sched

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/pool"
)

// Tuner is one tuning task as the scheduler sees it.
//
// Distinct Tuners must tolerate concurrent calls: the scheduler runs
// independent rounds (warm-up and round-robin waves) and prepares
// several tasks in parallel. On a single Tuner it never makes two calls
// at once, never allocates it twice within one wave, and calls Prepare
// at most once between two AllocateUnits.
type Tuner interface {
	// Name identifies the task.
	Name() string
	// BestLatency returns g_i(t_i): the best subgraph latency achieved so
	// far (math.Inf(1) before the first measurement).
	BestLatency() float64
	// AllocateUnit spends one unit of time resources: one round of
	// program generation and measurement (§6: "we define such an
	// iteration as one unit of time resources").
	AllocateUnit()
	// Prepare does, ahead of time, whatever part of the next AllocateUnit
	// is a pure function of state that only this task's own AllocateUnit
	// changes (a search round's proposal: everything but the measurement)
	// and leaves it for that call to use. The scheduler relies on the work
	// being the same whenever it is done, on BestLatency not moving before
	// AllocateUnit, and on an unused preparation costing nothing but time.
	Prepare()
	// TaskFlops returns C_i, the floating point operations of the task.
	TaskFlops() float64
	// SimilarityTag groups structurally similar tasks (N(i) in the
	// gradient formula); tasks with equal tags are considered similar.
	SimilarityTag() string
}

// DNN describes one network: which tasks it contains and with what
// weights (the number of appearances of each subgraph).
type DNN struct {
	Name string
	// Tasks are indices into the scheduler's task list.
	Tasks []int
	// Weights[i] is w of Tasks[i] within this DNN.
	Weights []float64
}

// Latency returns Σ w_i g_i for this DNN given per-task latencies.
func (d *DNN) Latency(g []float64) float64 {
	var l float64
	for k, ti := range d.Tasks {
		l += d.Weights[k] * g[ti]
	}
	return l
}

// Options configures the gradient-descent scheduler (Appendix A).
type Options struct {
	// EpsGreedy is the probability of picking a random task (§6.2).
	EpsGreedy float64
	Seed      int64
	// RoundRobin disables the gradient scheduling ("No task scheduler"
	// ablation, Fig. 10): equal time to all tasks.
	RoundRobin bool
	// Workers bounds how many tasks work concurrently (0 = GOMAXPROCS).
	// Rounds whose picks are predetermined — the warm-up pass and
	// round-robin cycles — run as parallel waves. Gradient-descent picks
	// depend on every previous result and are decided one at a time, per
	// the allocation order of §6, but when the picked task has no
	// proposal ready, up to Workers-1 likely later picks are prepared
	// beside it (see Tuner.Prepare). Allocation order, histories and cost
	// curves are bit-identical for any value.
	Workers int
}

// DefaultOptions matches the paper's setup.
func DefaultOptions() Options {
	return Options{EpsGreedy: 0.05, Seed: 1}
}

// Scheduler allocates tuning units to tasks.
type Scheduler struct {
	Tasks []Tuner
	Opts  Options

	// Obs narrates allocation when set: one wave_scheduled event per
	// dispatched wave and one proposals_prepared event per prepare wave,
	// naming the tasks they carry. Nil is off; either way allocation
	// decisions are identical (events are narration, never inputs).
	Obs *obs.Observer

	dnns []DNN
	// weight[i] is ∂f1/∂g_i: task i's weights summed over every DNN.
	weight []float64
	rng    *rand.Rand
	pool   *pool.Pool
	// history[i] is g_i after each unit allocated to task i.
	history [][]float64
	// guessed[i] marks a task prepared as a guess at a later pick and not
	// picked since; nGuessed counts them (see prepare).
	guessed  []bool
	nGuessed int
	// Units counts total allocated units.
	Units int
	// warmed tracks round-robin warm-up progress across Run calls.
	warmed int
	// CostCurve records f1 after every allocation.
	CostCurve []float64
}

// New returns a scheduler that allocates units across the tasks to
// minimize f1 over the DNNs.
func New(tasks []Tuner, dnns []DNN, opts Options) *Scheduler {
	weight := make([]float64, len(tasks))
	for _, d := range dnns {
		for k, ti := range d.Tasks {
			weight[ti] += d.Weights[k]
		}
	}
	return &Scheduler{
		Tasks:   tasks,
		Opts:    opts,
		dnns:    dnns,
		weight:  weight,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		pool:    pool.New(opts.Workers),
		history: make([][]float64, len(tasks)),
		guessed: make([]bool, len(tasks)),
	}
}

// cost returns f1 = Σ_j Σ_{i∈S(j)} w_i g_i: the latency of a pipeline
// running every DNN once.
func (s *Scheduler) cost(g []float64) float64 {
	var c float64
	for _, d := range s.dnns {
		c += d.Latency(g)
	}
	return c
}

// latencies returns the g vector, treating unmeasured tasks as very slow.
func (s *Scheduler) latencies() []float64 {
	g := make([]float64, len(s.Tasks))
	for i, t := range s.Tasks {
		g[i] = t.BestLatency() // +Inf before warm-up
	}
	return g
}

// runWave spends one unit on every task in wave, concurrently across the
// pool. Tasks within a wave are distinct and independent (a task's round
// reads only its own policy state), so the per-task outcomes equal a
// serial execution; bookkeeping then replays the wave in pick order,
// which keeps histories and the cost curve bit-identical to serial
// allocation for any worker count.
func (s *Scheduler) runWave(wave []int) {
	s.narrate(obs.EvWaveScheduled, wave)
	prev := make([]float64, len(wave))
	for k, i := range wave {
		prev[k] = s.Tasks[i].BestLatency()
	}
	s.pool.Map(len(wave), func(k int) { s.Tasks[wave[k]].AllocateUnit() })
	// g starts from the pre-wave latencies and advances task by task in
	// allocation order, exactly as a serial loop would observe them.
	g := s.latencies()
	for k, i := range wave {
		g[i] = prev[k]
	}
	for _, i := range wave {
		now := s.Tasks[i].BestLatency()
		s.history[i] = append(s.history[i], now)
		s.Units++
		g[i] = now
		s.CostCurve = append(s.CostCurve, s.cost(g))
	}
}

// narrate emits one event of the given type naming the tasks of a wave.
func (s *Scheduler) narrate(typ string, wave []int) {
	if s.Obs == nil || s.Obs.Events == nil {
		return
	}
	names := make([]string, len(wave))
	for k, i := range wave {
		names[k] = s.Tasks[i].Name()
	}
	s.Obs.Emit(obs.Event{Type: typ, Count: len(wave), Detail: strings.Join(names, ",")})
}

// nextWave returns the next allocation picks whose choices do not depend
// on each other's results: the remaining warm-up tasks, one round-robin
// cycle, or a single gradient-descent pick (prepared, see prepare). The
// wave never depends on the worker count, only on scheduler state.
func (s *Scheduler) nextWave(budget int) []int {
	var wave []int
	if s.warmed < len(s.Tasks) {
		for i := s.warmed; i < len(s.Tasks) && len(wave) < budget; i++ {
			wave = append(wave, i)
		}
		s.warmed += len(wave)
		return wave
	}
	if s.Opts.RoundRobin {
		n := len(s.Tasks)
		k := n
		if k > budget {
			k = budget
		}
		for j := 0; j < k; j++ {
			wave = append(wave, (s.Units+j)%n)
		}
		return wave
	}
	i := s.pick()
	s.prepare(i, budget)
	return []int{i}
}

// prepare has the picked task prepared before its unit is allocated, in a
// wave that also carries guesses at later picks: up to Workers-1 tasks not
// yet guessed, by descending |∂f/∂t_i|. Decisions stay where they were —
// pick has drawn and chosen, and the next pick reads this one's committed
// result; only work no decision can change runs ahead (Tuner.Prepare). A
// wrong guess costs time, nothing else: the task stays prepared until it
// is picked. So a task with no gradient is never guessed, and no guess is
// added beyond the units left to allocate it in.
func (s *Scheduler) prepare(picked, unitsLeft int) {
	if s.guessed[picked] {
		s.guessed[picked] = false
		s.nGuessed--
		return
	}
	wave := []int{picked}
	if room := min(s.pool.Workers(), unitsLeft-s.nGuessed) - 1; room > 0 {
		g := s.latencies()
		grads := make([]float64, len(g))
		for i := range grads {
			grads[i] = s.gradient(i, g)
			if i != picked && !s.guessed[i] && grads[i] > 0 {
				wave = append(wave, i)
			}
		}
		ahead := wave[1:]
		sort.SliceStable(ahead, func(a, b int) bool { return grads[ahead[a]] > grads[ahead[b]] })
		wave = wave[:1+min(room, len(ahead))]
		for _, i := range wave[1:] {
			s.guessed[i] = true
		}
		s.nGuessed += len(wave) - 1
	}
	s.narrate(obs.EvProposalsPrepared, wave)
	s.pool.Map(len(wave), func(k int) { s.Tasks[wave[k]].Prepare() })
}

// Step runs exactly one wave (bounded by the remaining budget) and
// returns the units it spent; 0 once the budget is exhausted. Callers
// sampling tuning curves step wave by wave, so independent rounds still
// parallelize between observation points.
func (s *Scheduler) Step(totalUnits int) int {
	if s.Units >= totalUnits {
		return 0
	}
	wave := s.nextWave(totalUnits - s.Units)
	if len(wave) == 0 {
		return 0
	}
	s.runWave(wave)
	return len(wave)
}

// Run performs the warm-up round-robin then gradient-descent allocation
// until totalUnits have been spent (§6.2). Independent rounds within a
// wave run concurrently across Opts.Workers goroutines.
func (s *Scheduler) Run(totalUnits int) {
	for s.Step(totalUnits) > 0 {
	}
}

// pick chooses the next task: argmax |∂f/∂t_i|, with ε-greedy random
// exploration.
func (s *Scheduler) pick() int {
	if s.rng.Float64() < s.Opts.EpsGreedy {
		return s.rng.Intn(len(s.Tasks))
	}
	g := s.latencies()
	best, bestScore := 0, math.Inf(-1)
	for i := range s.Tasks {
		if v := s.gradient(i, g); v > bestScore {
			best, bestScore = i, v
		}
	}
	return best
}

// gradient returns |∂f/∂t_i| = |∂f/∂g_i · ∂g_i/∂t_i| at latencies g.
func (s *Scheduler) gradient(i int, g []float64) float64 {
	return math.Abs(s.weight[i] * s.gradientT(i, g))
}

// The gradient's constants, the paper's setup (Appendix A).
const (
	// alpha weighs the backward-difference estimate against the
	// optimistic forward prediction.
	alpha = 0.2
	// beta weighs the similarity-based prediction.
	beta = 2
	// backwardWindow is Δt.
	backwardWindow = 3
)

// gradientT approximates ∂g_i/∂t_i per Appendix A.
func (s *Scheduler) gradientT(i int, g []float64) float64 {
	hist := s.history[i]
	ti := float64(len(hist))
	if ti == 0 {
		return -g[i] // never allocated: optimistic large gradient
	}
	gi := hist[len(hist)-1]
	// Backward difference over window Δt.
	dt := backwardWindow
	if dt > len(hist) {
		dt = len(hist)
	}
	backward := 0.0
	if dt > 0 {
		prevIdx := len(hist) - dt
		var prev float64
		if prevIdx == 0 {
			prev = hist[0]
		} else {
			prev = hist[prevIdx-1]
		}
		backward = (gi - prev) / float64(dt)
	}
	// Optimistic guess: spending t_i more units drives latency to 0.
	optimistic := -gi / ti
	// Similarity-based guess: approach the best achieved FLOPS among
	// similar tasks.
	similar := math.Inf(1)
	for k, t := range s.Tasks {
		if k == i || t.SimilarityTag() != s.Tasks[i].SimilarityTag() {
			continue
		}
		gk := t.BestLatency()
		if math.IsInf(gk, 1) || gk <= 0 {
			continue
		}
		if v := t.TaskFlops() / gk; v > 0 {
			pred := beta*s.Tasks[i].TaskFlops()/v - gi
			if pred < similar {
				similar = pred
			}
		}
	}
	forward := optimistic
	if !math.IsInf(similar, 1) && similar < forward {
		forward = similar
	}
	return alpha*backward + (1-alpha)*forward
}
