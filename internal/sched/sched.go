// Package sched implements Ansor's task scheduler (§6): gradient-descent
// allocation of tuning time units across the tasks (subgraphs) of one or
// more DNNs, with the objective functions of Table 2 and the gradient
// approximation of Appendix A.
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
	// LatencyReq is L_j for objective f2 (0 = none).
	LatencyReq float64
	// RefLatency is B_j for objective f3.
	RefLatency float64
}

// Latency returns Σ w_i g_i for this DNN given per-task latencies.
func (d *DNN) Latency(g []float64) float64 {
	var l float64
	for k, ti := range d.Tasks {
		l += d.Weights[k] * g[ti]
	}
	return l
}

// Objective is f(g_1, ..., g_n) over per-task best latencies.
type Objective interface {
	Cost(g []float64) float64
	// PartialG returns ∂f/∂g_i for all i.
	PartialG(g []float64) []float64
}

// ---- Table 2 objectives ----

// F1 minimizes the sum of DNN latencies (a pipeline running every DNN
// once): f1 = Σ_j Σ_{i∈S(j)} w_i g_i.
type F1 struct{ DNNs []DNN }

func (f F1) Cost(g []float64) float64 {
	var c float64
	for _, d := range f.DNNs {
		c += d.Latency(g)
	}
	return c
}

func (f F1) PartialG(g []float64) []float64 {
	out := make([]float64, len(g))
	for _, d := range f.DNNs {
		for k, ti := range d.Tasks {
			out[ti] += d.Weights[k]
		}
	}
	return out
}

// F2 stops caring about DNNs that already meet their latency requirement:
// f2 = Σ_j max(Σ w_i g_i, L_j).
type F2 struct{ DNNs []DNN }

func (f F2) Cost(g []float64) float64 {
	var c float64
	for _, d := range f.DNNs {
		c += math.Max(d.Latency(g), d.LatencyReq)
	}
	return c
}

func (f F2) PartialG(g []float64) []float64 {
	out := make([]float64, len(g))
	for _, d := range f.DNNs {
		if d.Latency(g) <= d.LatencyReq {
			continue
		}
		for k, ti := range d.Tasks {
			out[ti] += d.Weights[k]
		}
	}
	return out
}

// F3 maximizes the geometric mean of speedups against reference
// latencies: f3 = −(Π_j B_j / lat_j)^(1/m).
type F3 struct{ DNNs []DNN }

func (f F3) Cost(g []float64) float64 {
	prod := 1.0
	for _, d := range f.DNNs {
		lat := d.Latency(g)
		if lat <= 0 {
			return 0
		}
		prod *= d.RefLatency / lat
	}
	return -math.Pow(prod, 1/float64(len(f.DNNs)))
}

func (f F3) PartialG(g []float64) []float64 {
	out := make([]float64, len(g))
	base := -f.Cost(g) // (Π r)^(1/m) ≥ 0
	m := float64(len(f.DNNs))
	for _, d := range f.DNNs {
		lat := d.Latency(g)
		if lat <= 0 {
			continue
		}
		for k, ti := range d.Tasks {
			out[ti] += base / m * d.Weights[k] / lat
		}
	}
	return out
}

// F4 adds per-task early stopping: f4 = Σ_j Σ_i w_i max(g_i, ES(g_i, t)).
// Converged returns whether task i's gradient should be zeroed.
type F4 struct {
	DNNs      []DNN
	Converged func(task int) bool
}

func (f F4) Cost(g []float64) float64 { return F1{f.DNNs}.Cost(g) }

func (f F4) PartialG(g []float64) []float64 {
	out := F1{f.DNNs}.PartialG(g)
	for i := range out {
		if f.Converged != nil && f.Converged(i) {
			out[i] = 0
		}
	}
	return out
}

// ---- Scheduler ----

// Options configures the gradient-descent scheduler (Appendix A).
type Options struct {
	// Alpha weighs the backward-difference estimate against the
	// optimistic forward prediction.
	Alpha float64
	// Beta weighs the similarity-based prediction.
	Beta float64
	// BackwardWindow is Δt.
	BackwardWindow int
	// EpsGreedy is the probability of picking a random task (§6.2).
	EpsGreedy float64
	// ESWindow: a task is "converged" when its best latency has not
	// improved in this many consecutive allocations (used by F4 and for
	// the RoundRobin comparison it is ignored).
	ESWindow int
	Seed     int64
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
	return Options{Alpha: 0.2, Beta: 2, BackwardWindow: 3, EpsGreedy: 0.05, ESWindow: 8, Seed: 1}
}

// Scheduler allocates tuning units to tasks.
type Scheduler struct {
	Tasks     []Tuner
	Objective Objective
	Opts      Options

	// Obs narrates allocation when set: one wave_scheduled event per
	// dispatched wave and one proposals_prepared event per prepare wave,
	// naming the tasks they carry. Nil is off; either way allocation
	// decisions are identical (events are narration, never inputs).
	Obs *obs.Observer

	rng  *rand.Rand
	pool *pool.Pool
	// history[i] is g_i after each unit allocated to task i.
	history [][]float64
	// sinceImprove[i] counts allocations without improvement.
	sinceImprove []int
	// guessed[i] marks a task prepared as a guess at a later pick and not
	// picked since; nGuessed counts them (see prepare).
	guessed  []bool
	nGuessed int
	// Units counts total allocated units.
	Units int
	// warmed tracks round-robin warm-up progress across Run calls.
	warmed int
	// picks counts gradient-descent pick() decisions, i.e. how many
	// ε-greedy draws the rng has made (recorded in Checkpoint).
	picks int
	// CostCurve records the objective after every allocation.
	CostCurve []float64
}

// New returns a scheduler over the tasks.
func New(tasks []Tuner, obj Objective, opts Options) *Scheduler {
	return &Scheduler{
		Tasks:        tasks,
		Objective:    obj,
		Opts:         opts,
		rng:          rand.New(rand.NewSource(opts.Seed)),
		pool:         pool.New(opts.Workers),
		history:      make([][]float64, len(tasks)),
		sinceImprove: make([]int, len(tasks)),
		guessed:      make([]bool, len(tasks)),
	}
}

// Converged reports whether task i has stopped improving (for F4).
func (s *Scheduler) Converged(i int) bool {
	return s.Opts.ESWindow > 0 && s.sinceImprove[i] >= s.Opts.ESWindow
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
	for k, i := range wave {
		now := s.Tasks[i].BestLatency()
		s.history[i] = append(s.history[i], now)
		if now < prev[k] {
			s.sinceImprove[i] = 0
		} else {
			s.sinceImprove[i]++
		}
		s.Units++
		g[i] = now
		s.CostCurve = append(s.CostCurve, s.Objective.Cost(g))
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
		grads := s.gradients()
		for i, v := range grads {
			if i != picked && !s.guessed[i] && v > 0 {
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
// exploration; round-robin if configured.
func (s *Scheduler) pick() int {
	n := len(s.Tasks)
	if s.Opts.RoundRobin {
		return s.Units % n
	}
	s.picks++
	if s.rng.Float64() < s.Opts.EpsGreedy {
		return s.rng.Intn(n)
	}
	best, bestScore := 0, math.Inf(-1)
	for i, v := range s.gradients() {
		if v > bestScore {
			best, bestScore = i, v
		}
	}
	return best
}

// gradients returns |∂f/∂t_i| = |∂f/∂g_i · ∂g_i/∂t_i| for every task.
func (s *Scheduler) gradients() []float64 {
	g := s.latencies()
	df := s.Objective.PartialG(g)
	out := make([]float64, len(df))
	for i := range out {
		out[i] = math.Abs(df[i] * s.gradientT(i, g))
	}
	return out
}

// gradientT approximates ∂g_i/∂t_i per Appendix A.
func (s *Scheduler) gradientT(i int, g []float64) float64 {
	hist := s.history[i]
	ti := float64(len(hist))
	if ti == 0 {
		return -g[i] // never allocated: optimistic large gradient
	}
	gi := hist[len(hist)-1]
	// Backward difference over window Δt.
	dt := s.Opts.BackwardWindow
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
			pred := s.Opts.Beta*s.Tasks[i].TaskFlops()/v - gi
			if pred < similar {
				similar = pred
			}
		}
	}
	forward := optimistic
	if !math.IsInf(similar, 1) && similar < forward {
		forward = similar
	}
	return s.Opts.Alpha*backward + (1-s.Opts.Alpha)*forward
}
