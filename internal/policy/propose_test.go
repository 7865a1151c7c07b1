package policy

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/anno"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sketch"
)

// proposeRig is one policy with a measurer and a record log of its own.
type proposeRig struct {
	p   *Policy
	ms  *measure.Measurer
	log *bytes.Buffer
}

func newProposeRig(t *testing.T, o *obs.Observer) *proposeRig {
	t.Helper()
	r := &proposeRig{ms: measure.New(sim.IntelXeon(), 0.02, 5), log: &bytes.Buffer{}}
	r.ms.Recorder = measure.NewRecorder(r.log)
	r.ms.Workers = 2
	opts := DefaultOptions()
	opts.Seed = 5
	p, err := New(Task{Name: "mm", DAG: matmulReLU(256, 256, 256), Target: sketch.CPUTarget()}, opts, r.ms)
	if err != nil {
		t.Fatal(err)
	}
	p.Obs = o
	r.p = p
	return r
}

func signatures(states []*ir.State) []string {
	out := make([]string, len(states))
	for i, s := range states {
		out[i] = s.Signature()
	}
	return out
}

func resultKeys(rs []measure.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		enc, _ := ir.EncodeSteps(r.State.Steps)
		out[i] = string(enc)
	}
	return out
}

// TestProposeAheadEqualsSearchRound is the policy's side of the run-ahead
// contract: a proposal is the same whenever it is computed. One policy is
// driven by SearchRound alone. The other has every proposal made early —
// on another goroutine, while a neighbour policy runs whole rounds on the
// same observer, as a scheduler's prepare wave does — then asked for
// again (a no-op), and committed only after the neighbour has moved on.
// Results, History, the record log, the model and the batch the next
// round would measure must all be equal.
func TestProposeAheadEqualsSearchRound(t *testing.T) {
	const rounds, n = 5, 8
	plain := newProposeRig(t, nil)
	var want [][]string
	for i := 0; i < rounds; i++ {
		want = append(want, resultKeys(plain.p.SearchRound(n)))
	}

	o := obs.New(&obs.MemorySink{}, obs.NewRegistry())
	ahead, neighbour := newProposeRig(t, o), newProposeRig(t, o)
	for i := 0; i < rounds; i++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ahead.p.Propose(n)
		}()
		neighbour.p.SearchRound(n)
		wg.Wait()
		ahead.p.Propose(n)
		neighbour.p.SearchRound(n)
		if got := resultKeys(ahead.p.SearchRound(n)); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("round %d measured a different batch when proposed ahead", i+1)
		}
	}
	if !reflect.DeepEqual(ahead.p.History, plain.p.History) {
		t.Errorf("History diverged:\nplain %v\nahead %v", plain.p.History, ahead.p.History)
	}
	if !bytes.Equal(ahead.log.Bytes(), plain.log.Bytes()) {
		t.Error("record logs diverged")
	}
	if ahead.p.BestTime != plain.p.BestTime || ahead.p.Trials != plain.p.Trials || ahead.ms.Trials() != plain.ms.Trials() {
		t.Errorf("best/trials diverged: %g/%d/%d vs %g/%d/%d", ahead.p.BestTime, ahead.p.Trials, ahead.ms.Trials(),
			plain.p.BestTime, plain.p.Trials, plain.ms.Trials())
	}
	if a, b := ahead.p.ModelFingerprint(), plain.p.ModelFingerprint(); a != b {
		t.Errorf("model fingerprints diverged: %x vs %x", a, b)
	}
	// Asking for the fingerprint fitted both models; the next proposals
	// must not fit again, and must agree.
	ahead.p.Propose(n)
	plain.p.Propose(n)
	if !reflect.DeepEqual(signatures(ahead.p.pending.batch), signatures(plain.p.pending.batch)) {
		t.Error("next-round batches diverged")
	}
	if a, b := ahead.p.ModelFingerprint(), plain.p.ModelFingerprint(); a != b {
		t.Errorf("model fingerprints diverged after the next proposal: %x vs %x", a, b)
	}
}

// TestUncommittedProposalIsInvisible: a proposal that is never committed
// moves nothing a caller can observe — no trial, no record, no best, no
// history point — and Abandon closes its round in the narration.
func TestUncommittedProposalIsInvisible(t *testing.T) {
	sink := &obs.MemorySink{}
	o := obs.New(sink, obs.NewRegistry())
	r := newProposeRig(t, o)
	r.p.SearchRound(8)
	r.p.SearchRound(8)

	trials, msTrials, best, bestState := r.p.Trials, r.ms.Trials(), r.p.BestTime, r.p.BestState
	history := append([]HistoryPoint(nil), r.p.History...)
	log := append([]byte(nil), r.log.Bytes()...)
	r.p.Propose(8)
	if len(r.p.pending.batch) != 8 {
		t.Fatalf("proposal holds %d programs, want 8", len(r.p.pending.batch))
	}
	r.p.Abandon()
	r.p.Abandon() // nothing pending: a no-op
	if r.p.Trials != trials || r.ms.Trials() != msTrials || r.p.BestTime != best || r.p.BestState != bestState {
		t.Error("an uncommitted proposal moved trials or the best")
	}
	if !reflect.DeepEqual(r.p.History, history) || !bytes.Equal(r.log.Bytes(), log) {
		t.Error("an uncommitted proposal wrote history or records")
	}

	ends := sink.ByType(obs.EvRoundEnd)
	last := ends[len(ends)-1]
	if len(ends) != 3 || last.Detail != "unused" || last.Count != 0 || last.Round != 3 {
		t.Errorf("want a third round_end {round 3, detail unused, count 0}, got %d ends, last %+v", len(ends), last)
	}
	if starts := sink.ByType(obs.EvRoundStart); len(starts) != len(ends) {
		t.Errorf("%d round_start for %d round_end: a round stays open", len(starts), len(ends))
	}
	c := o.Metrics.Snapshot().Counters
	if c["proposals_prepared"] != 3 || c["proposals_committed"] != 2 || c["proposals_unused"] != 1 {
		t.Errorf("proposal counters prepared/committed/unused = %d/%d/%d, want 3/2/1",
			c["proposals_prepared"], c["proposals_committed"], c["proposals_unused"])
	}
}

// TestProposalContractViolationsPanic: committing with another batch size
// than the proposal was made with, or warm-starting under a pending
// proposal, is a caller's bug and must not be papered over by
// recomputing.
func TestProposalContractViolationsPanic(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := newProposeRig(t, nil)
	r.p.Propose(8)
	mustPanic("SearchRound(4) on a proposal of 8", func() { r.p.SearchRound(4) })
	mustPanic("WarmStart on a pending proposal", func() { _, _ = r.p.WarmStart(nil) })
	if got := len(r.p.SearchRound(8)); got != 8 {
		t.Errorf("the pending proposal committed %d programs after the refused calls, want 8", got)
	}
}

// TestProposeLeavesBatchOnHeap is the exit invariant of the proposal's
// borrow (DESIGN.md "Program memory"): when Propose returns, nothing the
// policy holds — the pending batch above all, the best pool, the best
// state — lives in an arena, whether the batch came straight from the
// sampler (the first round, the no-fine-tuning policy) or out of the
// evolution. The batch then survives other proposals reusing the chunks
// it was sampled into: it measures to what SearchRound alone measured.
func TestProposeLeavesBatchOnHeap(t *testing.T) {
	const rounds, n = 4, 8
	for _, noFineTuning := range []bool{false, true} {
		plain, held, neighbour := newProposeRig(t, nil), newProposeRig(t, nil), newProposeRig(t, nil)
		for _, r := range []*proposeRig{plain, held} {
			r.p.Opts.DisableFineTuning = noFineTuning
		}
		// Other programs than held's, or reused memory would read the same.
		neighbour.p.sampler = anno.NewSampler(sketch.CPUTarget(), 99)
		for i := 0; i < rounds; i++ {
			want := resultKeys(plain.p.SearchRound(n))
			held.p.Propose(n)
			if len(held.p.pending.batch) != n {
				t.Fatalf("round %d proposed %d programs", i, len(held.p.pending.batch))
			}
			held.p.ModelFingerprint() // fits, as a scheduler's checkpoint may between propose and commit
			onHeap := func(what string, states ...*ir.State) {
				for _, s := range states {
					// A released arena is zeroed: a state of one has lost
					// its DAG, and with it the mark of where it lived.
					if s != nil && (s.InArena() || s.DAG == nil) {
						t.Fatalf("round %d (fine-tuning off: %v): %s holds a program of an arena",
							i, noFineTuning, what)
					}
				}
			}
			onHeap("pending batch", held.p.pending.batch...)
			onHeap("best pool", held.p.bestStates...)
			onHeap("best state", held.p.BestState)
			// The arena the batch was sampled into goes through other hands.
			neighbour.p.SearchRound(n)
			if got := resultKeys(held.p.SearchRound(n)); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d (fine-tuning off: %v): a batch held across a neighbour's round measured other programs", i, noFineTuning)
			}
		}
		if !bytes.Equal(plain.log.Bytes(), held.log.Bytes()) {
			t.Errorf("fine-tuning off: %v: record logs differ", noFineTuning)
		}
	}
}
