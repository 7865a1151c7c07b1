package policy

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

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
	opts := DefaultOptions()
	opts.Seed = 5
	opts.Workers = 2
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
