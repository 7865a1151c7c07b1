package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/te"
)

// TestWorkerCLIServesJobs runs the binary in-process against a live
// broker and checks it measures a real job correctly and shuts down on
// context cancellation.
func TestWorkerCLIServesJobs(t *testing.T) {
	broker := fleet.NewBroker()
	hs := httptest.NewServer(broker.Handler())
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var out, errb bytes.Buffer
	done := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		done <- run(ctx, []string{
			"-broker", hs.URL, "-target", "intel", "-capacity", "2", "-id", "cli-w9",
		}, &out, &errb)
	}()

	// A real single-program job: the worker must replay, lower and time
	// it to exactly the in-process measurer's value.
	b := te.NewBuilder("mm")
	a := b.Input("A", 64, 64)
	b.Matmul(a, 64, true)
	dag := b.MustFinish()
	state := ir.NewState(dag)
	want := measure.New(sim.IntelXeon(), 0, 1).Measure([]*ir.State{state})[0].NoiselessSeconds

	encDAG, err := te.EncodeDAGBinary(dag)
	if err != nil {
		t.Fatal(err)
	}
	encSteps, err := ir.EncodeSteps(state.Steps)
	if err != nil {
		t.Fatal(err)
	}
	cl := fleet.NewClient(hs.URL)
	st, err := cl.Submit(fleet.JobSpec{
		ID: "cli-1", Target: "intel-20c-avx2", Task: "mm",
		DAGBin: encDAG, Programs: []json.RawMessage{encSteps},
		WaitMS: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatal("worker never completed the job")
	}
	if st.Results[0].Err != "" || st.Results[0].Noiseless != want {
		t.Fatalf("worker result %+v, want noiseless %v", st.Results[0], want)
	}

	cancel()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("worker exited with %v", err)
	}
	if !strings.Contains(out.String(), "serving target intel-20c-avx2") ||
		!strings.Contains(out.String(), "stopping") {
		t.Errorf("missing lifecycle output:\n%s", out.String())
	}
}

func TestWorkerCLIFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-target", "abacus"}, &out, &errb); err == nil {
		t.Error("unknown -target should fail")
	}
	if err := run(context.Background(), []string{"-capacity", "0"}, &out, &errb); err == nil {
		t.Error("non-positive -capacity should fail")
	}
	if err := run(context.Background(), []string{"-broker", "http://127.0.0.1:1"}, &out, &errb); err == nil {
		t.Error("unreachable broker should fail the startup ping")
	}
}
