package ansor

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
)

// fleetOutcome is everything the determinism contract promises to be
// measurement-transport-invariant.
type fleetOutcome struct {
	sig     string
	seconds float64
	gflops  float64
	trials  int
	history []struct {
		trials int
		best   float64
	}
	model uint64
}

func fleetTask(t *testing.T) Task {
	t.Helper()
	b := NewComputeBuilder("matmul_relu")
	a := b.Input("A", 256, 256)
	c := b.Matmul(a, 256, true)
	b.ReLU(c)
	dag, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return NewTask("mm", dag, TargetIntelCPU(true))
}

func runFleetTune(t *testing.T, task Task, opts TuningOptions) fleetOutcome {
	t.Helper()
	tuner, err := NewTuner(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	best, err := tuner.Tune()
	if err != nil {
		t.Fatal(err)
	}
	out := fleetOutcome{
		sig:     best.State.Signature(),
		seconds: best.Seconds,
		gflops:  best.GFLOPS,
		trials:  tuner.Trials(),
		model:   tuner.ModelFingerprint(),
	}
	for _, h := range tuner.History() {
		out.history = append(out.history, struct {
			trials int
			best   float64
		}{h.Trials, h.BestTime})
	}
	if err := tuner.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return out
}

func startFleet(t *testing.T, mutate func(*fleet.Broker), target Target, capacities ...int) (string, *fleet.Client) {
	t.Helper()
	b := fleet.NewBroker()
	if mutate != nil {
		mutate(b)
	}
	hs := httptest.NewServer(b.Handler())
	t.Cleanup(hs.Close)
	startWorkers(t, hs.URL, target, capacities...)
	return hs.URL, fleet.NewClient(hs.URL)
}

func startWorkers(t *testing.T, url string, target Target, capacities ...int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i, capy := range capacities {
		w := fleet.NewWorker(url, target.Machine.Name+"-w"+string(rune('a'+i)), target.Machine, capy)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// TestFleetTuningBitIdenticalToLocal is the subsystem's headline
// guarantee (DESIGN.md, "Measurement fleet"): a tuning run measured on
// a remote worker fleet is bit-identical to the same run measured
// in-process — same history curve, same best time, same trained model —
// for a 1-worker fleet and a 3-worker mixed-capacity fleet, at
// different -workers values.
func TestFleetTuningBitIdenticalToLocal(t *testing.T) {
	task := fleetTask(t)
	base := TuningOptions{Trials: 48, MeasuresPerRound: 16, Seed: 7}
	local := runFleetTune(t, task, base)

	url1, _ := startFleet(t, nil, task.Target, 4)
	opts1 := base
	opts1.FleetURL = url1
	if got := runFleetTune(t, task, opts1); !reflect.DeepEqual(got, local) {
		t.Errorf("1-worker fleet diverged from local:\nlocal  %+v\nfleet  %+v", local, got)
	}

	url3, _ := startFleet(t, nil, task.Target, 1, 2, 4)
	opts3 := base
	opts3.FleetURL = url3
	opts3.Workers = 3 // client parallelism must be as invisible as fleet sharding
	if got := runFleetTune(t, task, opts3); !reflect.DeepEqual(got, local) {
		t.Errorf("3-worker mixed-capacity fleet diverged from local:\nlocal  %+v\nfleet  %+v", local, got)
	}
}

// TestFleetTuningSurvivesWorkerDeath kills a worker mid-batch: its
// leases expire, requeue onto the surviving worker, and the tuning
// outcome still matches the local run bit for bit.
func TestFleetTuningSurvivesWorkerDeath(t *testing.T) {
	task := fleetTask(t)
	base := TuningOptions{Trials: 32, MeasuresPerRound: 16, Seed: 11}
	local := runFleetTune(t, task, base)

	// The fleet starts empty: the surviving worker joins once the doomed
	// one holds its lease, so the two never race for the first job.
	url, cl := startFleet(t, func(b *fleet.Broker) { b.LeaseTTL = 60 * time.Millisecond }, task.Target)

	// The doomed "worker": a raw client that takes exactly one lease of
	// the first batch and never answers. The tuner is started first so a
	// job exists to lease.
	done := make(chan fleetOutcome, 1)
	opts := base
	opts.FleetURL = url
	go func() { done <- runFleetTune(t, task, opts) }()
	grabDeadline := time.Now().Add(5 * time.Second)
	for {
		g, err := cl.Lease(fleet.LeaseRequest{Worker: "doomed", Target: task.Target.Machine.Name, Capacity: 4})
		if err != nil {
			t.Fatalf("doomed lease: %v", err)
		}
		if g != nil {
			break
		}
		if time.Now().After(grabDeadline) {
			t.Fatal("no job became leasable")
		}
		time.Sleep(time.Millisecond)
	}
	startWorkers(t, url, task.Target, 4)

	got := <-done
	if !reflect.DeepEqual(got, local) {
		t.Errorf("post-requeue fleet run diverged from local:\nlocal  %+v\nfleet  %+v", local, got)
	}
	m, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.LeaseExpiries < 1 {
		t.Errorf("lease expiries = %d, want >= 1 (the doomed worker's slice)", m.LeaseExpiries)
	}
}

// TestTunerCloseSurfacesFleetError mirrors the PR 3 tee-sink latching
// tests: a broker that dies mid-run fails measurement batches (the
// search skips them) and the latched error surfaces through
// Tuner.Close, like a torn tuning log.
func TestTunerCloseSurfacesFleetError(t *testing.T) {
	task := fleetTask(t)
	b := fleet.NewBroker()
	hs := httptest.NewServer(b.Handler())
	tuner, err := NewTuner(task, TuningOptions{
		Trials: 24, MeasuresPerRound: 8, Seed: 3, FleetURL: hs.URL,
	})
	if err != nil {
		hs.Close()
		t.Fatal(err)
	}
	hs.Close() // the fleet vanishes before the first batch
	if _, err := tuner.Tune(); err == nil {
		t.Error("Tune with a dead broker should find no valid program")
	}
	cerr := tuner.Close()
	if cerr == nil || !strings.Contains(cerr.Error(), "fleet") {
		t.Fatalf("Close = %v, want the latched fleet error", cerr)
	}
}
