package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/measure"
	"repro/internal/registry"
	"repro/internal/regserver"
	"repro/internal/sim"
)

// exec drives the CLI in-process and returns its stdout.
func exec(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, errb.String())
	}
	return out.String()
}

func TestListSmoke(t *testing.T) {
	out := exec(t, "-list")
	for _, want := range []string{"GMM.s1", "ConvLayer", "networks (use with -network)"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestFlagAndInputErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-target", "vax"}, &out, &errb); err == nil {
		t.Error("unknown target accepted")
	}
	if err := run([]string{"-workload", "NopeNope"}, &out, &errb); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{}, &out, &errb); err == nil {
		t.Error("no action should error")
	}
	if err := run([]string{"-not-a-flag"}, &out, &errb); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-workload", "GMM.s1", "-apply-best",
		filepath.Join(t.TempDir(), "empty.json")}, &out, &errb); err == nil {
		t.Error("apply-best from an empty log should error")
	}
}

// TestTuneRecordResumeRoundTrip runs the CLI end to end: tune with -log,
// resume with -resume (continuing the same file), then serve the result
// with -apply-best at zero fresh trials.
func TestTuneRecordResumeRoundTrip(t *testing.T) {
	logFile := filepath.Join(t.TempDir(), "tune.json")
	common := []string{"-workload", "GMM.s1", "-per-round", "8", "-seed", "5"}

	out := exec(t, append(common, "-trials", "16", "-log", logFile)...)
	if !strings.Contains(out, "(16 fresh trials)") {
		t.Fatalf("first run should spend 16 fresh trials:\n%s", out)
	}
	log, err := measure.LoadFile(logFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Records) == 0 {
		t.Fatal("-log wrote no records")
	}

	// Resume with a larger budget: the logged prefix replays for free.
	out = exec(t, append(common, "-trials", "24", "-resume", logFile)...)
	if !strings.Contains(out, "(8 fresh trials)") {
		t.Fatalf("resumed run should spend only the 8-trial continuation:\n%s", out)
	}
	grown, err := measure.LoadFile(logFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown.Records) <= len(log.Records) {
		t.Error("-resume should keep appending to the log (implied -log)")
	}

	// Serve the best recorded schedule without searching.
	out = exec(t, append(common, "-apply-best", logFile)...)
	if !strings.Contains(out, "(0 fresh trials)") {
		t.Fatalf("apply-best must spend zero trials:\n%s", out)
	}
	if !strings.Contains(out, "best:") {
		t.Fatalf("apply-best printed no program:\n%s", out)
	}

	// The served best matches the log's fastest record for the task.
	best := -1.0
	for _, rec := range grown.Records {
		if rec.Task == "GMM.s1" && (best < 0 || rec.Seconds < best) {
			best = rec.Seconds
		}
	}
	if best < 0 {
		t.Fatal("no GMM.s1 records in log")
	}
	if !strings.Contains(out, fmt.Sprintf("%.6g", best)) {
		t.Errorf("apply-best output does not show the best recorded time %g:\n%s", best, out)
	}
}

// TestRegistryServerRoundTrip is the service acceptance path: two
// tuning runs for disjoint tasks publish to one registry server, whose
// accumulated registry then serves every task with zero fresh trials —
// bit-identical to the in-process registry path over the same logs.
func TestRegistryServerRoundTrip(t *testing.T) {
	srv := regserver.New(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	dir := t.TempDir()
	logs := map[string]string{
		"GMM.s1": filepath.Join(dir, "a.json"),
		"C1D.s0": filepath.Join(dir, "b.json"),
	}
	// Two tuning jobs (in-process stand-ins for two OS processes), each
	// recording locally AND publishing to the shared server.
	for wl, logFile := range logs {
		out := exec(t, "-workload", wl, "-trials", "16", "-per-round", "8", "-seed", "5",
			"-log", logFile, "-registry-url", hs.URL)
		if !strings.Contains(out, "(16 fresh trials)") {
			t.Fatalf("%s: expected a fresh 16-trial tune:\n%s", wl, out)
		}
	}

	// The server accumulated both jobs: its registry equals the merge of
	// the local logs, record for record.
	want := registry.New()
	for _, logFile := range logs {
		l, err := measure.LoadFile(logFile)
		if err != nil {
			t.Fatal(err)
		}
		want.AddLog(l)
	}
	got := srv.Registry()
	if len(got.Keys()) == 0 || fmt.Sprint(got.Keys()) != fmt.Sprint(want.Keys()) {
		t.Fatalf("server registry keys diverged:\nwant %v\n got %v", want.Keys(), got.Keys())
	}
	for _, k := range want.Keys() {
		a, _ := want.Best(k.Workload, k.Target, k.DAG)
		b, _ := got.Best(k.Workload, k.Target, k.DAG)
		if a.Seconds != b.Seconds || a.Noiseless != b.Noiseless || !bytes.Equal(a.Steps, b.Steps) {
			t.Fatalf("server entry %v diverged from local merge:\nwant %+v\n got %+v", k, a, b)
		}
	}

	// Serving from the server is bit-identical to serving from the local
	// merged registry, at zero fresh trials, for every task.
	mergedFile := filepath.Join(dir, "merged.json")
	if err := want.SaveFile(mergedFile); err != nil {
		t.Fatal(err)
	}
	for wl := range logs {
		common := []string{"-workload", wl, "-seed", "5"}
		fromFile := exec(t, append(common, "-apply-best", mergedFile)...)
		fromServer := exec(t, append(common, "-apply-best", hs.URL)...)
		// Sentinel spelling: -apply-best registry + -registry-url.
		fromSentinel := exec(t, append(common, "-apply-best", "registry", "-registry-url", hs.URL)...)
		norm := func(s string) string {
			// Drop the header naming the source; everything below —
			// time, GFLOPS, trial count, program listing — must match
			// byte for byte.
			i := strings.Index(s, "best:")
			if i < 0 {
				t.Fatalf("no best program in output:\n%s", s)
			}
			return s[i:]
		}
		if norm(fromFile) != norm(fromServer) || norm(fromServer) != norm(fromSentinel) {
			t.Errorf("%s: served program diverged between file and server:\nfile:\n%s\nserver:\n%s",
				wl, fromFile, fromServer)
		}
		if !strings.Contains(fromServer, "(0 fresh trials)") {
			t.Errorf("%s: serving from the registry server must cost zero trials:\n%s", wl, fromServer)
		}
	}

	// Resuming against a FRESH server must seed it with the log's
	// replayed records: cached replays never re-enter the recorder, so
	// without seeding the server would only see the continuation.
	srv2 := regserver.New(nil)
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	out := exec(t, "-workload", "GMM.s1", "-trials", "16", "-per-round", "8", "-seed", "5",
		"-resume", logs["GMM.s1"], "-registry-url", hs2.URL)
	if !strings.Contains(out, "(0 fresh trials)") {
		t.Fatalf("fully logged resume should cost zero fresh trials:\n%s", out)
	}
	if srv2.Registry().Len() == 0 {
		t.Fatal("resume published nothing: the fresh server missed the replayed records")
	}
	for _, k := range want.Keys() {
		if k.Workload != "GMM.s1" {
			continue
		}
		a, _ := want.Best(k.Workload, k.Target, k.DAG)
		b, ok := srv2.Registry().Best(k.Workload, k.Target, k.DAG)
		if !ok || a.Seconds != b.Seconds || !bytes.Equal(a.Steps, b.Steps) {
			t.Fatalf("seeded server entry %v diverged: %+v vs %+v", k, a, b)
		}
	}

	// A bad sentinel spelling fails fast.
	var outb, errb bytes.Buffer
	if err := run([]string{"-workload", "GMM.s1", "-apply-best", "registry"}, &outb, &errb); err == nil {
		t.Error("-apply-best registry without -registry-url should error")
	}
	if err := run([]string{"-workload", "GMM.s1", "-registry-url", "http://127.0.0.1:1"}, &outb, &errb); err == nil {
		t.Error("an unreachable registry server should fail fast")
	}
}

// TestNetworkCheckpointResume covers the scheduler-checkpoint wiring:
// a network tune with -log writes a checkpoint beside the log, an
// honest resume verifies against it, and a tampered checkpoint — state
// or meta — turns silent drift into an error.
func TestNetworkCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	logFile := filepath.Join(dir, "net.json")
	ckpt := logFile + ".ckpt"
	common := []string{"-network", "dcgan", "-per-round", "4", "-seed", "3"}

	exec(t, append(common, "-trials", "4", "-log", logFile)...)
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("network tune with -log should write a checkpoint beside the log: %v", err)
	}

	// Honest resume: replay passes verification and extends the run.
	out := exec(t, append(common, "-trials", "8", "-resume", logFile)...)
	if !strings.Contains(out, "end-to-end latency") {
		t.Fatalf("resume failed:\n%s", out)
	}

	readCkpt := func() map[string]interface{} {
		data, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		var c map[string]interface{}
		if err := json.Unmarshal(data, &c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	writeCkpt := func(c map[string]interface{}) {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckpt, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Tamper with the gradient state: the replayed run no longer passes
	// through the checkpointed allocations, so resume must refuse.
	tampered := readCkpt()
	hist := tampered["sched"].(map[string]interface{})["history"].([]interface{})
	hist[0].([]interface{})[0] = 1e-9
	writeCkpt(tampered)
	var out2, errb bytes.Buffer
	err := run(append(common, "-trials", "8", "-resume", logFile), &out2, &errb)
	if err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("tampered history should fail VerifyReplay, got %v", err)
	}

	// Tamper with the meta: option drift is rejected before tuning.
	tampered = readCkpt()
	tampered["seed"] = float64(99)
	writeCkpt(tampered)
	err = run(append(common, "-trials", "8", "-resume", logFile), &out2, &errb)
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("drifted seed should be rejected, got %v", err)
	}
	tampered = readCkpt()
	tampered["network"] = "ResNet-50"
	writeCkpt(tampered)
	err = run(append(common, "-trials", "8", "-resume", logFile), &out2, &errb)
	if err == nil || !strings.Contains(err.Error(), "network") {
		t.Fatalf("drifted network should be rejected, got %v", err)
	}
}

// TestWarmStartCLIRoundTrip: -warm-start accepts a log file, a server
// URL, and the literal "registry"; the warm-started run still reports a
// full fresh-trial tune (warm start costs no budget) and "registry"
// without -registry-url fails fast.
func TestWarmStartCLIRoundTrip(t *testing.T) {
	srv := regserver.New(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	dir := t.TempDir()
	logFile := filepath.Join(dir, "history.json")
	exec(t, "-workload", "GMM.s1", "-trials", "16", "-per-round", "8", "-seed", "5",
		"-log", logFile, "-registry-url", hs.URL)
	if srv.Registry().Len() == 0 {
		t.Fatal("seed run published nothing")
	}

	for _, args := range [][]string{
		{"-workload", "GMM.s1", "-trials", "8", "-per-round", "8", "-seed", "6", "-warm-start", logFile},
		{"-workload", "GMM.s1", "-trials", "8", "-per-round", "8", "-seed", "6", "-warm-start", hs.URL},
		{"-workload", "GMM.s1", "-trials", "8", "-per-round", "8", "-seed", "6",
			"-registry-url", hs.URL, "-warm-start", "registry"},
		{"-workload", "GMM.s1", "-trials", "8", "-per-round", "8", "-seed", "6",
			"-warm-start", logFile + "," + hs.URL},
	} {
		out := exec(t, args...)
		if !strings.Contains(out, "(8 fresh trials)") {
			t.Fatalf("warm-started run should spend its full fresh budget:\n%s", out)
		}
	}

	var out, errb bytes.Buffer
	if err := run([]string{"-workload", "GMM.s1", "-warm-start", "registry"}, &out, &errb); err == nil {
		t.Error("-warm-start registry without -registry-url must fail")
	}
	if err := run([]string{"-workload", "GMM.s1", "-warm-start", "http://127.0.0.1:1"}, &out, &errb); err == nil {
		t.Error("-warm-start against an unreachable server must fail fast")
	}
}

// TestFleetCLIRoundTrip drives -fleet-url end to end: a broker and two
// mixed-capacity workers run in-process, and the fleet-measured tuning
// output must be byte-identical to the local run's.
func TestFleetCLIRoundTrip(t *testing.T) {
	broker := fleet.NewBroker()
	hs := httptest.NewServer(broker.Handler())
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	machine := sim.IntelXeon() // -target intel
	for i, capy := range []int{2, 4} {
		w := fleet.NewWorker(hs.URL, fmt.Sprintf("cli-w%d", i), machine, capy)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	defer wg.Wait()
	defer cancel()

	args := []string{"-workload", "GMM.s1", "-trials", "16", "-per-round", "8", "-seed", "4"}
	local := exec(t, args...)
	viaFleet := exec(t, append(args, "-fleet-url", hs.URL)...)
	if local != viaFleet {
		t.Errorf("fleet-measured CLI output diverged from local:\n--- local\n%s\n--- fleet\n%s", local, viaFleet)
	}
	m, err := fleet.NewClient(hs.URL).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsCompleted == 0 {
		t.Error("the fleet run should have completed jobs on the broker")
	}

	var out, errb bytes.Buffer
	if err := run([]string{"-workload", "GMM.s1", "-fleet-url", "http://127.0.0.1:1"}, &out, &errb); err == nil {
		t.Error("-fleet-url against an unreachable broker must fail fast")
	}
}

// TestWarmStartLimitCLI: -warm-start-limit caps the absorbed history
// deterministically; the run still spends its full fresh budget.
func TestWarmStartLimitCLI(t *testing.T) {
	dir := t.TempDir()
	logFile := filepath.Join(dir, "history.json")
	exec(t, "-workload", "GMM.s1", "-trials", "16", "-per-round", "8", "-seed", "5", "-log", logFile)

	args := []string{"-workload", "GMM.s1", "-trials", "8", "-per-round", "8", "-seed", "6",
		"-warm-start", logFile, "-warm-start-limit", "4"}
	first := exec(t, args...)
	if !strings.Contains(first, "(8 fresh trials)") {
		t.Fatalf("limited warm start should spend its full fresh budget:\n%s", first)
	}
	if second := exec(t, args...); second != first {
		t.Error("limited warm start must be deterministic across runs")
	}
}
