package ansor

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"testing"
)

// oneRunChild is the environment variable that makes this test binary,
// re-executed by TestOneRunAllocationCeiling, the process it measures; it
// holds the seed the child tunes with.
const oneRunChild = "ANSOR_ONE_RUN_CHILD"

// oneRunCeilingKiB bounds what the first TuneNetwork of a process
// allocates per trial. Six children on seed 1 (2 cores) read 97–102 KiB
// while the search rebuilt its tables and score memos per proposal,
// 81–88 with them borrowed, and 81–85 with the sampled and mutated
// steps carved from the proposal's arenas. That saves a fresh process
// far less than the benchmark's 7 KiB a trial: every arena of the run is
// new, and each slab of steps and factor lists it uses allocates its
// first 32 KiB chunk with it. The ceiling is about a tenth above.
const oneRunCeilingKiB = 93

// TestOneRunAllocationCeiling measures a process that tunes once, the
// traffic ansor-tune has: nothing on any free list, so every chunk,
// arena and table is new. It runs this test binary again, where
// oneRunChild is set, and the child runs one TuneNetwork with the
// benchmark's tune-net options (resnet-50, 16 trials a task in rounds of
// 8, two workers) and prints its bytes per trial. The benchmark's own
// ops run dozens to a process and reuse what the op before gave back,
// so they cannot read this figure. Run it by name:
//
//	go test -run TestOneRunAllocationCeiling -v ./ansor/
func TestOneRunAllocationCeiling(t *testing.T) {
	if seed := os.Getenv(oneRunChild); seed != "" {
		oneRun(t, seed)
		return
	}
	if testing.Short() || raceDetector {
		t.Skip("re-executes the test binary for one network tuning run, without the race detector")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestOneRunAllocationCeiling$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), oneRunChild+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("the child failed: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`one run: ([0-9.]+) KiB a trial`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("the child printed no figure:\n%s", out)
	}
	kib, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one run: %.1f KiB a trial", kib)
	if kib > oneRunCeilingKiB {
		t.Errorf("the first TuneNetwork of a process allocates %.1f KiB a trial, ceiling %d", kib, oneRunCeilingKiB)
	}
}

// oneRun is the child's side: one TuneNetwork, with runtime.MemStats
// read around it.
func oneRun(t *testing.T, seed string) {
	net, err := BuiltinNetwork("resnet-50", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := strconv.ParseInt(seed, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := TuneNetwork(net, TargetIntelCPU(false), TuningOptions{
		Trials: 16, MeasuresPerRound: 8, Workers: 2, Seed: s})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("one run: %.2f KiB a trial\n", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(res.Trials))
}
