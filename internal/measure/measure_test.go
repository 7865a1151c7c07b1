package measure

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/te"
)

func matmulState(t *testing.T) *ir.State {
	t.Helper()
	b := te.NewBuilder("mm")
	a := b.Input("A", 64, 64)
	b.Matmul(a, 64, true)
	return ir.NewState(b.MustFinish())
}

func TestMeasureCountsTrials(t *testing.T) {
	ms := New(sim.IntelXeon(), 0, 1)
	s := matmulState(t)
	res := ms.Measure([]*ir.State{s, s, s})
	if ms.Trials() != 3 {
		t.Errorf("trials = %d, want 3", ms.Trials())
	}
	for _, r := range res {
		if r.Err != nil || r.Seconds <= 0 {
			t.Errorf("bad result %+v", r)
		}
		if r.Seconds != r.NoiselessSeconds {
			t.Error("zero-noise measurement should be exact")
		}
		if r.NoiselessSeconds <= 0 {
			t.Error("model time should be positive")
		}
	}
}

func TestMeasureNoiseBoundedAndDeterministic(t *testing.T) {
	ms := New(sim.IntelXeon(), 0.05, 42)
	s := matmulState(t)
	r1 := ms.Measure([]*ir.State{s})[0]
	r2 := ms.Measure([]*ir.State{s})[0]
	if r1.Seconds != r2.Seconds {
		t.Error("noise must be deterministic per program")
	}
	ratio := r1.Seconds / r1.NoiselessSeconds
	if ratio < math.Exp(-0.05) || ratio > math.Exp(0.05) {
		t.Errorf("noise factor %.4f outside e^±0.05", ratio)
	}
}

func TestMeasureIncompleteProgramFails(t *testing.T) {
	s := matmulState(t)
	s.MustApply(&ir.MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS"})
	ms := New(sim.IntelXeon(), 0, 1)
	r := ms.Measure([]*ir.State{s})[0]
	if r.Err == nil {
		t.Error("incomplete program should fail to measure")
	}
	if r.NoiselessSeconds != 0 || r.Seconds != 0 {
		t.Error("failed measurement should report no time")
	}
}

func TestDifferentSeedsDifferentNoise(t *testing.T) {
	s := matmulState(t)
	a := New(sim.IntelXeon(), 0.05, 1).Measure([]*ir.State{s})[0]
	b := New(sim.IntelXeon(), 0.05, 2).Measure([]*ir.State{s})[0]
	if a.Seconds == b.Seconds {
		t.Error("different measurer seeds should perturb differently")
	}
}

// foreignStep is a Step type from outside ir: it applies (to nothing),
// and ir.EncodeSteps refuses it.
type foreignStep struct{}

func (foreignStep) Name() string          { return "foreign" }
func (foreignStep) StageName() string     { return "matmul" }
func (foreignStep) Apply(*ir.State) error { return nil }

// TestStepsEncodedOnlyForWhoNeedsThem: the front half encodes a step list
// only for the cache, and a list the codec refuses only misses it. In
// process that costs nothing else. A backend is handed every program the
// cache did not serve — with the bytes the lookup made, without them
// when there was no cache or no bytes — encodes the rest itself, leaves
// what it shipped in EncSteps and owns the refusal as that program's
// error. Under a backend the front half lowers nothing: a program that
// does not lower comes back as the backend's error. Either is still a
// trial.
func TestStepsEncodedOnlyForWhoNeedsThem(t *testing.T) {
	plain, odd, incomplete := matmulState(t), matmulState(t), matmulState(t)
	odd.MustApply(foreignStep{})
	incomplete.MustApply(&ir.MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS"})
	batch := []*ir.State{plain, odd, incomplete}
	want := sim.IntelXeon().Time(mustLower(t, plain))

	bare := New(sim.IntelXeon(), 0, 1)
	cached := New(sim.IntelXeon(), 0, 1)
	cached.Cache = NewMeasuredSet()
	for name, ms := range map[string]*Measurer{"bare": bare, "cached": cached} {
		for i, r := range ms.Measure(batch) {
			if measured := r.Err == nil && !r.Cached && r.NoiselessSeconds > 0; measured != (i != 2) {
				t.Errorf("%s measurer, program %d: %+v, want only the incomplete one to fail in process", name, i, r)
			}
			if wantBytes := ms.Cache != nil && i != 1; (r.EncSteps != nil) != wantBytes {
				t.Errorf("%s measurer, program %d: steps %q, want bytes = %v", name, i, r.EncSteps, wantBytes)
			}
		}
	}

	for _, withCache := range []bool{false, true} {
		var handed []int
		var arrived []bool
		backed := New(sim.IntelXeon(), 0.02, 1)
		if withCache {
			backed.Cache = NewMeasuredSet()
		}
		// A backend by the contract: encode what arrived without bytes,
		// ship it (here: lower and time it), leave the bytes in EncSteps.
		backed.Backend = func(_ string, out []Result, fresh []int) {
			handed = fresh
			for _, i := range fresh {
				arrived = append(arrived, out[i].EncSteps != nil)
				if out[i].EncSteps == nil {
					enc, err := ir.AppendSteps(nil, out[i].State.Steps)
					if err != nil {
						out[i].Err = fmt.Errorf("encode steps: %w", err)
						continue
					}
					out[i].EncSteps = enc
				}
				low, err := ir.LowerBorrowed(out[i].State)
				if err != nil {
					out[i].Err = fmt.Errorf("lower: %w", err)
					continue
				}
				out[i].NoiselessSeconds = sim.IntelXeon().Time(low)
				low.Release()
			}
		}
		res := backed.Measure(batch)
		wantArrived := []bool{withCache, false, withCache}
		if !reflect.DeepEqual(handed, []int{0, 1, 2}) || !reflect.DeepEqual(arrived, wantArrived) {
			t.Errorf("cache %v: backend was handed %v with bytes %v, want [0 1 2] with bytes %v", withCache, handed, arrived, wantArrived)
		}
		if res[0].Err != nil || res[0].NoiselessSeconds != want || len(res[0].EncSteps) == 0 {
			t.Errorf("cache %v: program 0 came back %+v, want its time and its bytes", withCache, res[0])
		}
		if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "encode steps") || res[1].State != odd || res[1].Seconds != 0 {
			t.Errorf("cache %v: program 1 under a backend = %+v, want its encode error and no time", withCache, res[1])
		}
		if res[2].Err == nil || !strings.Contains(res[2].Err.Error(), "lower:") || len(res[2].EncSteps) == 0 || res[2].Seconds != 0 {
			t.Errorf("cache %v: program 2 under a backend = %+v, want the backend's lowering error, its bytes and no time", withCache, res[2])
		}
		if backed.Trials() != 3 {
			t.Errorf("cache %v: trials = %d, want 3: an errored program is still not cache-served", withCache, backed.Trials())
		}
	}
}

// TestMeasureBorrowedLoweringAcrossWorkers: in process, every program is
// lowered into pooled scratch that the measurer's goroutines share, one
// borrower at a time. A 64-program batch (with a program that does not
// lower, whose scratch goes back on the error path) measures bit-identically
// at Workers 1 and 8, and each time equals a to-size lowering's.
func TestMeasureBorrowedLoweringAcrossWorkers(t *testing.T) {
	batch := c2dBatch(t, 63)
	bad := matmulState(t)
	bad.MustApply(&ir.MultiLevelTileStep{Stage: "matmul", Structure: "SSRSRS"})
	batch = append(batch[:32:32], append([]*ir.State{bad}, batch[32:]...)...)
	machine := sim.IntelXeon()
	for _, workers := range []int{1, 8} {
		ms := New(machine, 0.02, 1)
		ms.Workers = workers
		for i, r := range ms.Measure(batch) {
			low, err := ir.Lower(batch[i])
			if (r.Err != nil) != (err != nil) {
				t.Fatalf("workers=%d program %d: measure error %v, lowering error %v", workers, i, r.Err, err)
			}
			if err != nil {
				continue
			}
			if want := machine.Time(low); math.Float64bits(r.NoiselessSeconds) != math.Float64bits(want) {
				t.Errorf("workers=%d program %d: %v s, a to-size lowering times %v s", workers, i, r.NoiselessSeconds, want)
			}
		}
	}
}

func mustLower(t *testing.T, s *ir.State) *ir.Lowered {
	t.Helper()
	low, err := ir.Lower(s)
	if err != nil {
		t.Fatal(err)
	}
	return low
}

func TestLogRoundTrip(t *testing.T) {
	b := te.NewBuilder("mm")
	a := b.Input("A", 64, 64)
	b.Matmul(a, 64, true)
	d := b.MustFinish()
	s := ir.NewState(d)
	s.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: 0, Ann: ir.AnnParallel})

	ms := New(sim.IntelXeon(), 0, 1)
	res := ms.Measure([]*ir.State{s, ir.NewState(d)})
	var log Log
	n, err := log.AddAll("mm", ms.Machine.Name, res)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(log.Records) != 2 {
		t.Fatalf("recorded %d (len %d), want 2", n, len(log.Records))
	}
	for _, rec := range log.Records {
		if rec.Target != ms.Machine.Name || rec.Sig == "" || rec.Noiseless <= 0 {
			t.Errorf("record missing persistence fields: %+v", rec)
		}
	}

	var buf bytes.Buffer
	if err := log.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Records, log.Records) {
		t.Errorf("loaded records differ from saved:\n%+v\n%+v", loaded.Records, log.Records)
	}
}

func TestLogRejectsFailedResult(t *testing.T) {
	var log Log
	if err := log.Add("t", "m", Result{Err: fmt.Errorf("boom")}); err == nil {
		t.Error("failed result recorded")
	}
}

// AddAll adds every successful result of a batch through Add and
// returns how many it added and the first error.
func (l *Log) AddAll(task, target string, rs []Result) (int, error) {
	n := 0
	for _, r := range rs {
		if r.Err != nil || r.Seconds <= 0 {
			continue
		}
		if err := l.Add(task, target, r); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// TestSaveFileFailureKeepsOldFile: a SaveFile that fails midway — its
// second record does not encode — leaves the file it was to replace
// byte-identical and no temp file behind.
func TestSaveFileFailureKeepsOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.json")
	good := Log{Records: []Record{{Task: "t", Steps: json.RawMessage(`[]`), Seconds: 1}}}
	if err := good.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := Log{Records: []Record{
		{Task: "u", Steps: json.RawMessage(`[]`), Seconds: 2},
		{Task: "u", Steps: json.RawMessage(`[`), Seconds: 3},
	}}
	if err := bad.SaveFile(path); err == nil {
		t.Fatal("SaveFile of a record with broken steps succeeded")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("failed SaveFile changed the file: %q (%v), was %q", after, err, before)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed SaveFile left %s.tmp behind (stat: %v)", path, err)
	}
}

func TestLogLineOrientedAndLegacyLoad(t *testing.T) {
	s := matmulState(t)
	s2 := matmulState(t)
	s2.MustApply(&ir.AnnotateStep{Stage: "matmul", IterIdx: 0, Ann: ir.AnnParallel})
	ms := New(sim.IntelXeon(), 0, 1)
	var log Log
	if _, err := log.AddAll("mm", "m1", ms.Measure([]*ir.State{s, s2})); err != nil {
		t.Fatal(err)
	}

	// Line-oriented: one JSON object per line, appendable.
	var buf bytes.Buffer
	if err := log.Save(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("saved %d lines, want 2", len(lines))
	}
	// Appending another Save output to the same stream still loads.
	if err := log.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Records) != 4 {
		t.Fatalf("loaded %d records, want 4", len(loaded.Records))
	}

	// Anything that is not a record is refused, the single-object
	// {"records": [...]} form included — also after good records, and
	// without handing back a partial log.
	for _, bad := range []string{
		`{"records":[{"task":"mm","steps":[],"seconds":0.5}]}`,
		`{"neither":1}`,
		`{"task":"mm","steps":[],"seconds":0.5}` + "\n" + `{"records":[]}`,
	} {
		if l, err := Load(strings.NewReader(bad)); err == nil || l != nil || !strings.Contains(err.Error(), "not a record") {
			t.Errorf("Load(%s) = %+v, %v; want the not-a-record refusal", bad, l, err)
		}
	}
}

func TestMeasuredSetServesCachedResults(t *testing.T) {
	s := matmulState(t)
	ms := New(sim.IntelXeon(), 0.05, 7)
	var recorded bytes.Buffer
	ms.Recorder = NewRecorder(&recorded)
	first := ms.MeasureTask("mm", []*ir.State{s})[0]
	if ms.Trials() != 1 {
		t.Fatalf("trials = %d, want 1", ms.Trials())
	}

	// A second measurer resuming from the recorded log serves the same
	// result without spending a trial.
	ms2 := New(sim.IntelXeon(), 0.05, 7)
	ms2.Cache = NewMeasuredSet()
	log, err := Load(&recorded)
	if err != nil {
		t.Fatal(err)
	}
	if n := ms2.Cache.AddLog(log); n != 1 {
		t.Fatalf("cache loaded %d records, want 1", n)
	}
	r := ms2.MeasureTask("mm", []*ir.State{s})[0]
	if !r.Cached {
		t.Fatal("result should be served from the measured-set")
	}
	if r.Seconds != first.Seconds || r.NoiselessSeconds != first.NoiselessSeconds {
		t.Errorf("cached result diverged: %+v vs %+v", r, first)
	}
	if ms2.Trials() != 0 {
		t.Errorf("cached measurement cost %d trials, want 0", ms2.Trials())
	}

	// Other tasks and the task-less Measure path never see mm's entries.
	if r := ms2.MeasureTask("other", []*ir.State{s})[0]; r.Cached {
		t.Error("cache must be task-scoped")
	}
	if r := ms2.Measure([]*ir.State{s})[0]; r.Cached {
		t.Error("cache must not leak into task-less measurements")
	}
}

func TestRecorderDedupesAndStreams(t *testing.T) {
	s := matmulState(t)
	ms := New(sim.IntelXeon(), 0, 1)
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	ms.Recorder = rec
	ms.MeasureTask("mm", []*ir.State{s, s})
	ms.MeasureTask("mm", []*ir.State{s})
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Records) != 1 {
		t.Fatalf("stream has %d records, want 1 (dedupe)", len(loaded.Records))
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}

	// MarkSeen suppresses re-recording what an existing file already has.
	var buf2 bytes.Buffer
	rec2 := NewRecorder(&buf2)
	rec2.MarkSeen(loaded)
	ms2 := New(sim.IntelXeon(), 0, 1)
	ms2.Recorder = rec2
	ms2.MeasureTask("mm", []*ir.State{s})
	if buf2.Len() != 0 {
		t.Errorf("recorder re-recorded pre-seen records: %q", buf2.String())
	}
}

// TestRecorderConcurrentLinesIntact: goroutines recording distinct
// records into one recorder share its line buffer, one at a time. Every
// line its sink receives loads, and the sink holds exactly the records
// recorded, each goroutine's in the order it recorded them.
func TestRecorderConcurrentLinesIntact(t *testing.T) {
	const goroutines, each = 8, 32
	want := map[string]Record{} // by steps, which are distinct
	for g := 0; g < goroutines; g++ {
		for i := 0; i < each; i++ {
			steps := fmt.Sprintf(`[{"kind":"Inline","data":{"Stage":"s%d_%d"}}]`, g, i)
			want[steps] = Record{Task: fmt.Sprintf("task%d", g), Target: "m", DAG: "d", Sig: strings.Repeat("x", i),
				Steps: []byte(steps), Seconds: float64(i+1) * 1e-3, Noiseless: float64(g+1) * 1e-7}
		}
	}
	var sink bytes.Buffer
	r := NewRecorder(&sink)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := want[fmt.Sprintf(`[{"kind":"Inline","data":{"Stage":"s%d_%d"}}]`, g, i)]
				if fresh, err := r.Record(rec); !fresh || err != nil {
					t.Errorf("record %d of goroutine %d: fresh=%v err=%v", i, g, fresh, err)
				}
			}
		}(g)
	}
	wg.Wait()
	got, err := Load(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("the sink's lines do not load: %v", err)
	}
	if len(got.Records) != len(want) {
		t.Fatalf("the sink holds %d records, want %d", len(got.Records), len(want))
	}
	for _, rec := range got.Records {
		if !reflect.DeepEqual(rec, want[string(rec.Steps)]) {
			t.Fatalf("the sink holds %+v, recorded %+v", rec, want[string(rec.Steps)])
		}
		delete(want, string(rec.Steps))
	}
	next := map[string]int{} // by task (one a goroutine), the index of the next record
	for _, rec := range got.Records {
		if i := len(rec.Sig); i != next[rec.Task] { // record i's Sig is i bytes long
			t.Fatalf("the sink holds record %d of %s where %d was next", i, rec.Task, next[rec.Task])
		}
		next[rec.Task]++
	}
}

// failAfter fails every Write after the first n.
type failAfter struct {
	n, writes int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, fmt.Errorf("sink died")
	}
	return len(p), nil
}

func TestRecorderTeesFailIndependently(t *testing.T) {
	var primary bytes.Buffer
	sick := &failAfter{n: 1}
	healthy := &bytes.Buffer{}
	r := NewRecorder(&primary)
	r.Tee(sick)
	r.Tee(healthy)

	s := matmulState(t)
	ms := New(sim.IntelXeon(), 0, 1)
	for i := 0; i < 3; i++ {
		res := ms.Measure([]*ir.State{s})[0]
		rec, err := NewRecord(fmt.Sprintf("t%d", i), "m", res)
		if err != nil {
			t.Fatal(err)
		}
		r.Record(rec)
	}
	count := func(b *bytes.Buffer) int {
		l, err := Load(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return len(l.Records)
	}
	// The sick tee took 1 record then died; the primary sink and the
	// healthy tee must both hold all 3.
	if got := count(&primary); got != 3 {
		t.Errorf("primary sink got %d records, want 3", got)
	}
	if got := count(healthy); got != 3 {
		t.Errorf("healthy tee starved by its sick sibling: %d records, want 3", got)
	}
	// The sick tee's error still surfaces.
	if r.Err() == nil {
		t.Error("sick tee's error must latch")
	}
	if err := r.Close(); err == nil {
		t.Error("Close must report the latched tee error")
	}
}
