package session

import (
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/anno"
	"repro/internal/fleet"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/regserver"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/te"
)

var (
	errWrite = errors.New("disk full")
	errDrain = errors.New("stream torn")
)

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errWrite }

// spyCloser is a recorder tee that notes its Close: the recorder's own
// Close is what flushes registry publishing.
type spyCloser struct{ closed bool }

func (s *spyCloser) Write(p []byte) (int, error) { return len(p), nil }
func (s *spyCloser) Close() error                { s.closed = true; return nil }

type spySink struct {
	err    error
	closed bool
}

func (s *spySink) Emit(obs.Event) {}
func (s *spySink) Close() error   { s.closed = true; return s.err }

// oneProgram samples one complete, measurable program.
func oneProgram(t *testing.T) *ir.State {
	t.Helper()
	b := te.NewBuilder("mm")
	b.Matmul(b.Input("A", 64, 64), 64, true)
	sks, err := sketch.NewGenerator(sketch.CPUTarget()).Generate(b.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	states := anno.NewSampler(sketch.CPUTarget(), 7).SamplePopulation(sks, 1)
	if len(states) == 0 {
		t.Fatal("sampled no program")
	}
	return states[0]
}

// TestCloseReportsFirstFailureAndClosesEverySink is the teardown
// contract: each sink failing alone and in pairs, the error returned is
// the first in teardown order under its sink's name, and every sink was
// closed whatever an earlier one returned.
func TestCloseReportsFirstFailureAndClosesEverySink(t *testing.T) {
	prog := oneProgram(t)
	const rec, broker, file, sink = 1, 2, 4, 8
	for _, failing := range []int{0, rec, broker, file, sink,
		rec | broker, rec | file, rec | sink, broker | file, broker | sink, file | sink} {
		var w failingWriter
		r := measure.NewRecorder(nil)
		if failing&rec != 0 {
			r = measure.NewRecorder(w)
		}
		tee := &spyCloser{}
		r.Tee(tee)
		if _, err := r.Record(measure.Record{Task: "mm", Steps: []byte("[]"), Seconds: 1}); (err != nil) != (failing&rec != 0) {
			t.Fatalf("failing=%04b: recorder latched %v", failing, err)
		}

		rm := fleet.NewRemoteMeasurer("http://127.0.0.1:1", "intel-xeon", 0.02, 1)
		rm.Timeout = time.Second
		if failing&broker != 0 {
			rm.MeasureTask("mm", []*ir.State{prog})
			if rm.Err() == nil {
				t.Fatal("a dead broker latched nothing")
			}
		}

		f, err := os.Create(filepath.Join(t.TempDir(), "tune.json"))
		if err != nil {
			t.Fatal(err)
		}
		if failing&file != 0 {
			f.Close()
		}

		events := &spySink{}
		if failing&sink != 0 {
			events.err = errDrain
		}

		s := &Session{rec: r, remotes: []*fleet.RemoteMeasurer{rm}, logFile: f, sink: events}
		got := s.Close()
		var wantName string
		var wantCause error
		switch {
		case failing&rec != 0:
			wantName, wantCause = "tuning log: ", errWrite
		case failing&broker != 0:
			wantName, wantCause = "fleet: ", rm.Err()
		case failing&file != 0:
			wantName, wantCause = "tuning log: ", os.ErrClosed
		case failing&sink != 0:
			wantName, wantCause = "events: ", errDrain
		}
		if wantCause == nil {
			if got != nil {
				t.Errorf("failing=%04b: Close = %v, want nil", failing, got)
			}
		} else if got == nil || !errors.Is(got, wantCause) || !strings.HasPrefix(got.Error(), wantName) {
			t.Errorf("failing=%04b: Close = %v, want %q wrapping %v", failing, got, wantName, wantCause)
		}
		if !tee.closed {
			t.Errorf("failing=%04b: the recorder's tee was not flushed and closed", failing)
		}
		if err := f.Close(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("failing=%04b: the log file was left open", failing)
		}
		if !events.closed {
			t.Errorf("failing=%04b: the event sink was not drained", failing)
		}
		if again := s.Close(); again != got {
			t.Errorf("failing=%04b: second Close = %v, first %v", failing, again, got)
		}
	}
}

// openFiles lists what this process's descriptors point at.
func openFiles(t *testing.T) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to inspect: %v", err)
	}
	var out []string
	for _, fd := range fds {
		if dst, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil {
			out = append(out, dst)
		}
	}
	return out
}

// TestOpenFailsAllOrNothing fails the assembly at each stage after the
// first and checks the stages before it were undone: the tuning log and
// the event stream are closed again and neither the registry publisher's
// flusher nor the event sink's writer goroutine is left running.
func TestOpenFailsAllOrNothing(t *testing.T) {
	registry := httptest.NewServer(regserver.New(nil).Handler())
	defer registry.Close()
	broker := httptest.NewServer(fleet.NewBroker().Handler())
	defer broker.Close()
	const dead = "http://127.0.0.1:1"

	dir := t.TempDir()
	log, events := filepath.Join(dir, "tune.json"), filepath.Join(dir, "events.jsonl")
	for _, tc := range []struct {
		stage, want string
		spec        Spec
	}{
		{"record path", "record to", Spec{EventsTo: events, RecordTo: filepath.Join(dir, "missing", "tune.json")}},
		{"registry", "registry " + dead, Spec{EventsTo: events, RecordTo: log, RegistryURL: dead}},
		{"broker", "fleet " + dead, Spec{EventsTo: events, RecordTo: log, RegistryURL: registry.URL, FleetURL: dead}},
		{"warm spec", "warm start from ,", Spec{EventsTo: events, RecordTo: log, RegistryURL: registry.URL, FleetURL: broker.URL, WarmStartFrom: ","}},
	} {
		s, err := Open(tc.spec)
		if err == nil || s != nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Open = %v, %v; want an error naming %q", tc.stage, s, err, tc.want)
		}
		for _, path := range openFiles(t) {
			if path == log || path == events {
				t.Errorf("%s: %s is still open", tc.stage, path)
			}
		}
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		for _, fn := range []string{"regserver.(*BatchWriter).run", "obs.(*StreamSink).loop"} {
			if strings.Contains(string(stacks), fn) {
				t.Errorf("%s: a %s goroutine is still running", tc.stage, fn)
			}
		}
	}
	// The same specs, every stage reachable: the run opens and closes.
	s, err := Open(Spec{EventsTo: events, RecordTo: log, RegistryURL: registry.URL, FleetURL: broker.URL, WarmStartFrom: "registry"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNilSessionIsTheZeroRun: a config without a session measures in
// process, narrates nowhere, warm-starts from nothing and closes clean.
func TestNilSessionIsTheZeroRun(t *testing.T) {
	var s *Session
	ms := s.Measurer(sim.IntelXeon(), 1, 2)
	if ms.Backend != nil || ms.Workers != 2 || ms.Recorder != nil || ms.Cache != nil {
		t.Errorf("Measurer = %#v, want a bare in-process measurer with 2 workers", ms)
	}
	if s.Observer() != nil {
		t.Error("a nil session has no observer")
	}
	if err := s.WarmStart(nil, "intel-xeon"); err != nil {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
}
