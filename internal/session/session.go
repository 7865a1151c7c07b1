// Package session assembles and tears down the plumbing of one tuning
// run: the observer, the tuning log and resume cache, the registry tee,
// local or fleet measurement, the warm-start source. Every entry point —
// ansor.NewTuner, ansor.TuneNetwork, the figure harness behind
// ansor-bench — builds its run here, so they open the same things in the
// same order and close them under one contract (DESIGN.md, "Run
// assembly").
package session

import (
	"fmt"
	"os"

	"repro/internal/fleet"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/regserver"
	"repro/internal/sim"
	"repro/internal/warm"
)

// Spec names what a run is connected to. The zero Spec is a run with no
// plumbing: in-process measurement, nothing recorded, nothing narrated.
// The fields mean what the ansor.TuningOptions fields they are mapped
// from mean.
type Spec struct {
	RecordTo, ResumeFrom string
	RegistryURL          string
	FleetURL             string
	WarmStartFrom        string
	WarmStartLimit       int
	EventsTo             string
	// Observer, when set, is used as is and stays the caller's to close;
	// EventsTo is then ignored.
	Observer *obs.Observer
}

// Session is one assembled run. Its methods are for the goroutine that
// opened it; the measurers it hands out are safe for concurrent use as
// they always were. A nil *Session is the zero Spec's run.
type Session struct {
	spec    Spec
	obsv    *obs.Observer
	sink    obs.Sink // the EventsTo sink, owned; nil when off or caller-supplied
	rec     *measure.Recorder
	cache   *measure.MeasuredSet
	logFile *os.File
	warmSrc warm.Source
	remotes []*fleet.RemoteMeasurer

	closed   bool
	closeErr error
}

// Open assembles a run: it resolves the observer, opens the tuning log
// and resume cache, attaches the registry tee (seeding the server from
// the resume and record logs: a resumed run replays them from cache
// without re-recording, so the tee alone would miss them), pings the
// fleet broker and resolves the warm-start source. It fails fast and all
// or nothing: on an error everything opened so far is closed again.
func Open(spec Spec) (_ *Session, err error) {
	s := &Session{spec: spec, obsv: spec.Observer}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	if s.obsv == nil && spec.EventsTo != "" {
		if s.sink, err = obs.OpenSink(spec.EventsTo); err != nil {
			return nil, fmt.Errorf("events to %s: %w", spec.EventsTo, err)
		}
		s.obsv = obs.New(s.sink, obs.NewRegistry())
	}
	if s.rec, s.cache, s.logFile, err = measure.OpenPersistence(spec.RecordTo, spec.ResumeFrom); err != nil {
		return nil, err
	}
	if spec.RegistryURL != "" {
		rec, err := regserver.AttachRecorder(s.rec, spec.RegistryURL, spec.ResumeFrom, spec.RecordTo)
		if err != nil {
			return nil, fmt.Errorf("registry %s: %w", spec.RegistryURL, err)
		}
		s.rec = rec
	}
	if spec.FleetURL != "" {
		if err := fleet.NewClient(spec.FleetURL).Ping(); err != nil {
			return nil, fmt.Errorf("fleet %s: %w", spec.FleetURL, err)
		}
	}
	if spec.WarmStartFrom != "" {
		if s.warmSrc, err = warm.Open(spec.WarmStartFrom, spec.RegistryURL, spec.WarmStartLimit); err != nil {
			return nil, fmt.Errorf("warm start from %s: %w", spec.WarmStartFrom, err)
		}
	}
	return s, nil
}

// Observer returns the run's observer, nil when observability is off.
func (s *Session) Observer() *obs.Observer {
	if s == nil {
		return nil
	}
	return s.obsv
}

// noiseStd is the relative standard deviation of every run's simulated
// measurement noise.
const noiseStd = 0.02

// Measurer returns the run's measurer for the machine, wired to its
// recorder and resume cache: it times programs on the machine model in
// process or, with a FleetURL, through the broker, with noiseStd jitter
// seeded by seed. Close reports the first broker failure any fleet
// measurer latched.
func (s *Session) Measurer(m *sim.Machine, seed int64, workers int) *measure.Measurer {
	if s == nil {
		s = &Session{}
	}
	var ms *measure.Measurer
	if s.spec.FleetURL == "" {
		ms = measure.New(m, noiseStd, seed)
	} else {
		rm := fleet.NewRemoteMeasurer(s.spec.FleetURL, m.Name, noiseStd, seed)
		rm.Obs = s.obsv
		s.remotes = append(s.remotes, rm)
		ms = rm.Measurer
	}
	ms.Workers = workers
	ms.Recorder, ms.Cache = s.rec, s.cache
	return ms
}

// WarmStart seeds the policy from the run's warm-start source — fetch
// the target's records, absorb, narrate — and does nothing without one.
// Fetch and replay failures are errors: history from a drifted workload
// definition should fail loudly, as ApplyHistoryBest does, instead of
// silently starting cold.
func (s *Session) WarmStart(p *policy.Policy, target string) error {
	if s == nil || s.warmSrc == nil {
		return nil
	}
	recs, err := warm.Records(s.warmSrc, p.Task.Name, target)
	if err != nil {
		return fmt.Errorf("warm start task %s: %w", p.Task.Name, err)
	}
	n, err := p.WarmStart(recs)
	if err != nil {
		return fmt.Errorf("warm start task %s: %w", p.Task.Name, err)
	}
	s.obsv.Emit(obs.Event{Type: obs.EvWarmStart, Task: p.Task.Name, Target: target, Count: n,
		Detail: fmt.Sprintf("fetched=%d source=%s", len(recs), s.warmSrc.Name())})
	return nil
}

// Close is the run's one teardown. In order it flushes the recorder's
// registry publishing, reads the fleet measurers' latched broker error,
// closes the tuning log and drains the owned event sink — every one of
// them whatever the others returned — and reports the first failure,
// named after its sink. A run that lost records, batches or events is a
// divergent run; callers fail it. Closing again returns the same error.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	note := func(what string, err error) {
		if err != nil && s.closeErr == nil {
			s.closeErr = fmt.Errorf("%s: %w", what, err)
		}
	}
	if s.rec != nil {
		note("tuning log", s.rec.Close())
	}
	for _, rm := range s.remotes {
		note("fleet", rm.Err())
	}
	if s.logFile != nil {
		note("tuning log", s.logFile.Close())
	}
	if s.sink != nil {
		note("events", s.sink.Close())
	}
	return s.closeErr
}
