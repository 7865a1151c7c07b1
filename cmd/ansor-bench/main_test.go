package main

import (
	"bytes"
	"errors"
	"flag"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/measure"
	"repro/internal/regserver"
	"repro/internal/session"
)

// TestApplyBestPrintsRows: -apply-best prints one row per (workload,
// target, shape) with its best time, from a log file and, through the
// literal "registry", from the -registry-url server holding the same
// records.
func TestApplyBestPrintsRows(t *testing.T) {
	l := &measure.Log{Records: []measure.Record{
		{Task: "op-a", Target: "cpu", DAG: "0123456789ab", Steps: []byte(`[{"i":0}]`), Seconds: 2, Noiseless: 2},
		{Task: "op-a", Target: "cpu", DAG: "0123456789ab", Steps: []byte(`[{"i":1}]`), Seconds: 1, Noiseless: 1},
		{Task: "op-b", Target: "gpu", DAG: "ff", Steps: []byte(`[{"i":2}]`), Seconds: 0.5, Noiseless: 0.5},
	}}
	file := filepath.Join(t.TempDir(), "log.json")
	if err := l.SaveFile(file); err != nil {
		t.Fatal(err)
	}
	const want = "" +
		"workload                         target               shape           seconds\n" +
		"op-a                             cpu                  01234567              1\n" +
		"op-b                             gpu                  ff                  0.5\n"
	var out, errb bytes.Buffer
	if err := run([]string{"-apply-best", file}, &out, &errb); err != nil {
		t.Fatalf("-apply-best %s: %v\n%s", file, err, errb.String())
	}
	if out.String() != want {
		t.Errorf("-apply-best %s printed\n%s\nwant\n%s", file, out.String(), want)
	}

	hs := httptest.NewServer(regserver.New(nil).Handler())
	defer hs.Close()
	if _, err := regserver.NewClient(hs.URL).AddLog(l); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-apply-best", "registry", "-registry-url", hs.URL}, &out, &errb); err != nil {
		t.Fatalf("-apply-best registry: %v\n%s", err, errb.String())
	}
	if out.String() != want {
		t.Errorf("-apply-best registry printed\n%s\nwant\n%s", out.String(), want)
	}
}

// TestUsageErrors: what ansor-bench exits 2 on (a bad flag, an unknown
// experiment, "registry" without -registry-url) is a session.UsageError;
// -h is flag.ErrHelp, on which it exits 0.
func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"-exp", "fig99"},
		{"-apply-best", "registry"},
		{"-not-a-flag"},
	} {
		if err := run(args, &out, &errb); !errors.As(err, new(session.UsageError)) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
	}
	if err := run([]string{"-h"}, &out, &errb); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("run(-h) = %v, want flag.ErrHelp", err)
	}
}
