package session

import (
	"flag"
	"io"
	"testing"
)

// TestFlagsResumeImpliesLog: -resume alone records to the log it resumes
// from; an explicit -log wins.
func TestFlagsResumeImpliesLog(t *testing.T) {
	for _, tc := range []struct {
		args        []string
		record, res string
	}{
		{[]string{"-resume", "a.json"}, "a.json", "a.json"},
		{[]string{"-resume", "a.json", "-log", "b.json"}, "b.json", "a.json"},
		{[]string{"-log", "b.json"}, "b.json", ""},
		{nil, "", ""},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := RegisterFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if s := f.Spec(); s.RecordTo != tc.record || s.ResumeFrom != tc.res {
			t.Errorf("%q: RecordTo %q ResumeFrom %q, want %q %q", tc.args, s.RecordTo, s.ResumeFrom, tc.record, tc.res)
		}
	}
}
