package repro

import (
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// cliFlags is every flag each binary's FlagSet declares, in name order,
// with the default its help prints ("" when the default is the zero
// value), as "name=default". Renaming a flag, dropping one, adding one
// or moving a default changes a binary's surface, and this list with it.
var cliFlags = map[string][]string{
	"ansor-tune": {
		"apply-best=", "batch=1", "cpuprofile=", "events=", "fleet-url=", "list=",
		"log=", "memprofile=", "network=", "per-round=64", "registry-url=", "resume=",
		"seed=1", `target="intel"`, "trials=1000", "warm-start=", "warm-start-limit=",
		"workers=", "workload=",
	},
	"ansor-bench": {
		"apply-best=", "batch=1", "cpuprofile=", "events=", `exp="all"`, "fleet-url=",
		"log=", "memprofile=", "per-round=", "platform=", "registry-url=", "resume=",
		"runs=3", "seed=1", "trials=", "warm-start=", "warm-start-limit=", "workers=",
	},
	"ansor-worker": {
		`broker="http://127.0.0.1:8521"`, "capacity=4", "events=", "id=",
		"metrics-addr=", "pprof=", `target="intel"`,
	},
	"ansor-registry serve": {
		`addr="127.0.0.1:8421"`, "auth-token=", "pprof=", "snapshot-every=30s",
		`store="registry.json"`, "tls-cert=", "tls-key=",
	},
	"ansor-registry compact": {`store="registry.json"`, "top-k=10"},
	"ansor-registry fleet": {
		`addr="127.0.0.1:8521"`, "auth-token=", "events=", "lease-ttl=30s",
		"max-failures=3", "pprof=",
	},
}

// flagLine is a flag's first line in flag.PrintDefaults' output; the
// default closes the last line of its usage.
var (
	flagLine    = regexp.MustCompile(`^  -([^ ]+)`)
	defaultText = regexp.MustCompile(` \(default (.*)\)$`)
)

// TestCLIFlagSurface builds the four binaries and reads every flag and
// its default from each one's -h output, so the list holds for the
// FlagSet each binary really parses, however its flags are declared.
// Each binary, and each ansor-registry verb, also keeps the one exit
// rule: -h exits 0 and reports no error, and a bad flag exits 2 with the
// flag package's message printed once.
func TestCLIFlagSurface(t *testing.T) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	exitCode := func(err error) int {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0
	}
	for cmdline, want := range cliFlags {
		args := strings.Fields(cmdline)
		out, err := exec.Command(filepath.Join(bin, args[0]), append(args[1:], "-h")...).CombinedOutput()
		if code := exitCode(err); code != 0 || strings.Contains(string(out), "help requested") {
			t.Errorf("%s -h: exit %d, want 0 with no error line:\n%s", cmdline, code, out)
		}
		var got []string
		for _, line := range strings.Split(string(out), "\n") {
			if m := flagLine.FindStringSubmatch(line); m != nil {
				got = append(got, m[1]+"=")
			} else if m := defaultText.FindStringSubmatch(line); m != nil && len(got) > 0 {
				got[len(got)-1] += m[1]
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: flags and defaults\n got %q\nwant %q\nhelp output:\n%s", cmdline, got, want, out)
		}

		out, err = exec.Command(filepath.Join(bin, args[0]), append(args[1:], "-bogus")...).CombinedOutput()
		if code, n := exitCode(err), strings.Count(string(out), "flag provided but not defined: -bogus"); code != 2 || n != 1 {
			t.Errorf("%s -bogus: exit %d with the error printed %d times, want exit 2 and once:\n%s", cmdline, code, n, out)
		}
	}
}
