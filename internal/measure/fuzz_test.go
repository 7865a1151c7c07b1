package measure

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenSeeds feeds every committed golden log into a fuzz corpus (and
// doubles as the corpus for hand-run `go test -fuzz`).
func goldenSeeds(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.log"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no testdata golden logs found")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// FuzzLogLoad hammers the log parser with arbitrary bytes: malformed,
// truncated, and single-object inputs must never panic, must report the same
// (record count, error) on every load of the same bytes, and whatever
// loads cleanly must survive a save/load round trip: the same fields, and
// Steps as Save writes them — Save∘Load∘Save equals Save byte for byte.
func FuzzLogLoad(f *testing.F) {
	goldenSeeds(f)
	f.Add([]byte(``))
	f.Add([]byte(`{"records":[]}`))
	f.Add([]byte(`{"task":"t","steps":[]}` + "\n"))
	f.Add([]byte(`{"task":"t","steps":[]}` + "\n" + `{"task":`)) // truncated tail
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"records":[{"task":"a","steps":[]}],"steps":[]}`))
	f.Add([]byte(`{"records":[{"task":"mm","steps":[],"seconds":0.5}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		l1, err1 := Load(bytes.NewReader(data))
		l2, err2 := Load(bytes.NewReader(data))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("inconsistent error: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if len(l1.Records) != len(l2.Records) {
			t.Fatalf("inconsistent count: %d vs %d", len(l1.Records), len(l2.Records))
		}
		// A clean load must round-trip: saving and re-loading yields the
		// same records (the append-durability invariant of tuning logs).
		var buf bytes.Buffer
		if err := l1.Save(&buf); err != nil {
			t.Fatalf("save of a loaded log failed: %v", err)
		}
		l3, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-load of a saved log failed: %v", err)
		}
		if len(l3.Records) != len(l1.Records) {
			t.Fatalf("round trip changed record count: %d -> %d", len(l1.Records), len(l3.Records))
		}
		for i := range l1.Records {
			a, b := l1.Records[i], l3.Records[i]
			// Steps are raw JSON, compacted and escaped by Save: the fixed
			// point below compares them.
			if a.Task != b.Task || a.Target != b.Target || a.Sig != b.Sig || a.DAG != b.DAG ||
				a.Seconds != b.Seconds || a.Noiseless != b.Noiseless {
				t.Fatalf("round trip changed record %d: %+v -> %+v", i, a, b)
			}
		}
		var again bytes.Buffer
		if err := l3.Save(&again); err != nil {
			t.Fatalf("save of a re-loaded log failed: %v", err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Fatalf("Save∘Load∘Save is not Save:\n%q\n%q", buf.Bytes(), again.Bytes())
		}
	})
}

// TestGoldenLogFormat pins the on-disk log format: the committed golden
// file must keep loading with the same contents and re-save
// byte-identically (append-compatibility across versions).
func TestGoldenLogFormat(t *testing.T) {
	lines, err := LoadFile(filepath.Join("testdata", "golden_lines.log"))
	if err != nil {
		t.Fatalf("golden line-oriented log no longer loads: %v", err)
	}
	if len(lines.Records) != 3 {
		t.Fatalf("golden_lines.log: want 3 records, got %d", len(lines.Records))
	}
	for i, rec := range lines.Records {
		if rec.Task != "GMM.s1" || rec.Target != "intel-20c-avx2" || rec.DAG == "" ||
			rec.Seconds <= 0 || rec.Noiseless <= 0 || len(rec.Steps) == 0 {
			t.Errorf("golden record %d lost fields: %+v", i, rec)
		}
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_lines.log"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := lines.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Error("re-saving the golden line-oriented log changed its bytes; the log format drifted")
	}

	// The same records wrapped in one {"records": [...]} object are not
	// a log: a log is one record per JSON value.
	object := append([]byte(`{"records":[`), bytes.ReplaceAll(bytes.TrimSpace(raw), []byte("\n"), []byte(","))...)
	object = append(object, "]}"...)
	if l, err := Load(bytes.NewReader(object)); err == nil || !strings.Contains(err.Error(), "not a record") {
		t.Errorf("single-object log loaded as %+v, err=%v; want the not-a-record refusal", l, err)
	}

	_, err = LoadFile(filepath.Join("testdata", "truncated.log"))
	if err == nil {
		t.Error("truncated golden log should fail to load (and must not panic)")
	}
}

// TestRecorderTee proves Tee duplicates the stream: both sinks receive
// every recorded line, and a re-load of either equals the records
// recorded.
func TestRecorderTee(t *testing.T) {
	var a, b bytes.Buffer
	r := NewRecorder(&a)
	r.Tee(&b)
	src, err := LoadFile(filepath.Join("testdata", "golden_lines.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range src.Records {
		if _, err := r.Record(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("teed sinks diverged")
	}
	got, err := Load(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, src.Records) {
		t.Fatal("teed sink does not round-trip the recorded records")
	}

	// A tee on a sink-less recorder still receives the stream.
	var c bytes.Buffer
	r2 := NewRecorder(nil)
	r2.Tee(&c)
	if _, err := r2.Record(src.Records[0]); err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("tee on a sink-less recorder received nothing")
	}

	// Sinks fail independently: a dead tee (e.g. a crashed registry
	// server) latches an error but must not stop the primary durable
	// log from receiving the remaining records.
	var primary bytes.Buffer
	r3 := NewRecorder(&primary)
	r3.Tee(failingWriter{})
	for _, rec := range src.Records {
		if _, err := r3.Record(rec); err == nil {
			t.Fatal("failing tee should surface an error")
		}
	}
	if r3.Err() == nil {
		t.Fatal("failing tee should latch Err")
	}
	kept, err := Load(bytes.NewReader(primary.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(kept.Records) != len(src.Records) {
		t.Fatalf("primary sink lost records after tee failure: %d of %d",
			len(kept.Records), len(src.Records))
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, os.ErrClosed
}
