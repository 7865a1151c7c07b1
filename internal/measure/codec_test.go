package measure

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
)

// refSave and refLoad are the reflection loops the record codec
// replaced, frozen as its reference: AppendRecord must write what
// refSave writes, and Load must return what refLoad returns.
func refSave(w io.Writer, l *Log) error {
	enc := json.NewEncoder(w)
	for _, rec := range l.Records {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("measure: save log: %w", err)
		}
	}
	return nil
}

func refLoad(r io.Reader) (*Log, error) {
	dec := json.NewDecoder(r)
	l := &Log{}
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return l, nil
		} else if err != nil {
			return nil, fmt.Errorf("measure: load log: %w", err)
		}
		if rec.Steps == nil {
			return nil, fmt.Errorf("measure: load log: entry is not a record")
		}
		l.Records = append(l.Records, rec)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkDecodes holds Load to refLoad and DecodeRecord to json.Unmarshal
// on data: the same records, Steps bytes included, and the same error.
func checkDecodes(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := Load(bytes.NewReader(data))
	want, wantErr := refLoad(bytes.NewReader(data))
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("Load(%q): error %v, reference %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Load(%q) = %+v, reference %+v", data, got, want)
	}
	rec, err := DecodeRecord(data)
	var ref Record
	refErr := json.Unmarshal(data, &ref)
	if errText(err) != errText(refErr) || !reflect.DeepEqual(rec, ref) {
		t.Fatalf("DecodeRecord(%q) = %+v, %v; json.Unmarshal: %+v, %v", data, rec, err, ref, refErr)
	}
}

// FuzzRecordCodec holds the hand-written record codec to encoding/json.
// Arbitrary bytes must load (and decode as one record) exactly as the
// reflection reference reads them; a record built from the other
// arguments must encode to the reference's bytes, or fail with its
// error, and its line must read back as the reference reads it.
func FuzzRecordCodec(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "*.log"))
	if err != nil || len(golden) == 0 {
		f.Fatalf("no golden logs: %v", err)
	}
	steps := []byte(`[{"kind":"Split","data":{"Stage":"C","IterIdx":0,"Factors":[4,8]}}]`)
	line := `{"task":"t","target":"x","sig":"s","dag":"d","steps":[],"seconds":2,"noiseless":1.5}` + "\n"
	add := func(data []byte, task string, steps []byte, seconds, noiseless float64) {
		f.Add(data, task, "intel-20c-avx2", "sig;", "b5424a4345e42360", steps, math.Float64bits(seconds), math.Float64bits(noiseless))
	}
	for _, p := range golden {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		add(data, "GMM.s1", steps, 3.6e-4, 3.5e-4)
	}
	for _, data := range []string{
		line,
		strings.Replace(line, `}`, `,"measured_on":"intel-20c-avx512","clock":"intel-20c-avx512"}`, 1),
		strings.Replace(line, `[]`, `null`, 1),
		strings.Replace(line, `[]`, "[ {\"kind\" :\t\"Fuse\" } ,\n1 ]", 1),
		`{"seconds":2,"steps":[],"task":"t"}` + "\n",
		strings.TrimSuffix(line, "\n") + line,
		line + line[:40],
		strings.Replace(line, `"t"`, `"t<"`, 1),
		strings.Replace(line, `[]`, `[1,]`, 1),
		strings.Replace(line, `1.5`, `1e400`, 1),
		strings.Replace(line, `2,`, `-0,`, 1),
		" " + line + "\n\n" + line,
		"[1,2,3]\n" + line,
		line[:len(line)-1],
	} {
		add([]byte(data), "t", steps, 1, 0.5)
	}
	for _, c := range []struct {
		task               string
		steps              string
		seconds, noiseless float64
	}{
		{"t", `[]`, 1, math.Copysign(0, -1)},
		{"t", `[]`, 1e-7, 1e21},
		{"t", `[]`, math.SmallestNonzeroFloat64, 5e-324 * 3},
		{"t", `[]`, math.NaN(), 1},
		{"t", `[]`, 1, math.Inf(1)},
		{"t", `[]`, math.Inf(-1), 1},
		{"<a&b>\"\\", `[]`, 1, 1},
		{"ctl\x01\x7f", `["<"]`, 1, 1},
		{"é\xff ", `["é "]`, 1, 1},
		{"t", `[1,]`, 1, 1},
		{"t", ` [ 1 ] `, 1, 1},
		{"t", `["\u00zz"]`, 1, 1},
		{"t", "", 1, 1},
	} {
		add(nil, c.task, []byte(c.steps), c.seconds, c.noiseless)
	}
	f.Fuzz(func(t *testing.T, data []byte, task, target, sig, dag string, steps []byte, seconds, noiseless uint64) {
		checkDecodes(t, data)

		rec := Record{Task: task, Target: target, Sig: sig, DAG: dag, Steps: steps,
			Seconds: math.Float64frombits(seconds), Noiseless: math.Float64frombits(noiseless)}
		got, err := AppendRecord([]byte("prefix"), rec)
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(rec)
		if errText(err) != errText(wantErr) {
			t.Fatalf("AppendRecord(%+v): error %v, json.Encoder %v", rec, err, wantErr)
		}
		if string(got) != "prefix"+want.String() {
			t.Fatalf("AppendRecord(%+v) = %q, json.Encoder wrote %q", rec, got, want.Bytes())
		}
		checkDecodes(t, got[len("prefix"):])
	})
}

// serveMixLog is a store shaped like serve-mix's: two records per key,
// about 0.9 KB each.
func serveMixLog(keys int) *Log {
	l := &Log{}
	for k := 0; k < keys; k++ {
		for v := 0; v < 2; v++ {
			var b strings.Builder
			fmt.Fprintf(&b, `[{"step":"SP","stage":"conv","iter":%d,"lengths":[%d,%d,%d]}`, k%5, 1+k%7, 2+v%5, 4)
			for j := 0; j < 14; j++ {
				fmt.Fprintf(&b, `,{"step":"AN","stage":"conv","iter":%d,"ann":%d}`, j, (k+v+j)%4)
			}
			b.WriteByte(']')
			s := 1e-4 * (1 + float64(k%997)/997) * (1.5 - 0.5*float64(v))
			l.Records = append(l.Records, Record{Task: fmt.Sprintf("wl%05d", k), Target: "intel-20c-avx2",
				Sig: fmt.Sprintf("%016x", uint64(k*2+v)*0x9e3779b97f4a7c15), DAG: fmt.Sprintf("%016x", uint64(k)*0xc2b2ae3d27d4eb4f),
				Steps: json.RawMessage(b.String()), Seconds: s, Noiseless: s})
		}
	}
	return l
}

// c2dLog is a C2D.s1 tuning log as the in-package measurer records it.
func c2dLog(b *testing.B, n int) *Log {
	ms := New(sim.IntelXeon(), 0.02, 1)
	l := &Log{}
	if _, err := l.AddAll("C2D.s1", ms.Machine.Name, ms.Measure(c2dBatch(b, n))); err != nil {
		b.Fatal(err)
	}
	return l
}

type benchLog struct {
	name string
	l    *Log
}

// benchLogs are the two shapes the layer benchmarks run over.
func benchLogs(b *testing.B) []benchLog {
	return []benchLog{{"serve-mix", serveMixLog(1000)}, {"C2D.s1", c2dLog(b, 256)}}
}

// perRecord reports the loop's time and allocations per record.
func perRecord(b *testing.B, records int, loop func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	loop()
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N * records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/record")
}

// BenchmarkLogSave: Log.Save of a whole log to a discarding writer.
func BenchmarkLogSave(b *testing.B) {
	for _, c := range benchLogs(b) {
		b.Run(c.name, func(b *testing.B) {
			perRecord(b, len(c.l.Records), func() {
				for i := 0; i < b.N; i++ {
					if err := c.l.Save(io.Discard); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkLogLoad: Load of a whole saved log.
func BenchmarkLogLoad(b *testing.B) {
	for _, c := range benchLogs(b) {
		var buf bytes.Buffer
		if err := c.l.Save(&buf); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			perRecord(b, len(c.l.Records), func() {
				for i := 0; i < b.N; i++ {
					if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
