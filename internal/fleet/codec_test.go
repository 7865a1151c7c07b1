package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/jsonx"
)

// The bodies' hand codec (wire.go) against the reflection calls it
// replaced, kept here as the oracle: json.Marshal of each struct (the
// job status went out through json.Encoder, the same bytes and a
// newline), and json.Unmarshal into a fresh one.

// wireKind is one body type: its hand reader and writer, and the oracle.
type wireKind struct {
	name   string
	hand   func([]byte) (any, bool)
	decode func([]byte) (any, error)
	ref    func([]byte) (any, error)
	write  func(any) ([]byte, error)
}

func kindOf[T any](name string, read func(*jsonx.Reader) T, write func([]byte, T) ([]byte, error)) wireKind {
	return wireKind{
		name: name,
		hand: func(b []byte) (any, bool) {
			d := jsonx.NewReader(b)
			v := read(&d)
			return v, d.Whole()
		},
		decode: func(b []byte) (any, error) {
			d := jsonx.NewReader(b)
			v, err := jsonx.Decode(&d, read(&d))
			return v, err
		},
		ref: func(b []byte) (any, error) {
			var v T
			err := json.Unmarshal(b, &v)
			return v, err
		},
		write: func(v any) ([]byte, error) { return write(nil, v.(T)) },
	}
}

func noErr[T any](write func([]byte, T) []byte) func([]byte, T) ([]byte, error) {
	return func(b []byte, v T) ([]byte, error) { return write(b, v), nil }
}

var wireKinds = []wireKind{
	kindOf("job", readJob, noErr(appendJob)),
	kindOf("lease", func(r *jsonx.Reader) LeaseRequest { return readLease(r, nil) }, appendLease),
	kindOf("results", func(r *jsonx.Reader) ResultPost { return readResults(r, nil) }, appendResults),
	kindOf("grant", readGrant, noErr(appendGrant)),
	kindOf("status", readStatus, appendStatus),
}

// wireValues are bodies of every kind, with every optional member on and
// off, nil and empty lists, and numbers at encoding/json's format edges.
// Their strings are plain: what this program sends.
func wireValues() [][]any {
	post := ResultPost{Worker: "w1", Job: "9f-3", Lease: 1 << 40, Results: []WorkerResult{
		{Index: 0, Noiseless: 0.000123}, {Index: 7, Noiseless: 1e-7}, {Index: 2, Noiseless: 3e21},
		{Index: 3, Noiseless: -0.5, Err: "replay: ir: replay step 2 (Split): factors [3] do not divide extent 64"}, {Index: -1},
		{Index: 4, Noiseless: math.SmallestNonzeroFloat64}, {Index: 5, Noiseless: math.MaxFloat64}, {Index: 6, Noiseless: 1e-6}}}
	plainPost := ResultPost{Job: "j", Lease: 3, Results: []WorkerResult{{Index: 1, Noiseless: 2.5}}}
	return [][]any{
		{JobSpec{ID: "x"}, JobSpec{ID: "9f-1", Target: "intel-20c-avx512", Task: "C2D.s1", Trace: "C2D.s1@intel#3",
			DAGBin: []byte("TED\x01\x00\xff"), Count: 64, WaitMS: 10000}, JobSpec{ID: "", DAGBin: []byte{}, Count: -1, WaitMS: -5}},
		{LeaseRequest{Worker: "w", Target: "cpu"}, LeaseRequest{Worker: "w", Target: "cpu", Capacity: 16, WaitMS: 10000, Done: &plainPost},
			LeaseRequest{Worker: "w", Target: "cpu", Capacity: -3, Done: &ResultPost{}},
			LeaseRequest{Worker: "w", Target: "cpu", Capacity: 1, Done: &ResultPost{Job: "j", Results: []WorkerResult{}}}},
		{post, plainPost, ResultPost{}, ResultPost{Worker: "w", Results: []WorkerResult{}}},
		{LeaseGrant{Lease: 1, Job: "j", Target: "cpu", Indices: []int{0, 1, 15}},
			LeaseGrant{Lease: 9, Job: "j", Task: "t", Trace: "t@cpu#1", Target: "cpu", DAGBin: []byte("TED\x01abc"), Indices: []int{}},
			LeaseGrant{}},
		{JobStatus{ID: "j", Target: "cpu", Total: 64, Completed: 12},
			JobStatus{ID: "j", Target: "cpu", Task: "t", Total: 3, Completed: 3, Done: true, Results: []UnitResult{
				{Done: true, Noiseless: 0.0042}, {Done: true, Err: "lower: x"}, {}, {Noiseless: -0.0}, {Done: true, Noiseless: 7e-300}}},
			JobStatus{Results: []UnitResult{}}},
	}
}

// TestWireCodecMatchesEncodingJSON: every body is written byte for byte
// as json.Marshal writes it, read back by hand — the hand reader takes
// everything this program writes — and read as json.Unmarshal reads it;
// NaN and ±Inf are refused with json.Marshal's error; and a string the
// hand layout does not hold is still written and read as encoding/json
// does.
func TestWireCodecMatchesEncodingJSON(t *testing.T) {
	odd := "<a&b> café\xff\x01\"\\ "
	for k, values := range wireValues() {
		kind := wireKinds[k]
		for _, v := range values {
			got, err := kind.write(v)
			want, rerr := json.Marshal(v)
			if err != nil || rerr != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s %+v writes %s (%v), json.Marshal %s (%v)", kind.name, v, got, err, want, rerr)
			}
			hand, ok := kind.hand(got)
			ref, _ := kind.ref(got)
			if !ok || !reflect.DeepEqual(hand, ref) {
				t.Fatalf("%s %s: read by hand: %v, %+v; json.Unmarshal: %+v", kind.name, got, ok, hand, ref)
			}
		}
	}
	for k, v := range []any{
		JobSpec{ID: odd, Task: odd}, LeaseRequest{Worker: odd, Target: odd, Done: &ResultPost{Job: odd}},
		ResultPost{Worker: odd, Job: odd, Results: []WorkerResult{{Err: odd}}},
		LeaseGrant{Job: odd, Trace: odd, Target: odd}, JobStatus{ID: odd, Target: odd, Results: []UnitResult{{Err: odd}}},
	} {
		kind := wireKinds[k]
		got, err := kind.write(v)
		if want, _ := json.Marshal(v); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s writes %s (%v), json.Marshal %s", kind.name, got, err, want)
		}
		if _, ok := kind.hand(got); ok {
			t.Fatalf("%s %s read by hand, escapes and all", kind.name, got)
		}
		dec, err := kind.decode(got)
		if ref, _ := kind.ref(got); err != nil || !reflect.DeepEqual(dec, ref) {
			t.Fatalf("%s %s decodes to %+v (%v), json.Unmarshal to %+v", kind.name, got, dec, err, ref)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, v := range []any{
			LeaseRequest{Done: &ResultPost{Results: []WorkerResult{{Noiseless: f}}}},
			ResultPost{Results: []WorkerResult{{Noiseless: f}}},
			JobStatus{Results: []UnitResult{{Noiseless: f}}},
		} {
			kind := map[reflect.Type]wireKind{reflect.TypeOf(LeaseRequest{}): wireKinds[1],
				reflect.TypeOf(ResultPost{}): wireKinds[2], reflect.TypeOf(JobStatus{}): wireKinds[4]}[reflect.TypeOf(v)]
			_, err := kind.write(v)
			_, rerr := json.Marshal(v)
			if err == nil || rerr == nil || err.Error() != rerr.Error() {
				t.Errorf("%s with %v: %v, json.Marshal: %v", kind.name, f, err, rerr)
			}
		}
	}
}

// wireSeeds are bodies the hand reader must leave to encoding/json, or
// that encoding/json refuses.
var wireSeeds = []string{
	``, `null`, `{}`, `[]`, `{"id":"x"} x`, `{"id":"x"}` + "\n\t ",
	`{"id":"x","target":"cpu","dag_bin":"!!!"}`, `{"id":"x","dag_bin":""}`, `{"id":"x","dag_bin":null}`, `{"id":"x","count":1.0}`,
	`{"id":"x","count":01}`, `{"id":"x","count":1e2}`, `{"id":"x","count":9223372036854775808}`, `{"id":"x","ID":"y"}`,
	`{"target":"cpu","id":"x"}`, `{"id":"x","id":"y"}`, `{"id" : "x"}`, `{"id":"x"}`,
	`{"worker":"w","target":"cpu","capacity":2,"max_distance":1,"accept":["dag-bin-v1"]}`,
	`{"worker":"w","target":"cpu","capacity":2,"done":null}`, `{"worker":"w","target":"cpu","capacity":2,"done":{"job":"j","lease":1,"results":[{"index":0,"noiseless":1e999}]}}`,
	`{"worker":"w","job":"job-1","lease":1,"results":[{"index":0,"measured_on":"intel-20c-avx512","clock":"intel-20c-avx512"}]}`,
	`{"job":"j","lease":1,"results":[{"index":0,"noiseless":-0},{"index":1,"noiseless":-1.5E+3}]}`, `{"job":"j","lease":1,"results":[,]}`,
	`{"lease":1,"job":"j","target":"cpu","indices":[1,]}`, `{"lease":1,"job":"j","target":"cpu","indices":[-0]}`,
	`{"id":"j","target":"cpu","total":1,"completed":1,"done":true,"results":null}`,
	`{"id":"j","target":"cpu","total":1,"completed":1,"done":true,"results":[{"done":tru}]}`,
}

// FuzzWireCodec is the bodies' differential: for any bytes and any body
// type, decode reads what json.Unmarshal reads, or fails with its error;
// and what it reads is written as json.Marshal writes it, and those bytes
// are read as json.Unmarshal reads them.
func FuzzWireCodec(f *testing.F) {
	for k, values := range wireValues() {
		for _, v := range values {
			b, _ := wireKinds[k].write(v)
			f.Add(uint8(k), b)
		}
	}
	for _, s := range wireSeeds {
		for k := range wireKinds {
			f.Add(uint8(k), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		kind := wireKinds[int(k)%len(wireKinds)]
		got, err := kind.decode(data)
		want, rerr := kind.ref(data)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("%s %q: decode fails with %v, json.Unmarshal with %v", kind.name, data, err, rerr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %q decodes to %+v, json.Unmarshal to %+v", kind.name, data, got, want)
		}
		enc, err := kind.write(want)
		ref, rerr := json.Marshal(want)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() || !bytes.Equal(enc, ref) {
			t.Fatalf("%s %+v writes %s (%v), json.Marshal %s (%v)", kind.name, want, enc, err, ref, rerr)
		}
		if err != nil {
			return
		}
		again, err := kind.decode(enc)
		if ref, _ := kind.ref(enc); err != nil || !reflect.DeepEqual(again, ref) {
			t.Fatalf("%s %s reads back as %+v (%v), json.Unmarshal reads %+v", kind.name, enc, again, err, ref)
		}
	})
}
