package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzEventRoundTrip pins encode/decode as inverses over arbitrary
// field values: whatever an emitter writes, a reader gets back.
func FuzzEventRoundTrip(f *testing.F) {
	f.Add("phase", "mm.s1", "intel", 3, "sketch", "t0#1", "j7", "w-a", "sig", 0.5, 12.5, 16, 64, "refit")
	f.Add("best_improved", "", "", 0, "", "", "", "", "", 1e-9, 0.0, 0, 0, "")
	f.Add("batch_queued", "конв", "", -1, "", `q"{}`, "\n", "", "", -2.5, 0.0, -3, 1, "<detail&>")
	f.Fuzz(func(t *testing.T, typ, task, target string, round int, phase, trace, job, worker, sig string,
		seconds, durMS float64, count, trials int, detail string) {
		if math.IsNaN(seconds) || math.IsInf(seconds, 0) || math.IsNaN(durMS) || math.IsInf(durMS, 0) {
			t.Skip("JSON cannot carry non-finite floats")
		}
		in := Event{
			V: Version, TS: "2026-01-01T00:00:00Z", Type: typ, Task: task, Target: target,
			Round: round, Phase: phase, Trace: trace, Job: job, Worker: worker, Signature: sig,
			Seconds: seconds, DurMS: durMS, Count: count, Trials: trials, Detail: detail,
		}
		b, err := in.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var out Event
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("decode %q: %v", b, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed the event:\nin  %+v\nout %+v", in, out)
		}
	})
}

// TestDecodeIgnoresUnknownFields: a reader of this version still reads
// a newer emitter's lines.
func TestDecodeIgnoresUnknownFields(t *testing.T) {
	var e Event
	if err := json.Unmarshal([]byte(`{"v":1,"ts":"t","type":"phase","future_field":42}`), &e); err != nil {
		t.Fatal(err)
	}
	if e.Type != "phase" {
		t.Errorf("decoded %+v", e)
	}
}
