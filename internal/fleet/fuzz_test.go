package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The fuzz suite hammers the broker's decoders — POST /v1/lease and
// POST /v1/results on the worker's side, the NDJSON body of POST /v1/jobs
// on the submitter's — with arbitrary bodies. Three invariants are
// pinned for every input:
//
//  1. no panic (the handler survives anything on the wire);
//  2. the response is a sane protocol answer (200/204/400), never a 500
//     or a hang;
//  3. a rejected results post mutates NOTHING: results are validated
//     whole before the first write, so a malformed body can never leave
//     a job half-applied (some results accepted, the lease still live);
//     and a rejected submission leaves no job behind.
//
// Seed corpora live in testdata/fuzz/ and run on every plain `go test`;
// `go test -fuzz=FuzzLeaseDecode ./internal/fleet/` explores further.

// fuzzPost drives one POST through the broker's full handler stack with
// a short context deadline, so fuzz inputs that request a long poll
// (wait_ms) cannot stall the run.
func fuzzPost(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// fuzzBroker builds a broker holding one 3-program job with one live
// 2-program lease for worker "w" — the state a malformed post could
// corrupt.
func fuzzBroker(t testing.TB) (b *Broker, h http.Handler, jobID string, leaseID int64) {
	t.Helper()
	b = NewBroker()
	h = b.Handler()
	spec := synthJob("cpu", 3)
	spec.ID, spec.Count = "job-1", 3 // the id the seed corpus posts to
	body := joinLines(spec.DAGBin, spec.Programs, func(b []byte) []byte { return appendJob(b, spec) })
	rec := fuzzPost(h, "/v1/jobs", body)
	var ack JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || ack.ID != spec.ID || ack.Total != 3 {
		t.Fatalf("seed job: %s", rec.Body.Bytes())
	}
	lb, _ := json.Marshal(LeaseRequest{Worker: "w", Target: "cpu", Capacity: 2})
	rec = fuzzPost(h, "/v1/lease", lb)
	grant, err := decodeGrant(rec.Body.Bytes(), nil)
	if err != nil || grant.Lease == 0 {
		t.Fatalf("seed lease: %s", rec.Body.Bytes())
	}
	return b, h, ack.ID, grant.Lease
}

// jobSnap captures everything a results post may mutate.
type jobSnap struct {
	completed int
	queue     []int
	done      []bool
	leases    int
}

func snapJob(b *Broker, id string) jobSnap {
	b.mu.Lock()
	defer b.mu.Unlock()
	j := b.jobs[id]
	s := jobSnap{completed: j.completed, queue: append([]int(nil), j.queue...), leases: len(j.leases)}
	for _, r := range j.results {
		s.done = append(s.done, r.Done)
	}
	return s
}

func FuzzLeaseDecode(f *testing.F) {
	f.Add([]byte(`{"worker":"w","target":"cpu","capacity":2}`))
	f.Add([]byte(`{"worker":"w","target":"cpu","capacity":2,"max_distance":1,"accept":["dag-bin-v1"]}`))
	f.Add([]byte(`{"worker":"w","target":"nowhere","capacity":1,"wait_ms":99999999}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"worker":`))
	f.Add([]byte(`{"worker":1,"target":true}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"worker":"w","target":"cpu","capacity":-5,"max_distance":-3}`))
	f.Add([]byte(`{"worker":"w","target":"cpu","capacity":2,"done":{"job":"job-1","lease":1,"results":[{"index":0,"noiseless":1},{"index":1,"noiseless":2}]}}`))
	f.Add([]byte(`{"worker":"w","target":"cpu","capacity":2,"done":{"job":"job-1","lease":1,"results":[{"index":0,"noiseless":1},{"index":7}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, h, jobID, _ := fuzzBroker(t)
		before := snapJob(b, jobID)
		rec := fuzzPost(h, "/v1/lease", data)
		checkLeaseTable(t, b, "fuzzed lease request")
		switch rec.Code {
		case http.StatusOK:
			// A grant must decode and carry matched indices/programs.
			if _, err := decodeGrant(rec.Body.Bytes(), nil); err != nil {
				t.Fatalf("200 with undecodable grant: %v: %s", err, rec.Body.Bytes())
			}
		case http.StatusBadRequest:
			// A rejected request, results aboard or not, changed and
			// granted nothing.
			if after := snapJob(b, jobID); !reflect.DeepEqual(before, after) {
				t.Fatalf("rejected lease request mutated job state:\nbefore %+v\nafter  %+v\ninput  %q", before, after, data)
			}
		case http.StatusNoContent:
			// No work for the decoded target: fine.
		default:
			t.Fatalf("lease answered %d (body %q input %q), want 200/204/400", rec.Code, rec.Body.Bytes(), data)
		}
	})
}

func FuzzResultsDecode(f *testing.F) {
	f.Add([]byte(`{"worker":"w","job":"job-1","lease":1,"results":[{"index":0,"noiseless":1}]}`))
	f.Add([]byte(`{"worker":"w","job":"job-1","lease":1,"results":[{"index":0,"noiseless":1},{"index":7}]}`))
	f.Add([]byte(`{"worker":"w","job":"job-1","lease":1,"results":[{"index":-1}]}`))
	f.Add([]byte(`{"worker":"w","job":"nope","lease":1,"results":[{"index":0}]}`))
	f.Add([]byte(`{"worker":"w","job":"job-1","lease":1,"results":[{"index":0,"measured_on":"intel-20c-avx512","clock":"intel-20c-avx512"}]}`))
	f.Add([]byte(`{"results":`))
	f.Add([]byte(`{"results":[{"index":"zero"}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, h, jobID, _ := fuzzBroker(t)
		before := snapJob(b, jobID)
		rec := fuzzPost(h, "/v1/results", data)
		checkLeaseTable(t, b, "fuzzed results post")
		switch rec.Code {
		case http.StatusOK:
			var ack ResultAck
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatalf("200 with undecodable ack: %v: %s", err, rec.Body.Bytes())
			}
		case http.StatusBadRequest:
			// The invariant the pre-validation pass exists for: a rejected
			// post leaves the job EXACTLY as it was — no results marked
			// done, nothing pulled from the queue, the lease still live.
			after := snapJob(b, jobID)
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("rejected post mutated job state:\nbefore %+v\nafter  %+v\ninput  %q", before, after, data)
			}
		default:
			t.Fatalf("results answered %d (body %q input %q), want 200/400", rec.Code, rec.Body.Bytes(), data)
		}
	})
}

// FuzzJobDecode throws arbitrary bodies at POST /v1/jobs: the header line
// and the program lines a submission is framed as. A body is taken whole
// — one job, holding exactly the lines that were sent — or refused with
// nothing left behind.
func FuzzJobDecode(f *testing.F) {
	dag, _ := json.Marshal(synthDAG)
	head := func(count int) string {
		return fmt.Sprintf(`{"id":"j","target":"cpu","dag_bin":%s,"count":%d}`, dag, count) + "\n"
	}
	f.Add([]byte(head(2) + "[\"a\"]\n[\"b\"]\n"))
	f.Add([]byte(head(2) + "[\"a\"]\n[\"b\"]"))                          // truncated: the last line is cut short
	f.Add([]byte(head(3) + "[\"a\"]\n[\"b\"]\n"))                        // count above the lines
	f.Add([]byte(head(1) + "[\"a\"]\n[\"b\"]\n"))                        // count below the lines
	f.Add([]byte(head(2) + "[\"a\",\n\"b\"]\n[\"c\"]\n"))                // a newline inside a program
	f.Add([]byte(head(2) + "[\"a\"]\n\n[\"b\"]\n"))                      // an empty line
	f.Add([]byte(head(1) + "[\"" + strings.Repeat("x", 8192) + "\"]\n")) // over the body bound
	f.Add([]byte(head(-1)))
	f.Add([]byte(`{"id":"j"}` + "\n"))
	f.Add([]byte(`{"id":"j"}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewBroker()
		b.bodyLimit = 4096
		rec := fuzzPost(b.Handler(), "/v1/jobs", data)
		b.mu.Lock()
		defer b.mu.Unlock()
		switch rec.Code {
		case http.StatusOK:
			// A body that asked to wait was cut off by fuzzPost's deadline
			// and has no answer; the job it made is held all the same.
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil && rec.Body.Len() > 0 {
				t.Fatalf("200 with undecodable status: %v: %s", err, rec.Body.Bytes())
			}
			var j *job
			for _, j = range b.jobs {
				st.ID, st.Total = j.id, len(j.programs)
			}
			if len(b.jobs) != 1 || st.Total == 0 {
				t.Fatalf("accepted %q: status %+v, %d jobs held", data, st, len(b.jobs))
			}
			lines := bytes.SplitAfter(data, []byte("\n"))
			for i, p := range j.programs {
				if want := bytes.TrimSuffix(lines[i+1], []byte("\n")); !bytes.Equal(p, want) || len(p) == 0 {
					t.Fatalf("accepted %q: program %d is %q, sent as %q", data, i, p, want)
				}
			}
			if len(lines) != st.Total+2 || len(lines[st.Total+1]) != 0 {
				t.Fatalf("accepted %q with %d programs: bytes outside the counted lines", data, st.Total)
			}
		case http.StatusBadRequest, http.StatusNotFound:
			if len(b.jobs) != 0 || b.Obs.Metrics.Counter("jobs_submitted").Value() != 0 {
				t.Fatalf("refused %q (%d) left %d jobs behind", data, rec.Code, len(b.jobs))
			}
		default:
			t.Fatalf("submission answered %d (body %q input %q), want 200/400/404", rec.Code, rec.Body.Bytes(), data)
		}
	})
}
