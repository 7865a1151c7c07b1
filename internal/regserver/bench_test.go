package regserver_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/ansor"
	"repro/internal/measure"
	"repro/internal/registry"
	"repro/internal/regserver"
	"repro/internal/workloads"
)

// benchRegistry tunes one small task for real and returns the registry
// holding its best schedule, so both apply-best paths replay a genuine
// program.
func benchRegistry(b *testing.B) (*registry.Registry, ansor.Task) {
	b.Helper()
	var dag *ansor.DAG
	for _, w := range workloads.SingleOps(1) {
		if w.Key == "GMM.s1" {
			dag = w.Build()
		}
	}
	if dag == nil {
		b.Fatal("GMM.s1 not found")
	}
	task := ansor.NewTask("GMM.s1", dag, ansor.TargetIntelCPU(false))
	logFile := filepath.Join(b.TempDir(), "log.json")
	tuner, err := ansor.NewTuner(task, ansor.TuningOptions{
		Trials: 16, MeasuresPerRound: 8, Seed: 5, RecordTo: logFile,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tuner.Tune(); err != nil {
		b.Fatal(err)
	}
	if err := tuner.Close(); err != nil {
		b.Fatal(err)
	}
	reg, err := registry.LoadFile(logFile)
	if err != nil {
		b.Fatal(err)
	}
	return reg, task
}

// BenchmarkApplyBest compares serving a best schedule from the
// in-process registry against the registry service over loopback HTTP:
// the latency cost of sharing the database across tuning jobs.
func BenchmarkApplyBest(b *testing.B) {
	reg, task := benchRegistry(b)
	target := task.Target.Machine.Name

	b.Run("source=inprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec, ok := reg.BestFor(task.Name, target, task.DAG)
			if !ok {
				b.Fatal("no best record")
			}
			if _, err := rec.Replay(task.DAG); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("source=server", func(b *testing.B) {
		srv := regserver.New(reg)
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		cl := regserver.NewClient(hs.URL)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec, ok, err := cl.BestFor(task.Name, target, task.DAG)
			if err != nil || !ok {
				b.Fatal(ok, err)
			}
			if _, err := rec.Replay(task.DAG); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// serveRec builds a record with a realistically sized schedule: tuning
// logs carry the full step list (hundreds of bytes to a few KB), and the
// serve path's marshal cost scales with it.
func serveRec(i int) measure.Record {
	steps := `[{"step":"SP","stage":"matmul","iter":0,"lengths":[4,8,16]}`
	for j := 0; j < 24; j++ {
		steps += fmt.Sprintf(`,{"step":"AN","stage":"matmul","iter":%d,"ann":%d}`, j, i%7)
	}
	steps += `]`
	return measure.Record{
		Task: fmt.Sprintf("task%03d", i), Target: "intel-xeon", DAG: fmt.Sprintf("dag%03d", i%8),
		Steps:   json.RawMessage(steps),
		Seconds: 1 + float64(i%97)/100, Noiseless: 1 + float64(i%97)/100,
	}
}

// BenchmarkServeBest measures the /v1/best serve path at the handler
// level (loopback HTTP round trips would mask it) across the cache
// regimes and shard counts, with parallel clients:
//
//   - nocache: the pre-cache serve path — registry lookup + JSON marshal
//     per request (SetBestCache(0)).
//   - cold: every request misses the cache (capacity 1, cycling keys),
//     so it pays the miss path including the fill attempt.
//   - warm: every request hits the cache — the steady state of a fleet
//     reusing far more schedules than it searches.
//   - conditional: warm plus a current If-None-Match validator — the
//     steady state of revalidating clients, served as a bodyless 304.
//
// Reported per variant: ns/op, requests/s, and response-body
// bytes/request (≈0 for conditional).
func BenchmarkServeBest(b *testing.B) {
	const nKeys = 256
	for _, mode := range []string{"nocache", "cold", "warm", "conditional"} {
		for _, shards := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("mode=%s/shards=%d", mode, shards), func(b *testing.B) {
				reg := registry.NewSharded(shards)
				for i := 0; i < nKeys; i++ {
					if !reg.Add(serveRec(i)) {
						b.Fatal("benchmark record rejected")
					}
				}
				srv := regserver.New(reg)
				switch mode {
				case "nocache":
					srv.SetBestCache(0)
				case "cold":
					srv.SetBestCache(1) // cycling nKeys keys: ~every request misses
				}
				h := srv.Handler()

				// Pre-built read-only requests (and their validators, via a
				// warming pass that also fills the cache for warm/conditional).
				reqs := make([]*http.Request, nKeys)
				etags := make([]string, nKeys)
				for i := 0; i < nKeys; i++ {
					r := serveRec(i)
					u := fmt.Sprintf("/v1/best?workload=%s&target=%s&dag=%s", r.Task, r.Target, r.DAG)
					req, err := http.NewRequest("GET", u, nil)
					if err != nil {
						b.Fatal(err)
					}
					reqs[i] = req
					w := httptest.NewRecorder()
					h.ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						b.Fatalf("warming GET %s: %d", u, w.Code)
					}
					etags[i] = w.Header().Get("ETag")
				}

				var bodyBytes atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						req := reqs[i%nKeys]
						if mode == "conditional" {
							req = req.Clone(context.Background())
							req.Header.Set("If-None-Match", etags[i%nKeys])
						}
						w := httptest.NewRecorder()
						h.ServeHTTP(w, req)
						if mode == "conditional" {
							if w.Code != http.StatusNotModified {
								b.Fatalf("want 304, got %d", w.Code)
							}
						} else if w.Code != http.StatusOK {
							b.Fatalf("want 200, got %d", w.Code)
						}
						bodyBytes.Add(int64(w.Body.Len()))
						i++
					}
				})
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
				b.ReportMetric(float64(bodyBytes.Load())/float64(b.N), "bytes/req")
			})
		}
	}
}

// BenchmarkRecorderPublish measures the recorder hot path while
// publishing to a registry server with a little per-request latency:
// the batched writer costs a record only a buffer append (flushes
// happen off the recorder's lock in the background).
func BenchmarkRecorderPublish(b *testing.B) {
	const delay = 500 * time.Microsecond
	srv := regserver.New(nil)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay) // a distant or busy server
		srv.Handler().ServeHTTP(w, r)
	}))
	defer hs.Close()
	cl := regserver.NewClient(hs.URL)
	rec := measure.NewRecorder(io.Discard) // stand-in for the log file
	rec.Tee(cl.BatchWriter(64, 50*time.Millisecond))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = rec.Record(measure.Record{
			Task: "op", Target: "cpu", DAG: "d",
			Steps:   json.RawMessage(fmt.Sprintf(`[{"i":%d}]`, i)),
			Seconds: 1 + float64(i), Noiseless: 1 + float64(i),
		})
	}
	b.StopTimer()
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
}
