package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/measure"
	"repro/internal/registry"
	"repro/internal/regserver"
)

// Sizing of serve-mix: reads beside writes on the registry server.
const (
	serveKeys     = 20000 // more than the 4096-entry encoded-response cache
	serveZipfS    = 1.1
	serveWritePct = 10
	serveClients  = 2
	serveWarmOps  = 12000 // per client
	serveTarget   = "intel-xeon"
	// serveStepAnns sizes a record's step list (about 0.8 KB encoded).
	serveStepAnns = 14
	// serveStep is the relative improvement of one published version
	// over the last: small, so the served times barely drift in a run.
	serveStep = 1e-7
	// serveToggle is how many consecutive ops a traced run's client
	// sends through one front (timed / bare handler) before switching.
	serveToggle = 2000
	// serveProbeKeys sizes the 200-vs-304 probe of a traced run.
	serveProbeKeys = 2000
)

// serveData is everything serve-mix generates from the seed: the keys,
// the content of any version of any key's record, and the key-choice
// permutation. Version v of key k is strictly faster than version v-1,
// so every publish improves its key.
type serveData struct {
	seed  int64
	names []string
	dags  []string
	base  []float64
	// perm maps a Zipf rank to a key, so hot keys spread over both
	// clients' partitions.
	perm []int
	// versions[k] is the last version of key k its owner published.
	versions []atomic.Int32
}

func newServeData(seed int64) *serveData {
	d := &serveData{seed: seed, versions: make([]atomic.Int32, serveKeys)}
	rng := rand.New(rand.NewSource(derive(seed, "serve-keys", 0)))
	for k := 0; k < serveKeys; k++ {
		d.names = append(d.names, fmt.Sprintf("wl%05d", k))
		d.dags = append(d.dags, fmt.Sprintf("%016x", rng.Uint64()))
		d.base = append(d.base, 1e-4*(1+rng.Float64()))
	}
	d.perm = rng.Perm(serveKeys)
	return d
}

// seconds is the time version v of key k's record claims.
func (d *serveData) seconds(k, v int) float64 {
	if v < 0 {
		return d.base[k] * 1.5 // the superseded record the store also holds
	}
	return d.base[k] * (1 - float64(v)*serveStep)
}

func (d *serveData) sig(k, v int) string {
	return fmt.Sprintf("%016x", uint64(derive(d.seed, "serve-sig", k*1000003+v)))
}

func (d *serveData) record(k, v int) measure.Record {
	var b strings.Builder
	fmt.Fprintf(&b, `[{"step":"SP","stage":"conv","iter":%d,"lengths":[%d,%d,%d]}`, k%5, 1+k%7, 2+v%5, 4)
	for j := 0; j < serveStepAnns; j++ {
		fmt.Fprintf(&b, `,{"step":"AN","stage":"conv","iter":%d,"ann":%d}`, j, (k+v+j)%4)
	}
	b.WriteByte(']')
	s := d.seconds(k, v)
	return measure.Record{Task: d.names[k], Target: serveTarget, DAG: d.dags[k], Sig: d.sig(k, v),
		Steps: json.RawMessage(b.String()), Seconds: s, Noiseless: s}
}

// owner is the client that publishes key k.
func owner(k int) int { return k % serveClients }

// ownKey maps a drawn key to the nearest key client c owns.
func ownKey(k, c int) int {
	k -= (k - c + serveClients) % serveClients
	if k < 0 {
		k += serveClients
	}
	return k
}

// checkRead validates one served record of key k, read by client c
// while the key's published version went from before to after: it must
// be a version the benchmark itself published — exactly the last one
// for the reader's own keys, and for the other client's keys one no
// older than `before` and at most one publish (the one possibly in
// flight) newer than `after`.
func (d *serveData) checkRead(k, c int, rec measure.Record, before, after int) error {
	v := int(math.Round((1 - rec.Seconds/d.base[k]) / serveStep))
	lo, hi := before, after+1
	if owner(k) == c {
		lo, hi = after, after
	}
	if v < lo || v > hi {
		return fmt.Errorf("key %s: served version %d, published %d..%d", d.names[k], v, lo, hi)
	}
	if rec.Seconds != d.seconds(k, v) || rec.Sig != d.sig(k, v) || rec.Task != d.names[k] || rec.DAG != d.dags[k] {
		return fmt.Errorf("key %s: served record is not published version %d", d.names[k], v)
	}
	return nil
}

// reqTiming is one request as the timing handler saw it.
type reqTiming struct {
	start, dur int64 // ns; start since the handler was installed
	write      bool
	status     int
	bytes      int
}

// timingHandler wraps the server's handler for the traced run: it
// times every request from outside and records status and body size.
type timingHandler struct {
	inner http.Handler
	base  time.Time
	mu    sync.Mutex
	reqs  []reqTiming
}

type statusWriter struct {
	http.ResponseWriter
	status, bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	h.inner.ServeHTTP(sw, r)
	rt := reqTiming{start: int64(t0.Sub(h.base)), dur: int64(time.Since(t0)),
		write: r.Method == http.MethodPost, status: sw.status, bytes: sw.bytes}
	h.mu.Lock()
	h.reqs = append(h.reqs, rt)
	h.mu.Unlock()
}

type serveInstance struct {
	cfg   *config
	data  *serveData
	store string
	srv   *regserver.Server
	// bare serves srv.Handler() as is; timed (traced run only) serves it
	// behind the timing handler. Both front the same server state.
	bare, timed *httptest.Server
	timing      *timingHandler
	// clients[c] are client c's long-lived regserver.Clients, one per
	// front: they keep their validators from the warm-up on, so repeat
	// keys revalidate with If-None-Match.
	clients [][]*regserver.Client
}

func setupServeMix(cfg *config) (instance, error) {
	s := &serveInstance{cfg: cfg, data: newServeData(cfg.seed), store: filepath.Join(cfg.tmp, "store.jsonl")}
	// The store a restarted server finds: two records per key, the
	// superseded one first.
	var log measure.Log
	for k := 0; k < serveKeys; k++ {
		log.Records = append(log.Records, s.data.record(k, -1), s.data.record(k, 0))
	}
	if err := log.SaveFile(s.store); err != nil {
		return nil, err
	}
	var err error
	if s.srv, err = regserver.Open(s.store); err != nil {
		return nil, err
	}
	s.bare = httptest.NewServer(s.srv.Handler())
	if cfg.traced {
		s.timing = &timingHandler{inner: s.srv.Handler(), base: time.Now()}
		s.timed = httptest.NewServer(s.timing)
	}
	for c := 0; c < serveClients; c++ {
		fronts := []*regserver.Client{regserver.NewClient(s.bare.URL)}
		if s.timed != nil {
			fronts = append(fronts, regserver.NewClient(s.timed.URL))
		}
		s.clients = append(s.clients, fronts)
	}
	if ph, _ := s.drive(0, serveWarmOps, "warm"); ph.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %s", ph.firstFail)
	}
	return s, nil
}

func (s *serveInstance) close() error {
	s.bare.Close()
	if s.timed != nil {
		s.timed.Close()
	}
	return s.srv.Close()
}

// clientOp is one request as a client saw it.
type clientOp struct {
	sample
	write, timed bool
}

// drive runs the serveClients closed-loop clients until d has elapsed
// or, when maxOps > 0, until each has sent maxOps requests. Each client
// draws keys Zipf-distributed from its own stream; 10 % of its requests
// publish the next version of one of its own keys, the rest read.
func (s *serveInstance) drive(d time.Duration, maxOps int, stream string) (*phase, [][]clientOp) {
	ph := &phase{}
	var mu sync.Mutex // guards ph's failure fields
	ops := make([][]clientOp, serveClients)
	secs := make([][]float64, serveClients)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fronts := s.clients[c]
			rng := rand.New(rand.NewSource(derive(s.data.seed, "serve-"+stream, c)))
			zipf := rand.NewZipf(rng, serveZipfS, 1, serveKeys-1)
			fail := func(format string, args ...interface{}) {
				mu.Lock()
				ph.failf(format, args...)
				mu.Unlock()
			}
			for i := 0; (maxOps > 0 && i < maxOps) || (maxOps == 0 && time.Since(start) < d); i++ {
				front := (i / serveToggle) % len(fronts)
				cl := fronts[front]
				k := s.data.perm[zipf.Uint64()]
				op := clientOp{timed: front == 1}
				if rng.Intn(100) < serveWritePct {
					// Publish the next version of one of this client's
					// own keys: the drawn key or its partition twin.
					k = ownKey(k, c)
					v := int(s.data.versions[k].Load()) + 1
					rec := s.data.record(k, v)
					t0 := time.Now()
					improved, err := cl.Add(rec)
					op.ms, op.write = float64(time.Since(t0))/1e6, true
					switch {
					case err != nil:
						fail("client %d publish %s v%d: %v", c, s.data.names[k], v, err)
					case !improved:
						fail("client %d publish %s v%d: not improved", c, s.data.names[k], v)
					}
					s.data.versions[k].Store(int32(v))
				} else {
					before := int(s.data.versions[k].Load())
					t0 := time.Now()
					rec, ok, err := cl.Best(s.data.names[k], serveTarget, s.data.dags[k])
					op.ms = float64(time.Since(t0)) / 1e6
					after := int(s.data.versions[k].Load())
					switch {
					case err != nil:
						fail("client %d read %s: %v", c, s.data.names[k], err)
					case !ok:
						fail("client %d read %s: no record", c, s.data.names[k])
					default:
						if err := s.data.checkRead(k, c, rec, before, after); err != nil {
							fail("client %d: %v", c, err)
						} else {
							secs[c] = append(secs[c], rec.Seconds)
						}
					}
				}
				op.end, op.work = time.Since(start), 1
				ops[c] = append(ops[c], op)
			}
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	for c := range ops {
		for _, op := range ops[c] {
			ph.samples = append(ph.samples, op.sample)
		}
		ph.progSeconds = append(ph.progSeconds, secs[c]...)
	}
	return ph, ops
}

func (s *serveInstance) measure(d time.Duration) *phase {
	if s.timed == nil {
		ph, _ := s.drive(d, 0, "measure")
		return ph
	}
	cl := regserver.NewClient(s.bare.URL)
	before, berr := cl.Metrics()
	s.timing.mu.Lock()
	req0 := len(s.timing.reqs)
	s.timing.mu.Unlock()
	ph, ops := s.drive(d, 0, "measure")
	after, aerr := cl.Metrics()
	if berr != nil || aerr != nil {
		ph.failf("server /metrics: %v %v", berr, aerr)
	}

	// The clients' view, split by request kind and by front.
	var reads, writes, timedReads, bareReads []float64
	for c := range ops {
		for _, op := range ops[c] {
			us := op.ms * 1e3
			switch {
			case op.write:
				writes = append(writes, us)
			case op.timed:
				timedReads = append(timedReads, us)
				reads = append(reads, us)
			default:
				bareReads = append(bareReads, us)
				reads = append(reads, us)
			}
		}
	}
	// The handler's view of the requests that went through it: one span
	// per request.
	s.timing.mu.Lock()
	reqs := append([]reqTiming(nil), s.timing.reqs[req0:]...)
	s.timing.mu.Unlock()
	tr := &trace{}
	var hRead, hWrite []float64
	var readBytes int
	for i, r := range reqs {
		name := "GET /v1/best"
		if r.write {
			name = "POST /v1/records"
			hWrite = append(hWrite, float64(r.dur)/1e3)
		} else {
			hRead = append(hRead, float64(r.dur)/1e3)
			readBytes += r.bytes
		}
		tr.add(-1, i, fmt.Sprintf("%s %d", name, r.status), r.start, r.start+r.dur)
	}
	m := map[string]float64{
		"regserver.read_us_p50":          percentile(reads, 50),
		"regserver.read_us_p95":          percentile(reads, 95),
		"regserver.read_us_p99":          percentile(reads, 99),
		"regserver.write_us_p50":         percentile(writes, 50),
		"regserver.handler_read_us_p50":  median(hRead),
		"regserver.handler_write_us_p50": median(hWrite),
		"regserver.transport_us_p50":     median(timedReads) - median(hRead),
		"regserver.cache_evictions":      float64(after.CacheEvictions - before.CacheEvictions),
		"obs.events_per_op":              1,
	}
	ph.layers = m
	if len(bareReads) > 0 {
		m["obs.trace_overhead_pct"] = (median(timedReads)/median(bareReads) - 1) * 100
	}
	if len(hRead) > 0 {
		m["regserver.bytes_per_read"] = float64(readBytes) / float64(len(hRead))
	}
	if served := float64(after.BestHits + after.BestMisses - before.BestHits - before.BestMisses); served > 0 {
		m["regserver.hit_ratio"] = float64(after.BestHits-before.BestHits) / served
		m["regserver.not_modified_ratio"] = float64(after.BestNotModified-before.BestNotModified) / served
	}
	if offered := float64(after.RecordsOffered - before.RecordsOffered); offered > 0 {
		m["regserver.improved_ratio"] = float64(after.RecordsImproved-before.RecordsImproved) / offered
		m["regserver.store_bytes_per_write"] = float64(after.StoreBytes-before.StoreBytes) / offered
	}
	if err := s.probes(m); err != nil {
		ph.failf("serve-mix probes: %v", err)
	}
	if err := tr.write(filepath.Join(s.cfg.root, ".bench_build", "spans-serve-mix.jsonl")); err != nil {
		ph.failf("%v", err)
	}
	return ph
}

// probes times the layers under a request directly: a first read (200)
// against a revalidation (304) of cold keys through a fresh client, the
// registry's lookup and insert, the store load a restart pays, and the
// compacting snapshot.
func (s *serveInstance) probes(m map[string]float64) error {
	cl := regserver.NewClient(s.bare.URL)
	var first, again []float64
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < serveProbeKeys; i++ {
			k := s.data.perm[serveKeys-1-i] // the Zipf tail: not in any cache
			t0 := time.Now()
			_, ok, err := cl.Best(s.data.names[k], serveTarget, s.data.dags[k])
			us := float64(time.Since(t0)) / 1e3
			if err != nil || !ok {
				return fmt.Errorf("probe read %s: ok=%v err=%v", s.data.names[k], ok, err)
			}
			if pass == 0 {
				first = append(first, us)
			} else {
				again = append(again, us)
			}
		}
	}
	m["regserver.read_200_us_p50"], m["regserver.read_304_us_p50"] = median(first), median(again)

	reg := s.srv.Registry()
	ns, _, _ := timed(10*serveKeys, func(i int) {
		k := i % serveKeys
		reg.Best(s.data.names[k], serveTarget, s.data.dags[k])
	})
	m["registry.best_ns"] = ns
	fresh := registry.New()
	recs := make([]measure.Record, serveKeys)
	for k := range recs {
		recs[k] = s.data.record(k, 0)
	}
	ns, _, _ = timed(serveKeys, func(k int) { fresh.Add(recs[k]) })
	m["registry.add_us"] = ns / 1e3

	t0 := time.Now()
	if _, err := registry.LoadFile(s.store); err != nil {
		return err
	}
	m["registry.load_ms"] = float64(time.Since(t0)) / 1e6
	t0 = time.Now()
	if err := s.srv.Snapshot(); err != nil {
		return err
	}
	m["regserver.snapshot_ms"] = float64(time.Since(t0)) / 1e6
	return nil
}
