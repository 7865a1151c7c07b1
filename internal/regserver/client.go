package regserver

import (
	"bytes"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/registry"
	"repro/internal/te"
)

// Client talks to a registry server, mirroring the in-process
// registry.Registry API (Add/AddLog/Best/BestFor/ApplyBest plus Records
// and Snapshot) with an added error return per call: the network is
// allowed to fail where process memory is not.
//
// The client keeps a per-key validator cache: every /v1/best response's
// ETag and body are remembered, and repeat requests go out as
// conditional GETs (If-None-Match). When the server's answer has not
// changed it responds 304 with no body, and the client decodes its
// cached bytes — so a fleet of clients re-checking unchanged schedules
// costs the server ~0 bytes and no marshaling. The cache is shared
// across WithTimeout/WithTLSConfig copies.
type Client struct {
	base  string
	token string
	hc    *http.Client
	vc    *validatorCache
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8421" or an https URL). A trailing slash is
// tolerated. A bearer token may be embedded in the URL's userinfo —
// "http://:TOKEN@host" — for servers started with -auth-token; it is
// stripped from the base and sent as an Authorization header instead
// (see SplitTokenURL).
func NewClient(base string) *Client {
	base, token := SplitTokenURL(base)
	return &Client{
		base:  strings.TrimRight(base, "/"),
		token: token,
		hc:    &http.Client{Timeout: 30 * time.Second},
		vc:    newValidatorCache(),
	}
}

// WithTimeout returns a copy of the client whose requests time out
// after d (the default is 30s). Batched publishers in latency-sensitive
// deployments set this well below the flush interval so one hung
// request cannot back up the buffer across multiple flush windows.
func (c *Client) WithTimeout(d time.Duration) *Client {
	return &Client{base: c.base, token: c.token, hc: &http.Client{Timeout: d, Transport: c.hc.Transport}, vc: c.vc}
}

// WithTLSConfig returns a copy of the client using the given TLS
// configuration for https servers (`ansor-registry serve -tls-cert
// -tls-key`) — e.g. a config trusting a private CA.
func (c *Client) WithTLSConfig(cfg *tls.Config) *Client {
	hc := &http.Client{Timeout: c.hc.Timeout, Transport: &http.Transport{TLSClientConfig: cfg}}
	return &Client{base: c.base, token: c.token, hc: hc, vc: c.vc}
}

// maxValidators bounds the validator map: past it an arbitrary entry
// is dropped — the cache is an optimization, not a correctness
// surface, so simple pressure relief beats LRU bookkeeping here.
const maxValidators = 4096

// validator is one remembered (ETag, body) pair.
type validator struct {
	etag string
	body []byte
}

// validatorCache remembers /v1/best validators per key. Safe for
// concurrent use.
type validatorCache struct {
	mu   sync.Mutex
	best map[cacheKey]validator
}

func newValidatorCache() *validatorCache {
	return &validatorCache{best: map[cacheKey]validator{}}
}

func (v *validatorCache) getBest(k cacheKey) (validator, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	val, ok := v.best[k]
	return val, ok
}

func (v *validatorCache) putBest(k cacheKey, val validator) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.best[k]; !ok && len(v.best) >= maxValidators {
		for old := range v.best {
			delete(v.best, old)
			break
		}
	}
	v.best[k] = val
}

// get issues an authenticated GET.
func (c *Client) get(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	c.auth(req)
	return c.hc.Do(req)
}

// auth attaches the bearer token, if any. Every request carries it —
// the server only checks mutating endpoints today, but which endpoints
// a given server guards should not be the client's business.
func (c *Client) auth(req *http.Request) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
}

// IsURL reports whether src names a registry server rather than a file:
// everywhere a registry file path is accepted, an http(s) URL selects
// the service instead.
func IsURL(src string) bool {
	return strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://")
}

// LoadRegistry builds a registry from src: a tuning-log/registry file
// path, or — when src is an http(s) URL — a server's full snapshot. Both
// yield the same per-key best set for the same records, so callers can
// treat the result identically (the determinism contract of DESIGN.md's
// "Registry service").
func LoadRegistry(src string) (*registry.Registry, error) {
	if IsURL(src) {
		return NewClient(src).Snapshot()
	}
	return registry.LoadFile(src)
}

// AttachRecorder wires a recorder to the registry server at url: the
// server is pinged (a misspelled URL fails fast, before any tuning
// work), a nil recorder is replaced by a fresh in-memory one, and the
// server becomes a tee sink — every subsequently recorded measurement
// publishes there, with failures surfacing through Recorder.Err/Close
// without stopping the run or the recorder's primary log sink. The sink
// is a BatchWriter, so recording never blocks on the network: batches
// flush in the background and the tail flushes when the run closes the
// recorder (callers must use Recorder.Close, not just Err). Every run
// attaches through here, from internal/session.
//
// seedLogs name existing tuning-log files (empty paths and missing
// files are skipped) whose records are uploaded before publishing
// begins. Resumed runs must pass their resume/record logs here: cached
// replays never re-enter the recorder, so without the seed upload a
// fresh server would only ever see the continuation's records and the
// server-vs-local-log equivalence would break. The upload is an
// idempotent merge — re-seeding the same log is harmless.
func AttachRecorder(rec *measure.Recorder, url string, seedLogs ...string) (*measure.Recorder, error) {
	cl := NewClient(url)
	if err := cl.Ping(); err != nil {
		return nil, err
	}
	seeded := map[string]bool{}
	for _, path := range seedLogs {
		// Callers routinely pass RecordTo and ResumeFrom, which the
		// resume flow points at the same file; upload each path once.
		if path == "" || seeded[path] {
			continue
		}
		seeded[path] = true
		l, err := measure.LoadFile(path)
		if err != nil {
			return nil, fmt.Errorf("regserver: seed %s: %w", path, err)
		}
		if len(l.Records) == 0 {
			continue
		}
		if _, err := cl.AddLog(l); err != nil {
			return nil, fmt.Errorf("regserver: seed %s: %w", path, err)
		}
	}
	if rec == nil {
		rec = measure.NewRecorder(nil)
	}
	// The publisher gets its own short-timeout client: a hung server must
	// stall each background flush for at most one flush window (plus the
	// retry), not the default 30s — otherwise Recorder.Close could block
	// for minutes draining the tail. The long-timeout client stays in use
	// above for the seed-log uploads, whose payloads can be large.
	rec.Tee(cl.WithTimeout(DefaultFlushInterval).BatchWriter(0, 0))
	return rec, nil
}

// DrainClose reads what is left of a response body (up to a bound: a
// longer one costs the connection, not the caller's time) and closes it.
// net/http puts a connection back in its idle pool only once the body
// was read to its end, which a JSON decoder stops short of and an unread
// error payload never reaches. Every close of this client and of the
// fleet's goes through here.
func DrainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	body.Close()
}

// errorOf decodes the server's {"error": ...} payload.
func errorOf(resp *http.Response) error {
	defer DrainClose(resp.Body)
	var e struct {
		Error string `json:"error"`
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("regserver: %s", e.Error)
	}
	return fmt.Errorf("regserver: server returned %s", resp.Status)
}

// Ping checks the server is reachable and speaks the registry API.
func (c *Client) Ping() error {
	resp, err := c.get(c.base + "/healthz")
	if err != nil {
		return fmt.Errorf("regserver: ping %s: %w", c.base, err)
	}
	defer DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("regserver: ping %s: %s", c.base, resp.Status)
	}
	return nil
}

// post uploads a record batch body and decodes the AddResult.
func (c *Client) post(body []byte) (AddResult, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/records", bytes.NewReader(body))
	if err != nil {
		return AddResult{}, fmt.Errorf("regserver: publish to %s: %w", c.base, err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	c.auth(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return AddResult{}, fmt.Errorf("regserver: publish to %s: %w", c.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return AddResult{}, errorOf(resp)
	}
	defer DrainClose(resp.Body)
	var res AddResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return AddResult{}, fmt.Errorf("regserver: publish to %s: %w", c.base, err)
	}
	return res, nil
}

// addBodies recycles Add's request bodies. A body goes back only after a
// response to it was read and closed: net/http is done with a request
// then, and may not be before.
var addBodies = sync.Pool{New: func() any { return new([]byte) }}

// Add offers one record to the server; reports whether it improved a
// key (registry.Registry.Add over the wire).
func (c *Client) Add(rec measure.Record) (bool, error) {
	buf := addBodies.Get().(*[]byte)
	body, err := measure.AppendRecord((*buf)[:0], rec)
	if err != nil {
		return false, fmt.Errorf("regserver: encode record: %w", err)
	}
	res, err := c.post(body)
	if err != nil {
		return false, err
	}
	*buf = body
	addBodies.Put(buf)
	return res.Improved > 0, nil
}

// AddLog offers every record of a log; returns how many improved a key.
func (c *Client) AddLog(l *measure.Log) (int, error) {
	var buf bytes.Buffer
	if err := l.Save(&buf); err != nil {
		return 0, err
	}
	res, err := c.post(buf.Bytes())
	if err != nil {
		return 0, err
	}
	return res.Improved, nil
}

// Best returns the server's fastest record for exactly (workload,
// target, dag). ok is false when the server has no entry; err reports
// transport or server failures.
//
// Repeat queries for the same key are conditional GETs: the client
// remembers the last ETag and body per key, and an unchanged answer
// comes back as a bodyless 304 decoded from the cached bytes — byte-
// identical to a fresh 200, since the tag is a content hash of the
// exact encoded body.
func (c *Client) Best(workload, target, dag string) (measure.Record, bool, error) {
	q := url.Values{"workload": {workload}, "target": {target}, "dag": {dag}}
	u := c.base + "/v1/best?" + q.Encode()
	k := cacheKey{workload, target, dag}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return measure.Record{}, false, fmt.Errorf("regserver: best from %s: %w", c.base, err)
	}
	c.auth(req)
	cached, have := c.vc.getBest(k)
	if have {
		req.Header.Set("If-None-Match", cached.etag)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return measure.Record{}, false, fmt.Errorf("regserver: best from %s: %w", c.base, err)
	}
	var body []byte
	switch resp.StatusCode {
	case http.StatusNotModified:
		DrainClose(resp.Body)
		body = cached.body // If-None-Match is only sent when cached
	case http.StatusNotFound:
		DrainClose(resp.Body)
		return measure.Record{}, false, nil
	case http.StatusOK:
		body, err = io.ReadAll(resp.Body)
		DrainClose(resp.Body)
		if err != nil {
			return measure.Record{}, false, fmt.Errorf("regserver: best from %s: %w", c.base, err)
		}
		if etag := resp.Header.Get("ETag"); etag != "" {
			c.vc.putBest(k, validator{etag: etag, body: body})
		}
	default:
		return measure.Record{}, false, errorOf(resp)
	}
	rec, err := measure.DecodeRecord(body)
	if err != nil {
		return measure.Record{}, false, fmt.Errorf("regserver: best from %s: %w", c.base, err)
	}
	return rec, true, nil
}

// getLog fetches a line-oriented record log from u.
func (c *Client) getLog(u string) (*measure.Log, error) {
	resp, err := c.get(u)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, errorOf(resp)
	}
	defer DrainClose(resp.Body)
	return measure.Load(resp.Body)
}

// BestFor is Best keyed by the computation itself.
func (c *Client) BestFor(workload, target string, dag *te.DAG) (measure.Record, bool, error) {
	return c.Best(workload, target, measure.DAGFingerprint(dag))
}

// ApplyBest replays the server's best schedule for the workload's
// computation on the target, returning the program and its recorded
// time without spending any measurement trial — the remote counterpart
// of registry.ApplyBest, with the replay done client-side (only the
// client holds the DAG).
func (c *Client) ApplyBest(workload, target string, dag *te.DAG) (*ir.State, float64, error) {
	rec, ok, err := c.BestFor(workload, target, dag)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("regserver: no schedule recorded for workload %q (this shape) on target %q", workload, target)
	}
	s, err := rec.Replay(dag)
	if err != nil {
		return nil, 0, fmt.Errorf("regserver: replay %q on %q: %w", workload, target, err)
	}
	return s, rec.Seconds, nil
}

// Records queries the server's best records filtered by workload and
// target ("" matches any), capped at limit when limit > 0 — the
// task-scoped slice of fleet history a warm start needs, without
// downloading the full snapshot. Records arrive verbatim in the
// registry's deterministic key order, so two clients issuing the same
// query see byte-identical logs.
func (c *Client) Records(workload, target string, limit int) (*measure.Log, error) {
	q := url.Values{}
	if workload != "" {
		q.Set("workload", workload)
	}
	if target != "" {
		q.Set("target", target)
	}
	if limit > 0 {
		q.Set("limit", strconv.Itoa(limit))
	}
	u := c.base + "/v1/records"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	l, err := c.getLog(u)
	if err != nil {
		return nil, fmt.Errorf("regserver: records from %s: %w", c.base, err)
	}
	return l, nil
}

// Metrics fetches the server's health counters.
func (c *Client) Metrics() (Metrics, error) {
	resp, err := c.get(c.base + "/metrics")
	if err != nil {
		return Metrics{}, fmt.Errorf("regserver: metrics from %s: %w", c.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return Metrics{}, errorOf(resp)
	}
	defer DrainClose(resp.Body)
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return Metrics{}, fmt.Errorf("regserver: metrics from %s: %w", c.base, err)
	}
	return m, nil
}

// Snapshot downloads the server's full best set as an in-process
// registry: records arrive verbatim (raw steps, exact float
// round-trip), so the result is bit-identical to a registry built
// locally from the same records.
func (c *Client) Snapshot() (*registry.Registry, error) {
	l, err := c.getLog(c.base + "/v1/snapshot")
	if err != nil {
		return nil, fmt.Errorf("regserver: snapshot from %s: %w", c.base, err)
	}
	r := registry.New()
	r.AddLog(l)
	return r, nil
}
