package main

import (
	"bytes"
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/measure"
	"repro/internal/regserver"
	"repro/internal/te"
)

// syncBuffer lets the server goroutine write stdout while the test
// reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startServe runs the serve command in-process on an ephemeral port and
// returns its base URL plus a shutdown function that waits for the
// graceful exit (final snapshot included).
func startServe(t *testing.T, extra ...string) (string, *syncBuffer, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	out := &syncBuffer{}
	errCh := make(chan error, 1)
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, extra...)
	go func() {
		errCh <- run(ctx, args, out, out, func(addr string) { addrCh <- addr })
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, out, func() error {
			cancel()
			select {
			case err := <-errCh:
				return err
			case <-time.After(10 * time.Second):
				return context.DeadlineExceeded
			}
		}
	case err := <-errCh:
		t.Fatalf("serve exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serve never became ready")
	}
	panic("unreachable")
}

func TestServeGracefulShutdownAndStore(t *testing.T) {
	store := filepath.Join(t.TempDir(), "registry.json")
	url, out, shutdown := startServe(t, "-store", store, "-snapshot-every", "1h")

	cl := regserver.NewClient(url)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i >= 1; i-- {
		if _, err := cl.Add(measure.Record{
			Task: "op", Target: "cpu", DAG: "d",
			Steps:   []byte(`[{"i":` + string(rune('0'+i)) + `}]`),
			Seconds: float64(i), Noiseless: float64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if !strings.Contains(out.String(), "listening on") || !strings.Contains(out.String(), "shutting down") {
		t.Errorf("missing lifecycle output:\n%s", out.String())
	}

	// The final snapshot compacted the store to the best set.
	l, err := measure.LoadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) != 1 || l.Records[0].Seconds != 1 {
		t.Fatalf("store should hold exactly the best record, got %+v", l.Records)
	}

	// A restart serves the persisted registry.
	url2, _, shutdown2 := startServe(t, "-store", store, "-snapshot-every", "1h")
	defer shutdown2()
	reg, err := regserver.NewClient(url2).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if best, ok := reg.Best("op", "cpu", "d"); !ok || best.Seconds != 1 {
		t.Fatalf("restarted server lost the registry: %+v ok=%v", best, ok)
	}
}

func TestServePeriodicSnapshot(t *testing.T) {
	store := filepath.Join(t.TempDir(), "registry.json")
	url, _, shutdown := startServe(t, "-store", store, "-snapshot-every", "50ms")
	defer shutdown()
	cl := regserver.NewClient(url)
	for i := 5; i >= 1; i-- {
		if _, err := cl.Add(measure.Record{
			Task: "op", Target: "cpu", DAG: "d",
			Steps:   []byte(`[{"i":` + string(rune('0'+i)) + `}]`),
			Seconds: float64(i), Noiseless: float64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Within a few ticks the store must compact to one line while the
	// server keeps running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, err := measure.LoadFile(store)
		if err == nil && len(l.Records) == 1 && l.Records[0].Seconds == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store never compacted: %v (err=%v)", l, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The registry stays intact and appendable after compaction.
	if _, err := cl.Add(measure.Record{
		Task: "op2", Target: "cpu", DAG: "d", Steps: []byte(`[]`), Seconds: 2, Noiseless: 2,
	}); err != nil {
		t.Fatal(err)
	}
	reg, err := regserver.NewClient(url).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 2 {
		t.Fatalf("want 2 keys after post-snapshot add, got %d", reg.Len())
	}
}

func TestServeFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"serve", "-not-a-flag"}, &out, &out, nil); err == nil {
		t.Error("bad flag accepted")
	}
	store := filepath.Join(t.TempDir(), "registry.json")
	if err := run(context.Background(), []string{"serve", "-addr", "256.0.0.1:bad", "-store", store}, &out, &out, nil); err == nil {
		t.Error("bad address accepted")
	}
	// A failed bind must not touch the store.
	if _, err := os.Stat(store); !os.IsNotExist(err) {
		t.Errorf("bad -addr should not create the store file: %v", err)
	}
}

// TestCompactVerb: the compact verb bounds a store in place with
// temp+rename, keeping the per-group best.
func TestCompactVerb(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "registry.json")
	l := &measure.Log{}
	for i := 0; i < 30; i++ {
		l.Records = append(l.Records, measure.Record{
			Task: "op", Target: "cpu", DAG: "d",
			Steps:   []byte(fmt.Sprintf(`[{"i":%d}]`, i)),
			Seconds: float64(30 - i), Noiseless: float64(30 - i),
		})
	}
	if err := l.SaveFile(store); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run(context.Background(), []string{"compact", "-store", store, "-top-k", "3"}, &out, &out, nil); err != nil {
		t.Fatalf("compact: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "30 -> 6 records") {
		t.Errorf("unexpected compact report: %s", out.String())
	}
	got, err := measure.LoadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 6 {
		t.Fatalf("store holds %d records after compact, want 6", len(got.Records))
	}
	if got.Records[0].Seconds != 1 {
		t.Errorf("compacted store lost the best record: %g", got.Records[0].Seconds)
	}
	if _, err := os.Stat(store + ".tmp"); !os.IsNotExist(err) {
		t.Error("compact left its temp file behind")
	}

	// Error cases: missing store, bad top-k, unknown verb.
	if err := run(context.Background(), []string{"compact", "-store", filepath.Join(dir, "absent.json")}, &out, &out, nil); err == nil {
		t.Error("compacting a missing store must fail")
	}
	if err := run(context.Background(), []string{"compact", "-store", store, "-top-k", "0"}, &out, &out, nil); err == nil {
		t.Error("top-k 0 must fail")
	}
	if err := run(context.Background(), []string{"bogus-verb"}, &out, &out, nil); err == nil {
		t.Error("unknown verb must fail")
	}
}

// startFleetVerb runs `ansor-registry fleet` in-process.
func startFleetVerb(t *testing.T, extra ...string) (string, *syncBuffer, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	out := &syncBuffer{}
	errCh := make(chan error, 1)
	args := append([]string{"fleet", "-addr", "127.0.0.1:0"}, extra...)
	go func() {
		errCh <- run(ctx, args, out, out, func(addr string) { addrCh <- addr })
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, out, func() error {
			cancel()
			select {
			case err := <-errCh:
				return err
			case <-time.After(10 * time.Second):
				return context.DeadlineExceeded
			}
		}
	case err := <-errCh:
		t.Fatalf("fleet verb exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("fleet verb never became ready")
	}
	panic("unreachable")
}

// TestFleetVerb drives the broker CLI end to end with a raw fleet
// client standing in for a worker.
func TestFleetVerb(t *testing.T) {
	url, out, shutdown := startFleetVerb(t, "-lease-ttl", "5s")
	cl := fleet.NewClient(url)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	db := te.NewBuilder("mm")
	db.Matmul(db.Input("A", 8, 8), 8, true)
	dag, err := te.EncodeDAGBinary(db.MustFinish())
	if err != nil {
		t.Fatal(err)
	}
	ack, err := cl.Submit(fleet.JobSpec{
		ID: "verb-1", Target: "cpu", Task: "t",
		DAGBin:   dag,
		Programs: []json.RawMessage{json.RawMessage(`["a"]`), json.RawMessage(`["b"]`)},
	})
	if err != nil || ack.Total != 2 {
		t.Fatalf("submit: %+v err=%v", ack, err)
	}
	grant, err := cl.Lease(fleet.LeaseRequest{Worker: "w", Target: "cpu", Capacity: 4})
	if err != nil || grant == nil || len(grant.Indices) != 2 {
		t.Fatalf("lease: %+v err=%v", grant, err)
	}
	if _, err := cl.PostResults(fleet.ResultPost{Worker: "w", Job: grant.Job, Lease: grant.Lease,
		Results: []fleet.WorkerResult{{Index: 0, Noiseless: 1}, {Index: 1, Noiseless: 2}}}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Submit(fleet.JobSpec{ID: ack.ID})
	if err != nil || !st.Done || len(st.Results) != 2 {
		t.Fatalf("poll: %+v err=%v", st, err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if !strings.Contains(out.String(), "broker listening") || !strings.Contains(out.String(), "shutting down") {
		t.Errorf("missing broker lifecycle output:\n%s", out.String())
	}
}

// TestServeAuthToken: -auth-token guards publishes; the token rides
// the client URL's userinfo.
func TestServeAuthToken(t *testing.T) {
	url, _, shutdown := startServe(t, "-store", "", "-auth-token", "hunter2")
	defer shutdown()
	open := regserver.NewClient(url)
	if _, err := open.Add(measure.Record{
		Task: "op", Target: "cpu", DAG: "d",
		Steps: []byte(`[{"i":1}]`), Seconds: 1, Noiseless: 1,
	}); err == nil {
		t.Fatal("tokenless publish should be refused")
	}
	if err := open.Ping(); err != nil {
		t.Fatalf("reads should stay open: %v", err)
	}
	authed := regserver.NewClient(strings.Replace(url, "http://", "http://:hunter2@", 1))
	if ok, err := authed.Add(measure.Record{
		Task: "op", Target: "cpu", DAG: "d",
		Steps: []byte(`[{"i":1}]`), Seconds: 1, Noiseless: 1,
	}); err != nil || !ok {
		t.Fatalf("token-in-URL publish: ok=%v err=%v", ok, err)
	}
}

func TestFleetAndServeFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"fleet", "-addr", "256.0.0.1:99999"}, &out, &out, nil); err == nil {
		t.Error("unbindable fleet address should fail")
	}
	if err := run(context.Background(), []string{"serve", "-tls-cert", "cert.pem"}, &out, &out, nil); err == nil {
		t.Error("-tls-cert without -tls-key should fail")
	}
	if err := run(context.Background(), []string{"serve", "-tls-key", "key.pem"}, &out, &out, nil); err == nil {
		t.Error("-tls-key without -tls-cert should fail")
	}
	if err := run(context.Background(), []string{"serve", "-best-cache", "-1"}, &out, &out, nil); err == nil {
		t.Error("negative -best-cache should fail")
	}
}

// selfSignedCert writes a throwaway PEM certificate/key pair valid for
// 127.0.0.1 and returns their paths.
func selfSignedCert(t *testing.T) (certFile, keyFile string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "ansor-registry test"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:  []net.IP{net.IPv4(127, 0, 0, 1)},
		IsCA:         true, BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	certFile = filepath.Join(dir, "cert.pem")
	keyFile = filepath.Join(dir, "key.pem")
	if err := os.WriteFile(certFile, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}), 0o600); err != nil {
		t.Fatal(err)
	}
	return certFile, keyFile
}

// TestServeTLS: -tls-cert/-tls-key serve HTTPS end to end; the client
// trusts the self-signed certificate through WithTLSConfig.
func TestServeTLS(t *testing.T) {
	certFile, keyFile := selfSignedCert(t)
	addr, out, shutdown := startServe(t, "-store", "", "-tls-cert", certFile, "-tls-key", keyFile)
	defer shutdown()
	url := strings.Replace(addr, "http://", "https://", 1)

	certPEM, err := os.ReadFile(certFile)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(certPEM) {
		t.Fatal("bad test certificate")
	}
	cl := regserver.NewClient(url).WithTLSConfig(&tls.Config{RootCAs: pool})
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping over TLS: %v", err)
	}
	if ok, err := cl.Add(measure.Record{
		Task: "op", Target: "cpu", DAG: "d",
		Steps: []byte(`[{"i":1}]`), Seconds: 1, Noiseless: 1,
	}); err != nil || !ok {
		t.Fatalf("publish over TLS: ok=%v err=%v", ok, err)
	}
	if best, ok, err := cl.Best("op", "cpu", "d"); err != nil || !ok || best.Seconds != 1 {
		t.Fatalf("best over TLS: %+v ok=%v err=%v", best, ok, err)
	}
	// Conditional GET works through TLS like plain HTTP.
	if _, _, err := cl.Best("op", "cpu", "d"); err != nil {
		t.Fatal(err)
	}
	m, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.BestNotModified < 1 {
		t.Errorf("second Best should revalidate with 304, metrics: %+v", m)
	}
	// A plain-HTTP client must not reach an HTTPS listener.
	if err := regserver.NewClient(addr).Ping(); err == nil {
		t.Error("plain http ping against TLS listener should fail")
	}
	if !strings.Contains(out.String(), "(https,") {
		t.Errorf("startup line should note https: %s", out.String())
	}
}
