package regserver

import (
	"bytes"
	"fmt"
	"sync"
	"time"
)

// Batching defaults. One flush per 64 records (or 2 seconds, whichever
// comes first) cuts request volume by the batch factor while keeping the
// server at most one flush window behind the publisher.
const (
	DefaultFlushRecords  = 64
	DefaultFlushInterval = 2 * time.Second

	// maxPending bounds the bytes buffered toward a slow or hung server;
	// beyond it the writer latches an overflow error and drops further
	// records (the durable local log is unaffected — it has its own
	// sink). Kept below the server's request-body cap so a drained
	// buffer always fits in one POST.
	maxPending = 16 << 20
)

// BatchWriter publishes record lines to a registry server in batches,
// asynchronously: Write only appends to an in-memory buffer — it NEVER
// touches the network — and a background flusher posts the buffer every
// flushEvery, or as soon as flushN records accumulate, retrying once
// per batch on transient failures. This is what keeps measure.Recorder's
// hot path off the network: the recorder calls Write while holding its
// own mutex, so a writer that posted synchronously would serialize
// every recorded measurement — including the local log append — on a
// network round trip, rate-limiting the whole tuning fleet to server
// RTT. The first unrecovered flush error latches: subsequent Writes
// return it (the recorder then stops feeding this sink but keeps its
// primary log sink alive), and Close — which flushes the remaining
// buffer and stops the flusher — returns it.
type BatchWriter struct {
	c          *Client
	flushN     int
	flushEvery time.Duration

	mu   sync.Mutex
	buf  bytes.Buffer
	n    int // records (lines) buffered
	err  error
	kick chan struct{}
	quit chan struct{}
	done chan struct{}

	closeOnce sync.Once
}

// BatchWriter returns a writer publishing to the client's server with
// the given flush thresholds (<= 0 selects DefaultFlushRecords /
// DefaultFlushInterval). Callers must Close it to flush the tail and
// release the flusher; measure.Recorder.Close does this for sinks
// attached via Tee.
func (c *Client) BatchWriter(flushN int, flushEvery time.Duration) *BatchWriter {
	if flushN <= 0 {
		flushN = DefaultFlushRecords
	}
	if flushEvery <= 0 {
		flushEvery = DefaultFlushInterval
	}
	w := &BatchWriter{
		c:          c,
		flushN:     flushN,
		flushEvery: flushEvery,
		kick:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	go w.run()
	return w
}

// Write buffers whole record lines (the recorder's framing) and returns
// immediately; the flusher owns all network traffic. After an error has
// latched, Write reports it and drops the data — the caller's primary
// sink still holds every record.
func (w *BatchWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	if w.buf.Len()+len(p) > maxPending {
		w.err = fmt.Errorf("regserver: publish buffer overflow (%d bytes pending; server unreachable?)", w.buf.Len())
		w.buf.Reset()
		w.n = 0
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	w.buf.Write(p)
	w.n += bytes.Count(p, []byte("\n"))
	full := w.n >= w.flushN
	w.mu.Unlock()
	if full {
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
	return len(p), nil
}

// Err returns the latched flush error, if any.
func (w *BatchWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close flushes the remaining buffer, stops the flusher, and returns
// the first error the writer latched. Idempotent.
func (w *BatchWriter) Close() error {
	w.closeOnce.Do(func() {
		close(w.quit)
		<-w.done
	})
	return w.Err()
}

// run is the flusher goroutine: wake on kick (buffer full), tick
// (interval), or quit (final drain).
func (w *BatchWriter) run() {
	defer close(w.done)
	t := time.NewTicker(w.flushEvery)
	defer t.Stop()
	for {
		select {
		case <-w.kick:
			w.flush()
		case <-t.C:
			w.flush()
		case <-w.quit:
			w.flush()
			return
		}
	}
}

// flush swaps the buffer out under the lock and posts it with the lock
// released, so publishers keep buffering while the batch is in flight.
// One retry absorbs transient failures (connection resets, a server
// mid-restart); a second failure latches.
func (w *BatchWriter) flush() {
	w.mu.Lock()
	if w.buf.Len() == 0 || w.err != nil {
		w.mu.Unlock()
		return
	}
	body := append([]byte(nil), w.buf.Bytes()...)
	w.buf.Reset()
	w.n = 0
	w.mu.Unlock()

	if _, err := w.c.post(body); err != nil {
		if _, err2 := w.c.post(body); err2 != nil {
			w.mu.Lock()
			if w.err == nil {
				w.err = err2
			}
			w.buf.Reset()
			w.n = 0
			w.mu.Unlock()
		}
	}
}
