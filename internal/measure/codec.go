package measure

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"sync"

	"repro/internal/ir"
)

// Record lines: every place a record becomes bytes or comes back from
// bytes goes through this codec — tuning logs and the resume cache, the
// registry's store and snapshots, warm-start files, /v1/records and
// /v1/best bodies, the recorder's sinks. Its bytes are frozen:
//
//	line    = `{"task":` string [ `,"target":` string ] [ `,"sig":` string ]
//	          [ `,"dag":` string ] `,"steps":` steps `,"seconds":` number
//	          [ `,"noiseless":` number ] "}" "\n"
//
// AppendRecord writes exactly the bytes json.Encoder writes for a Record
// (whose struct tags name the same keys for encoding/json's reader):
//   - target, sig and dag only when not empty, noiseless only when not ±0;
//   - a number as encoding/json formats a float64 (ir.AppendFloat): the
//     shortest 'f' form for 1e-6 ≤ |x| < 1e21, else the shortest 'e' form
//     with e-07 written e-7; NaN and ±Inf are refused with encoding/json's
//     error;
//   - a string of printable ASCII without `"\<>&` is copied; any other is
//     quoted by encoding/json itself (ir.AppendString);
//   - steps is copied when it is compact JSON of ASCII bytes without <>&;
//     otherwise json.Marshal(json.RawMessage(steps)) compacts it, escapes
//     <>& (and U+2028/U+2029) and refuses what is not JSON. Nil steps is
//     null.
//
// Reading: a line in exactly this layout — these keys in this order, no
// whitespace around them, strings of printable ASCII without `"` and `\`,
// steps a JSON array (validated against the full grammar and kept
// verbatim), numbers JSON number literals that parse as a float64 — is
// decoded by hand. Anything else is read by encoding/json from that
// point on: other key orders and whitespace, escapes, unknown keys (an
// older peer's measured_on or clock), "steps":null, two values on one
// line, a torn tail. So what loads, what it loads as and every error text
// stay encoding/json's; no version of this program writes another
// layout.

// lineOverhead bounds a line's bytes beside its strings and steps: the
// keys, quotes, brace and newline (75) and two numbers of at most 25
// bytes.
const lineOverhead = 128

// AppendRecord appends rec's line, '\n' included, to dst. On error dst
// comes back at its length before the call.
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	start := len(dst)
	// One allocation at most for a line whose strings need no escapes.
	dst = slices.Grow(dst, len(rec.Task)+len(rec.Target)+len(rec.Sig)+len(rec.DAG)+len(rec.Steps)+lineOverhead)
	dst = ir.AppendString(append(dst, `{"task":`...), rec.Task)
	dst = appendOptional(dst, `,"target":`, rec.Target)
	dst = appendOptional(dst, `,"sig":`, rec.Sig)
	dst = appendOptional(dst, `,"dag":`, rec.DAG)
	dst, err := appendSteps(append(dst, `,"steps":`...), rec.Steps)
	if err == nil {
		dst, err = ir.AppendFloat(append(dst, `,"seconds":`...), rec.Seconds)
	}
	if err == nil && rec.Noiseless != 0 {
		dst, err = ir.AppendFloat(append(dst, `,"noiseless":`...), rec.Noiseless)
	}
	if err != nil {
		return dst[:start], err
	}
	return append(dst, "}\n"...), nil
}

func appendOptional(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return ir.AppendString(append(dst, key...), s)
}

func appendSteps(dst, steps []byte) ([]byte, error) {
	if steps == nil {
		return append(dst, "null"...), nil
	}
	s := jsonScan{b: steps}
	if s.value(0, 0) == len(steps) && !s.rewrite {
		return append(dst, steps...), nil
	}
	compact, err := json.Marshal(json.RawMessage(steps))
	if err != nil {
		return dst, err
	}
	return append(dst, compact...), nil
}

// saveFlush is how many bytes Save gathers before one write.
const saveFlush = 64 << 10

// Save writes the log line-oriented: one record per line, so long runs
// can append records without rewriting the file. The lines go through
// one buffer, written about every 64 KiB; a record that does not encode
// stops the save after the lines before it.
func (l *Log) Save(w io.Writer) error {
	var buf []byte
	flush := func(err error) error {
		if len(buf) > 0 {
			if _, werr := w.Write(buf); werr != nil {
				err = werr
			}
			buf = buf[:0]
		}
		if err != nil {
			return fmt.Errorf("measure: save log: %w", err)
		}
		return nil
	}
	for _, rec := range l.Records {
		var err error
		if buf, err = AppendRecord(buf, rec); err != nil {
			return flush(err)
		}
		if len(buf) >= saveFlush {
			if err := flush(nil); err != nil {
				return err
			}
		}
	}
	return flush(nil)
}

// SaveFile writes the log to path (truncating).
func (l *Log) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readers recycles Load's read buffers: a POST of one record to the
// registry service is a Load too.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 16<<10) }}

// Load parses a log written by Save: a stream of JSON values, each one
// record. Any other value — a record carries its steps — is refused. It
// reads r line by line through a small buffer, never the whole stream
// at once.
func Load(r io.Reader) (*Log, error) {
	br := readers.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil)
		readers.Put(br)
	}()
	l := &Log{}
	var d lineDecoder
	var long []byte
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull { // a line longer than the buffer
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if len(line) == 0 && err == io.EOF {
			return l, nil
		}
		rec, n, ok := d.record(line)
		if !ok || !(err == nil && n == len(line)-1 || err == io.EOF && n == len(line)) {
			return l.loadJSON(line, br, err)
		}
		l.Records = append(l.Records, rec)
		if err == io.EOF {
			return l, nil
		}
	}
}

// loadJSON reads the rest of a log with encoding/json: line, which the
// hand decoder did not take, then what follows it — br's bytes, or
// readErr when reading line ended the stream.
func (l *Log) loadJSON(line []byte, br *bufio.Reader, readErr error) (*Log, error) {
	rest := io.Reader(br)
	if readErr != nil {
		rest = errReader{readErr}
	}
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(line), rest))
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

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// LoadFile reads a log from path. A missing file is not an error: it
// returns an empty log, so "resume from a log that does not exist yet"
// degrades to a cold start.
func LoadFile(path string) (*Log, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return &Log{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// DecodeRecord reads one record as json.Unmarshal does: one JSON value,
// then whitespace only. A record line is decoded by hand; anything else
// is json.Unmarshal's.
func DecodeRecord(data []byte) (Record, error) {
	var d lineDecoder
	if rec, n, ok := d.record(data); ok && len(bytes.TrimLeft(data[n:], " \t\r\n")) == 0 {
		return rec, nil
	}
	var rec Record
	err := json.Unmarshal(data, &rec)
	return rec, err
}

// lineDecoder reads records in AppendRecord's layout. ok turns false at
// the first byte outside the layout, and every later read is a no-op.
type lineDecoder struct {
	b    []byte
	i    int
	ok   bool
	last Record // the record read last: a string equal to its field shares it
}

// record reads the record at the start of b and returns it with the
// offset just past its closing brace; ok is false when b does not start
// with one in the layout.
func (d *lineDecoder) record(b []byte) (rec Record, n int, ok bool) {
	d.b, d.i, d.ok = b, 0, true
	d.need(`{"task":`)
	rec.Task = d.str(d.last.Task)
	if d.key(`,"target":`) {
		rec.Target = d.str(d.last.Target)
	}
	if d.key(`,"sig":`) {
		rec.Sig = d.str(d.last.Sig)
	}
	if d.key(`,"dag":`) {
		rec.DAG = d.str(d.last.DAG)
	}
	d.need(`,"steps":`)
	rec.Steps = d.steps()
	d.need(`,"seconds":`)
	rec.Seconds = d.num()
	if d.key(`,"noiseless":`) {
		rec.Noiseless = d.num()
	}
	d.need("}")
	if !d.ok {
		return Record{}, 0, false
	}
	d.last = rec
	return rec, d.i, true
}

// key steps over s if the input continues with it.
func (d *lineDecoder) key(s string) bool {
	if d.ok && len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

func (d *lineDecoder) need(s string) {
	if !d.key(s) {
		d.ok = false
	}
}

// str reads a string of printable ASCII without escapes; one equal to
// last comes back as last.
func (d *lineDecoder) str(last string) string {
	if !d.key(`"`) {
		d.ok = false
		return ""
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			if raw := d.b[start : d.i-1]; string(raw) != last {
				return string(raw)
			}
			return last
		case c < ' ' || c >= 0x80 || c == '\\':
			d.ok = false
			return ""
		}
	}
	d.ok = false
	return ""
}

// steps reads a JSON array and returns a copy of its bytes.
func (d *lineDecoder) steps() []byte {
	if !d.ok || d.i >= len(d.b) || d.b[d.i] != '[' {
		d.ok = false
		return nil
	}
	s := jsonScan{b: d.b}
	end := s.value(d.i, 0)
	if end < 0 {
		d.ok = false
		return nil
	}
	steps := bytes.Clone(d.b[d.i:end])
	d.i = end
	return steps
}

// num reads a JSON number literal that parses as a float64.
func (d *lineDecoder) num() float64 {
	if !d.ok {
		return 0
	}
	end := number(d.b, d.i)
	if end < 0 {
		d.ok = false
		return 0
	}
	f, err := strconv.ParseFloat(string(d.b[d.i:end]), 64)
	if err != nil {
		d.ok = false
	}
	d.i = end
	return f
}

// jsonScan validates JSON values in place against the full grammar.
// rewrite records whether json.Marshal of the bytes as a json.RawMessage
// could change them: whitespace between tokens, or a string byte that it
// escapes or might (<, >, &, anything non-ASCII).
type jsonScan struct {
	b       []byte
	rewrite bool
}

// maxDepth bounds the nesting the scan follows; deeper values are left
// to encoding/json (whose own bound is 10 000).
const maxDepth = 64

// value returns the end of the JSON value that starts at b[i], or -1 if
// none does.
func (s *jsonScan) value(i, depth int) int {
	if i >= len(s.b) {
		return -1
	}
	switch c := s.b[i]; c {
	case '{', '[':
		if depth == maxDepth {
			return -1
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		if i = s.ws(i + 1); i < len(s.b) && s.b[i] == end {
			return i + 1
		}
		for {
			if c == '{' {
				if i = s.str(i); i < 0 {
					return -1
				}
				if i = s.ws(i); i >= len(s.b) || s.b[i] != ':' {
					return -1
				}
				i = s.ws(i + 1)
			}
			if i = s.value(i, depth+1); i < 0 {
				return -1
			}
			if i = s.ws(i); i >= len(s.b) {
				return -1
			}
			if s.b[i] == end {
				return i + 1
			}
			if s.b[i] != ',' {
				return -1
			}
			i = s.ws(i + 1)
		}
	case '"':
		return s.str(i)
	case 't':
		return s.lit(i, "true")
	case 'f':
		return s.lit(i, "false")
	case 'n':
		return s.lit(i, "null")
	}
	return number(s.b, i)
}

// ws skips whitespace.
func (s *jsonScan) ws(i int) int {
	start := i
	for i < len(s.b) && (s.b[i] == ' ' || s.b[i] == '\t' || s.b[i] == '\n' || s.b[i] == '\r') {
		i++
	}
	if i > start {
		s.rewrite = true
	}
	return i
}

func (s *jsonScan) lit(i int, word string) int {
	if len(s.b)-i < len(word) || string(s.b[i:i+len(word)]) != word {
		return -1
	}
	return i + len(word)
}

// strByte classes the bytes of a JSON string: 0 plain, 1 the end, an
// escape or not allowed ('"', '\\', control bytes), 2 plain but escaped or
// possibly escaped by json.Marshal (<, >, &, non-ASCII).
var strByte = func() (t [256]byte) {
	for c := 0; c < 256; c++ {
		switch {
		case c < ' ' || c == '"' || c == '\\':
			t[c] = 1
		case c >= 0x80 || c == '<' || c == '>' || c == '&':
			t[c] = 2
		}
	}
	return t
}()

// str returns the end of the string that starts at b[i], or -1.
func (s *jsonScan) str(i int) int {
	if i >= len(s.b) || s.b[i] != '"' {
		return -1
	}
	for i++; i < len(s.b); i++ {
		c := s.b[i]
		if strByte[c] == 0 {
			continue
		}
		switch {
		case c == '"':
			return i + 1
		case strByte[c] == 2:
			s.rewrite = true
		case c == '\\':
			if i++; i >= len(s.b) {
				return -1
			}
			switch s.b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(s.b)-i < 5 {
					return -1
				}
				for _, h := range s.b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		default: // a control byte
			return -1
		}
	}
	return -1
}

// number returns the end of the JSON number literal that starts at b[i],
// or -1.
func number(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = digits(b, i); i == start {
			return -1
		}
	}
	return i
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
