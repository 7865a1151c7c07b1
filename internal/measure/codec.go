package measure

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"repro/internal/jsonx"
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
// target, sig and dag only when not empty, noiseless only when not ±0,
// strings and numbers as jsonx writes them. Steps is copied when it is
// compact JSON of ASCII bytes without <>&; otherwise
// json.Marshal(json.RawMessage(steps)) compacts it, escapes <>& (and
// U+2028/U+2029) and refuses what is not JSON. Nil steps is null.
//
// Reading follows jsonx's strict-read rule, with steps a JSON array
// validated against the full grammar and kept verbatim. Load hands the
// rest of the stream to json.Decoder from the first line outside the
// layout on (an older peer's unknown key, "steps":null, two values on
// one line, a torn tail). A string equal to the same field of the line
// before shares that line's string, so a log's repeated task, target
// and dag cost one copy.

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
	dst = jsonx.AppendString(append(dst, `{"task":`...), rec.Task)
	dst = jsonx.AppendOptional(dst, `,"target":`, rec.Target)
	dst = jsonx.AppendOptional(dst, `,"sig":`, rec.Sig)
	dst = jsonx.AppendOptional(dst, `,"dag":`, rec.DAG)
	dst, err := appendSteps(append(dst, `,"steps":`...), rec.Steps)
	if err == nil {
		dst, err = jsonx.AppendFloat(append(dst, `,"seconds":`...), rec.Seconds)
	}
	if err == nil && rec.Noiseless != 0 {
		dst, err = jsonx.AppendFloat(append(dst, `,"noiseless":`...), rec.Noiseless)
	}
	if err != nil {
		return dst[:start], err
	}
	return append(dst, "}\n"...), nil
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
	var last Record
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
		d := jsonx.NewReader(line)
		rec := readRecord(&d, &last)
		if n, ok := d.End(); !ok || !(err == nil && n == len(line)-1 || err == io.EOF && n == len(line)) {
			return l.loadJSON(line, br, err)
		}
		last = rec
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
	r := jsonx.NewReader(data)
	return jsonx.Decode(&r, readRecord(&r, &Record{}))
}

// readRecord reads a record in AppendRecord's layout; a string equal to
// last's field comes back as last's.
func readRecord(r *jsonx.Reader, last *Record) (rec Record) {
	r.Need(`{"task":`)
	rec.Task = r.Str(last.Task)
	if r.Key(`,"target":`) {
		rec.Target = r.Str(last.Target)
	}
	if r.Key(`,"sig":`) {
		rec.Sig = r.Str(last.Sig)
	}
	if r.Key(`,"dag":`) {
		rec.DAG = r.Str(last.DAG)
	}
	r.Need(`,"steps":`)
	rec.Steps = bytes.Clone(r.Span(arrayEnd))
	r.Need(`,"seconds":`)
	rec.Seconds = r.Float()
	if r.Key(`,"noiseless":`) {
		rec.Noiseless = r.Float()
	}
	r.Need("}")
	return rec
}

// arrayEnd returns the end of the JSON array that starts at b[i], or -1.
func arrayEnd(b []byte, i int) int {
	if i >= len(b) || b[i] != '[' {
		return -1
	}
	s := jsonScan{b: b}
	return s.value(i, 0)
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
	return jsonx.Number(s.b, i)
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
