// Package jsonx is the core of the hand JSON codecs: append primitives
// that write encoding/json's bytes, a strict-layout Reader, Value, which
// spans a strict-layout value of any shape, and Decode, which keeps what
// was read by hand, else reads with encoding/json.
//
// Each codec writes exactly the bytes encoding/json writes for its
// structs, and reads one strict layout by hand: its keys in its order,
// no whitespace inside, strings of printable ASCII without `"` and `\`,
// integers without fraction or exponent that fit 64 bits, and numbers
// that parse as a float64. Any other input is left whole to
// encoding/json: other key orders and whitespace, escapes, a null
// member, fields an older peer still sends. The hand reader therefore
// only has to be sound: whatever it accepts, encoding/json decodes the
// same; everything else is passed on. So what decodes, what it decodes
// to and every error text stay encoding/json's, and no version of this
// program writes another layout.
package jsonx

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// AppendString quotes s as encoding/json does. Plain ASCII, all this
// program ever writes, is copied; a string with anything encoding/json
// escapes is left to it.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || strings.IndexByte(`"\<>&`, c) >= 0 {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// AppendFloat writes f as encoding/json does: the shortest 'f' form for
// 1e-6 ≤ |f| < 1e21, else the shortest 'e' form with e-07 written e-7.
// NaN and ±Inf are refused with encoding/json's error.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		_, err := json.Marshal(f) // encoding/json's refusal, word for word
		return dst, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendOptional appends key and s, quoted, unless s is empty: an
// omitempty string member.
func AppendOptional(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return AppendString(append(dst, key...), s)
}

// AppendBytes appends key and b in standard base64, unless b is empty:
// an omitempty []byte member.
func AppendBytes(dst []byte, key string, b []byte) []byte {
	if len(b) == 0 {
		return dst
	}
	dst = base64.StdEncoding.AppendEncode(append(append(dst, key...), '"'), b)
	return append(dst, '"')
}

// Decode returns v, read from r's input by hand, when all of that input
// but trailing whitespace was in the layout, and json.Unmarshal's
// decoding of the input when it was not:
//
//	r := jsonx.NewReader(b)
//	v, err := jsonx.Decode(&r, readV(&r))
//
// A Reader read through direct calls stays on its caller's stack; one
// handed to a func value moves to the heap.
func Decode[T any](r *Reader, v T) (T, error) {
	if r.Whole() {
		return v, nil
	}
	var w T
	err := json.Unmarshal(r.b, &w)
	return w, err
}

// Reader reads input in a codec's layout. ok turns false at the first
// byte outside it, and every later read is a no-op.
type Reader struct {
	b  []byte
	i  int
	ok bool
}

// NewReader returns a Reader at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b, ok: true} }

// End returns the offset just past what r has read, and whether all of
// it was in the layout.
func (r *Reader) End() (int, bool) { return r.i, r.ok }

// Whole reports whether r has read all of its input but trailing
// whitespace, all of it in the layout.
func (r *Reader) Whole() bool {
	return r.ok && len(bytes.TrimLeft(r.b[r.i:], " \t\r\n")) == 0
}

// Key steps over s if the input continues with it.
func (r *Reader) Key(s string) bool {
	if r.ok && len(r.b)-r.i >= len(s) && string(r.b[r.i:r.i+len(s)]) == s {
		r.i += len(s)
		return true
	}
	return false
}

// Need steps over s, which the input must continue with.
func (r *Reader) Need(s string) {
	if !r.Key(s) {
		r.ok = false
	}
}

// List reads `[` [ elem { `,` elem } ] `]`.
func (r *Reader) List(elem func()) {
	if r.Need("["); r.Key("]") {
		return
	}
	for r.ok {
		if elem(); r.Key("]") {
			return
		}
		r.Need(",")
	}
}

// Raw reads a string of printable ASCII without `"` and `\` and returns
// its bytes, a piece of the input.
func (r *Reader) Raw() []byte {
	if s := r.Span(str); s != nil {
		return s[1 : len(s)-1]
	}
	return nil
}

// Str reads a string as Raw does. One equal to last comes back as last,
// sharing its bytes; "" shares nothing.
func (r *Reader) Str(last string) string {
	if raw := r.Raw(); string(raw) != last {
		return string(raw)
	}
	return last
}

// Bytes reads a base64 string as encoding/json decodes it into a []byte.
func (r *Reader) Bytes() []byte {
	raw := r.Raw()
	out := make([]byte, base64.StdEncoding.DecodedLen(len(raw)))
	n, err := base64.StdEncoding.Decode(out, raw)
	if err != nil {
		r.ok = false
	}
	return out[:n]
}

// Bool reads true or false.
func (r *Reader) Bool() bool {
	if r.Key("true") {
		return true
	}
	r.Need("false")
	return false
}

// Int reads an integer literal that fits 64 bits.
func (r *Reader) Int() int64 {
	n, err := strconv.ParseInt(string(r.Span(Number)), 10, 64)
	if err != nil {
		r.ok = false
	}
	return n
}

// Float reads a number literal that parses as a float64.
func (r *Reader) Float() float64 {
	f, err := strconv.ParseFloat(string(r.Span(Number)), 64)
	if err != nil {
		r.ok = false
	}
	return f
}

// Span reads the value that starts here and returns its bytes, a piece
// of the input; end returns the end of the value that starts at b[i],
// or -1 if none does.
func (r *Reader) Span(end func(b []byte, i int) int) []byte {
	if !r.ok {
		return nil
	}
	e := end(r.b, r.i)
	if e < 0 {
		r.ok = false
		return nil
	}
	v := r.b[r.i:e]
	r.i = e
	return v
}

// maxDepth bounds the nesting Value follows; deeper values are left to
// encoding/json (whose own bound is 10 000).
const maxDepth = 64

// Value returns the end of the JSON value that starts at b[i] in the
// strict layout, or -1: no whitespace, strings as Raw reads them,
// numbers as Number spans them, true, false and null, and arrays and
// objects of these nested at most maxDepth deep.
func Value(b []byte, i int) int { return value(b, i, 0) }

func value(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch c := b[i]; c {
	case '"':
		return str(b, i)
	case 't':
		return lit(b, i, "true")
	case 'f':
		return lit(b, i, "false")
	case 'n':
		return lit(b, i, "null")
	case '[', '{':
		if depth == maxDepth {
			return -1
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		if i++; i < len(b) && b[i] == end {
			return i + 1
		}
		for {
			if c == '{' {
				if i = str(b, i); i < 0 || i >= len(b) || b[i] != ':' {
					return -1
				}
				i++
			}
			if i = value(b, i, depth+1); i < 0 || i >= len(b) {
				return -1
			}
			switch b[i] {
			case end:
				return i + 1
			case ',':
				i++
			default:
				return -1
			}
		}
	}
	return Number(b, i)
}

// str returns the end of the string of printable ASCII without `"` and
// `\` that starts at b[i], or -1.
func str(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < ' ' || c >= 0x80 || c == '\\':
			return -1
		}
	}
	return -1
}

func lit(b []byte, i int, word string) int {
	if len(b)-i < len(word) || string(b[i:i+len(word)]) != word {
		return -1
	}
	return i + len(word)
}

// Number returns the end of the JSON number literal that starts at b[i],
// or -1.
func Number(b []byte, i int) int {
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
