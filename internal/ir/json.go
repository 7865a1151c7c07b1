package ir

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/jsonx"
	"repro/internal/te"
)

// Step serialization: a program is fully determined by its DAG plus its
// step list (§5.1), so persisting the steps gives durable tuning logs
// that can be replayed later (the equivalent of TVM's measure records).
// The encoding is also the record log's and the registry store's step
// field, the resume cache's key and the fleet's program payload, so its
// bytes are frozen:
//
//	steps = "[" [ step { "," step } ] "]"
//	step  = `{"kind":` string `,"data":{` [ field { "," field } ] "}}"
//	field = string ":" ( string | int | ints | "[" [ ints { "," ints } ] "]" | "null" )
//	ints  = "[" [ int { "," int } ] "]" | "null"
//
// with each kind's fields, in order, those of stepFields; a nil list is
// null, an empty one []. EncodeSteps writes exactly the bytes
// encoding/json wrote for these structs: no whitespace, its string
// escapes (a string that needs one is quoted by encoding/json itself).
// DecodeSteps reads the grammar with any whitespace, key order and
// string escapes, and what it accepts encoding/json decodes to the same
// steps. It is the stricter of the two in refusing: a top level that is
// not an array; keys other than "kind", "data" and the kind's own field
// names, spelled exactly; a repeated key; a step without kind or data;
// null for a string, an int or data; numbers that are not plain integer
// literals.

// field is one row of a kind's field table: the JSON key and the address
// of the value in the step at hand (*string, *int, *[]int or *[][]int).
type field struct {
	name string
	ptr  any
}

// stepFields is the field table of the 13 step kinds, the one declaration
// both EncodeSteps and DecodeSteps work from: s's fields in encoding
// order, built in buf. Nil for a step type it does not know.
func stepFields(s Step, buf *[4]field) []field {
	switch st := s.(type) {
	case *InlineStep:
		return append(buf[:0], field{"Stage", &st.Stage})
	case *SplitStep:
		return append(buf[:0], field{"Stage", &st.Stage}, field{"IterIdx", &st.IterIdx}, field{"Factors", &st.Factors})
	case *FuseStep:
		return append(buf[:0], field{"Stage", &st.Stage}, field{"First", &st.First}, field{"Count", &st.Count})
	case *ReorderStep:
		return append(buf[:0], field{"Stage", &st.Stage}, field{"Perm", &st.Perm})
	case *AnnotateStep:
		return append(buf[:0], field{"Stage", &st.Stage}, field{"IterIdx", &st.IterIdx}, field{"Ann", (*int)(&st.Ann)})
	case *PragmaStep:
		return append(buf[:0], field{"Stage", &st.Stage}, field{"AutoUnrollMax", &st.AutoUnrollMax})
	case *LayoutRewriteStep:
		return append(buf[:0], field{"Stage", &st.Stage})
	case *MultiLevelTileStep:
		return append(buf[:0], field{"Stage", &st.Stage}, field{"Structure", &st.Structure},
			field{"SpaceFactors", &st.SpaceFactors}, field{"ReduceFactors", &st.ReduceFactors})
	case *FuseConsumerStep:
		return append(buf[:0], field{"Producer", &st.Producer}, field{"Consumer", &st.Consumer}, field{"OuterLevels", &st.OuterLevels})
	case *CacheWriteStep:
		return append(buf[:0], field{"Stage", &st.Stage})
	case *RFactorStep:
		return append(buf[:0], field{"Stage", &st.Stage}, field{"ReduceIdx", &st.ReduceIdx}, field{"Factor", &st.Factor})
	case *ComputeAtStep:
		return append(buf[:0], field{"Stage", &st.Stage}, field{"Target", &st.Target}, field{"IterIdx", &st.IterIdx})
	case *ComputeRootStep:
		return append(buf[:0], field{"Stage", &st.Stage})
	}
	return nil
}

// stepKinds maps a kind name to its zero step, copied for decoding.
var stepKinds = func() map[string]Step {
	kinds := map[string]Step{}
	for _, s := range []Step{&InlineStep{}, &SplitStep{}, &FuseStep{}, &ReorderStep{}, &AnnotateStep{},
		&PragmaStep{}, &LayoutRewriteStep{}, &MultiLevelTileStep{}, &FuseConsumerStep{}, &CacheWriteStep{},
		&RFactorStep{}, &ComputeAtStep{}, &ComputeRootStep{}} {
		kinds[s.Name()] = s
	}
	return kinds
}()

// EncodeSteps serializes a step list to JSON.
func EncodeSteps(steps []Step) ([]byte, error) {
	// Built on the stack and copied out at its exact size: the result is
	// what a record keeps, and a typical list is a third of the buffer.
	var stack [2048]byte
	dst, err := AppendSteps(stack[:0], steps)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(dst), nil
}

// AppendSteps appends the step list's JSON encoding, the bytes
// EncodeSteps returns, to dst. On an error it returns dst cut back to its
// original length.
func AppendSteps(dst []byte, steps []Step) ([]byte, error) {
	var buf [4]field
	n := len(dst)
	dst = append(dst, '[')
	for i, s := range steps {
		fields := stepFields(s, &buf)
		if fields == nil {
			return dst[:n], fmt.Errorf("ir: encode step %d: unknown step type %T", i, s)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(append(dst, `{"kind":"`...), s.Name()...), `","data":{`...)
		for k, f := range fields {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = append(append(append(dst, '"'), f.name...), `":`...)
			switch p := f.ptr.(type) {
			case *string:
				dst = jsonx.AppendString(dst, *p)
			case *int:
				dst = strconv.AppendInt(dst, int64(*p), 10)
			case *[]int:
				dst = appendInts(dst, *p)
			case *[][]int:
				if *p == nil {
					dst = append(dst, "null"...)
					break
				}
				dst = append(dst, '[')
				for j, l := range *p {
					if j > 0 {
						dst = append(dst, ',')
					}
					dst = appendInts(dst, l)
				}
				dst = append(dst, ']')
			}
		}
		dst = append(dst, "}}"...)
	}
	return append(dst, ']'), nil
}

func appendInts(dst []byte, l []int) []byte {
	if l == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range l {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// ErrDecodeSteps is wrapped by every error of a step list that does not
// decode, as opposed to one that decodes and does not replay.
var ErrDecodeSteps = errors.New("ir: decode steps")

// DecodeSteps parses a step list serialized by EncodeSteps.
func DecodeSteps(data []byte) ([]Step, error) {
	d := stepDecoder{b: data}
	steps := make([]Step, 0, bytes.Count(data, []byte(`"kind"`)))
	d.expect('[')
	for first := true; d.next(first, ']'); first = false {
		steps = append(steps, d.step())
	}
	if d.end(); d.err != nil {
		return nil, d.err
	}
	return steps, nil
}

// ReplayEncoded is Replay of DecodeSteps(data) in one pass: each step is
// applied to the state as it is parsed, and no step list is built first.
// What it returns is what the two calls would, error texts included: a
// list that does not decode fails with DecodeSteps' error even past a
// step that does not apply, so the steps after a failed one are still
// parsed, not applied. The state is the arena's like Replay's (a nil
// arena is the heap), and so are the steps it decodes and their lists;
// so is the rule for a failure: what it carved is given back.
func (a *Arena) ReplayEncoded(dag *te.DAG, data []byte) (*State, error) {
	m := a.Mark()
	s := newState(a, dag)
	// Room for every step there can be, {"kind":"Fuse","data":{}} being
	// the shortest; what decodes at all decodes into it, so the list is
	// never counted first.
	s.Steps = a.Steps(len(data)/25 + 1)[:0]
	d := stepDecoder{b: data, dag: dag, a: a}
	var replayErr error
	d.expect('[')
	for i, first := 0, true; d.next(first, ']'); i, first = i+1, false {
		step := d.step()
		if d.err == nil && replayErr == nil {
			if err := s.Apply(step); err != nil {
				replayErr = &replayError{i, step.Name(), err}
			}
		}
	}
	d.end()
	if err := cmp.Or(d.err, replayErr); err != nil {
		a.Rewind(m)
		return nil, err
	}
	return s, nil
}

// stepDecoder is a single forward pass over b. The first failure sticks
// in err and every later read returns a zero value, so callers check
// once.
type stepDecoder struct {
	b    []byte
	i    int
	err  error
	last string  // the string value read last
	dag  *te.DAG // when replaying: its node names are the stage names
	a    *Arena  // when replaying: the memory of the steps (nil: the heap)
}

func (d *stepDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: offset %d: %s", ErrDecodeSteps, d.i, fmt.Sprintf(format, args...))
	}
}

// end refuses anything but whitespace after the step list.
func (d *stepDecoder) end() {
	if d.ws(); d.err == nil && d.i < len(d.b) {
		d.fail("data after the step list")
	}
}

// ws skips whitespace and returns the byte after it, 0 at the end.
func (d *stepDecoder) ws() byte {
	for ; d.i < len(d.b); d.i++ {
		if c := d.b[d.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

func (d *stepDecoder) expect(c byte) {
	if d.ws() != c {
		d.fail("want %q", c)
		return
	}
	d.i++
}

// next steps to the next element of the array or object closed by end:
// over the comma (none before the first element) and true, or over end
// and false.
func (d *stepDecoder) next(first bool, end byte) bool {
	if d.err != nil {
		return false
	}
	if d.ws() == end {
		d.i++
		return false
	}
	if !first {
		d.expect(',')
	}
	return d.err == nil
}

func (d *stepDecoder) null() bool {
	if d.ws() != 'n' || !bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		return false
	}
	d.i += 4
	return true
}

// step reads one {"kind":...,"data":{...}} envelope, in either order.
// After the kind — where EncodeSteps writes it — the data object is read
// in place; before it, the object is stepped over where it stands and
// read once the whole envelope, and so the kind, is known.
func (d *stepDecoder) step() Step {
	var s Step
	data, seen := -1, 0
	d.expect('{')
	for first := true; d.next(first, '}'); first = false {
		key := d.raw()
		d.expect(':')
		switch {
		case string(key) == "kind" && seen&1 == 0:
			seen |= 1
			kind := d.raw()
			if s = stepKinds[string(kind)]; s == nil {
				d.fail("unknown step kind %q", kind)
			}
		case string(key) == "data" && seen&2 == 0 && s != nil:
			seen |= 2
			s = d.a.CopyStep(s)
			d.fields(s)
		case string(key) == "data" && seen&2 == 0:
			seen |= 2
			d.ws()
			data = d.i
			d.skipObject()
		default:
			d.fail("unknown or repeated step key %q", key)
		}
	}
	if seen != 3 {
		d.fail("step needs a kind and a data object")
	}
	if d.err != nil {
		return nil
	}
	if data >= 0 {
		s = d.a.CopyStep(s)
		end := d.i
		d.i = data
		d.fields(s)
		d.i = end
	}
	return s
}

// skipObject steps over an object without judging its contents: only a
// string can hide a brace.
func (d *stepDecoder) skipObject() {
	depth, quoted := 0, false
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case quoted && c == '\\':
			d.i++
		case c == '"':
			quoted = !quoted
		case quoted:
		case c == '{':
			depth++
		case c == '}':
			depth--
		}
		if depth == 0 {
			break
		}
	}
	if d.i < len(d.b) && d.b[d.i] == '}' {
		d.i++
		return
	}
	d.fail("data is not an object")
}

// fields reads a data object into s through its field table.
func (d *stepDecoder) fields(s Step) {
	var buf [4]field
	fields := stepFields(s, &buf)
	seen := 0
	d.expect('{')
	for n, first := 0, true; d.next(first, '}'); n, first = n+1, false {
		key := d.raw()
		d.expect(':')
		k := n // where EncodeSteps writes it
		if k >= len(fields) || fields[k].name != string(key) {
			k = slices.IndexFunc(fields, func(f field) bool { return f.name == string(key) })
		}
		if k < 0 || seen&(1<<k) != 0 {
			d.fail("unknown or repeated %s field %q", s.Name(), key)
			return
		}
		seen |= 1 << k
		switch p := fields[k].ptr.(type) {
		case *string:
			*p = d.str()
		case *int:
			*p = d.int()
		case *[]int:
			*p = d.ints()
		case *[][]int:
			if d.null() {
				break
			}
			var buf [8][]int
			lists := buf[:0]
			d.expect('[')
			for first := true; d.next(first, ']'); first = false {
				lists = append(lists, d.ints())
			}
			*p = append(d.a.Lists(len(lists))[:0], lists...)
		}
	}
}

func (d *stepDecoder) int() int {
	d.ws()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	digits, b, i := d.i, d.b, d.i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	d.i = i
	if n := i - digits; n == 0 || n > 1 && b[digits] == '0' {
		d.fail("want an integer")
		return 0
	} else if n > 18 { // may not fit: strconv decides
		v, err := strconv.Atoi(string(b[start:i]))
		if err != nil {
			d.fail("want an integer")
		}
		return v
	}
	v := 0
	for _, c := range b[digits:i] {
		v = v*10 + int(c-'0')
	}
	if digits > start {
		return -v
	}
	return v
}

func (d *stepDecoder) ints() []int {
	if d.null() {
		return nil
	}
	d.expect('[')
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end < 0 {
		d.fail("unterminated list")
		return nil
	}
	out := d.a.Ints(bytes.Count(d.b[d.i:d.i+end], []byte(",")) + 1)[:0]
	for first := true; d.next(first, ']'); first = false {
		out = append(out, d.int())
	}
	return out
}

// plainByte marks the bytes a JSON string holds as themselves: printable
// ASCII but `"` and `\`.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// raw reads a JSON string and returns its bytes: a piece of the input
// for plain ASCII, what encoding/json makes of anything else.
func (d *stepDecoder) raw() []byte {
	d.expect('"')
	start, b, i := d.i, d.b, d.i
	for i < len(b) && plainByte[b[i]] {
		i++
	}
	d.i = i
	plain := true
	for ; d.i < len(d.b) && d.err == nil; d.i++ {
		switch c := d.b[d.i]; {
		case c == '"' && plain:
			d.i++
			return d.b[start : d.i-1]
		case c == '"':
			d.i++
			var s string
			if err := json.Unmarshal(d.b[start-1:d.i], &s); err != nil {
				d.fail("%v", err)
			}
			return []byte(s)
		case c == '\\':
			d.i++
			plain = false
		case c < ' ' || c >= utf8.RuneSelf:
			plain = false
		}
	}
	d.fail("unterminated string")
	return nil
}

// str reads a string value. A step list names the same stage many times
// running, so a repeat shares the string before it, and a replay shares
// the name of the DAG node it names.
func (d *stepDecoder) str() string {
	raw := d.raw()
	if string(raw) == d.last {
		return d.last
	}
	if d.dag != nil {
		for _, n := range d.dag.Nodes {
			if n.Name == string(raw) {
				d.last = n.Name
				return d.last
			}
		}
	}
	d.last = string(raw)
	return d.last
}
