package fleet

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"strconv"

	"repro/internal/ir"
)

// Wire bodies: a lease request and the results it returns (or a results
// post), a lease grant's and a job's header lines, and a job status are
// written and read by hand. Their bytes are frozen:
//
//	job     = `{"id":` string [ `,"target":` string ] [ `,"task":` string ]
//	          [ `,"trace":` string ] [ `,"dag_bin":` bytes ] [ `,"count":` int ]
//	          [ `,"wait_ms":` int ] "}"
//	lease   = `{"worker":` string `,"target":` string `,"capacity":` int
//	          [ `,"wait_ms":` int ] [ `,"done":` results ] "}"
//	results = "{" [ `"worker":` string "," ] `"job":` string `,"lease":` int
//	          `,"results":` ( "null" | "[" [ result { "," result } ] "]" ) "}"
//	result  = `{"index":` int `,"noiseless":` number [ `,"err":` string ] "}"
//	grant   = `{"lease":` int `,"job":` string [ `,"task":` string ]
//	          [ `,"trace":` string ] `,"target":` string [ `,"dag_bin":` bytes ]
//	          `,"indices":` ( "null" | "[" [ int { "," int } ] "]" ) "}"
//	status  = `{"id":` string `,"target":` string [ `,"task":` string ]
//	          `,"total":` int `,"completed":` int `,"done":` bool
//	          [ `,"results":[` unit { "," unit } "]" ] "}"
//	unit    = `{"done":` bool [ `,"noiseless":` number ] [ `,"err":` string ] "}"
//
// The append functions write exactly the bytes json.Marshal writes for
// JobSpec, LeaseRequest, ResultPost, LeaseGrant and JobStatus, whose
// struct tags name the same keys for encoding/json's reader: a bracketed
// member only when it is not empty, a string and a number as
// ir.AppendString and ir.AppendFloat write them (NaN and ±Inf refused
// with encoding/json's error), bytes in standard base64, a nil list null.
//
// Reading: a body in this layout — these keys in this order, no
// whitespace but after the closing brace, strings of printable ASCII
// without `"` and `\`, integers without fraction or exponent that fit
// 64 bits, numbers that parse as a float64 — is decoded by hand. Any
// other body is json.Unmarshal's, whole: other key orders and
// whitespace, escapes, a null member, fields an older peer still sends.
// So what decodes, what it decodes to and every error text stay
// encoding/json's; no version of this program writes another layout.

// appendJob appends a job's header line, without its newline.
func appendJob(dst []byte, j JobSpec) []byte {
	dst = ir.AppendString(append(dst, `{"id":`...), j.ID)
	dst = appendOptional(dst, `,"target":`, j.Target)
	dst = appendOptional(dst, `,"task":`, j.Task)
	dst = appendOptional(dst, `,"trace":`, j.Trace)
	dst = appendBytes(dst, `,"dag_bin":`, j.DAGBin)
	if j.Count != 0 {
		dst = strconv.AppendInt(append(dst, `,"count":`...), int64(j.Count), 10)
	}
	if j.WaitMS != 0 {
		dst = strconv.AppendInt(append(dst, `,"wait_ms":`...), j.WaitMS, 10)
	}
	return append(dst, '}')
}

func readJob(r *wireReader) (j JobSpec) {
	r.need(`{"id":`)
	j.ID = r.str()
	if r.key(`,"target":`) {
		j.Target = r.str()
	}
	if r.key(`,"task":`) {
		j.Task = r.str()
	}
	if r.key(`,"trace":`) {
		j.Trace = r.str()
	}
	if r.key(`,"dag_bin":`) {
		j.DAGBin = r.bytes()
	}
	if r.key(`,"count":`) {
		j.Count = int(r.int())
	}
	if r.key(`,"wait_ms":`) {
		j.WaitMS = r.int()
	}
	r.need("}")
	return j
}

func appendLease(dst []byte, q LeaseRequest) ([]byte, error) {
	dst = ir.AppendString(append(dst, `{"worker":`...), q.Worker)
	dst = ir.AppendString(append(dst, `,"target":`...), q.Target)
	dst = strconv.AppendInt(append(dst, `,"capacity":`...), int64(q.Capacity), 10)
	if q.WaitMS != 0 {
		dst = strconv.AppendInt(append(dst, `,"wait_ms":`...), q.WaitMS, 10)
	}
	if q.Done != nil {
		var err error
		if dst, err = appendResults(append(dst, `,"done":`...), *q.Done); err != nil {
			return nil, err
		}
	}
	return append(dst, '}'), nil
}

func readLease(r *wireReader) (q LeaseRequest) {
	r.need(`{"worker":`)
	q.Worker = r.str()
	r.need(`,"target":`)
	q.Target = r.str()
	r.need(`,"capacity":`)
	q.Capacity = int(r.int())
	if r.key(`,"wait_ms":`) {
		q.WaitMS = r.int()
	}
	if r.key(`,"done":`) {
		p := readResults(r)
		q.Done = &p
	}
	r.need("}")
	return q
}

func appendResults(dst []byte, p ResultPost) ([]byte, error) {
	dst = append(dst, '{')
	if p.Worker != "" {
		dst = append(ir.AppendString(append(dst, `"worker":`...), p.Worker), ',')
	}
	dst = ir.AppendString(append(dst, `"job":`...), p.Job)
	dst = strconv.AppendInt(append(dst, `,"lease":`...), p.Lease, 10)
	if p.Results == nil {
		return append(dst, `,"results":null}`...), nil
	}
	dst = append(dst, `,"results":[`...)
	for k, w := range p.Results {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"index":`...), int64(w.Index), 10)
		var err error
		if dst, err = ir.AppendFloat(append(dst, `,"noiseless":`...), w.Noiseless); err != nil {
			return nil, err
		}
		dst = append(appendOptional(dst, `,"err":`, w.Err), '}')
	}
	return append(dst, "]}"...), nil
}

func readResults(r *wireReader) (p ResultPost) {
	r.need("{")
	if r.key(`"worker":`) {
		p.Worker = r.str()
		r.need(",")
	}
	r.need(`"job":`)
	p.Job = r.str()
	r.need(`,"lease":`)
	p.Lease = r.int()
	r.need(`,"results":`)
	if !r.key("null") {
		p.Results = []WorkerResult{}
		r.list(func() {
			var w WorkerResult
			r.need(`{"index":`)
			w.Index = int(r.int())
			r.need(`,"noiseless":`)
			w.Noiseless = r.float()
			if r.key(`,"err":`) {
				w.Err = r.str()
			}
			r.need("}")
			p.Results = append(p.Results, w)
		})
	}
	r.need("}")
	return p
}

// appendGrant appends a lease grant's header line, without its newline.
func appendGrant(dst []byte, g LeaseGrant) []byte {
	dst = strconv.AppendInt(append(dst, `{"lease":`...), g.Lease, 10)
	dst = ir.AppendString(append(dst, `,"job":`...), g.Job)
	dst = appendOptional(dst, `,"task":`, g.Task)
	dst = appendOptional(dst, `,"trace":`, g.Trace)
	dst = ir.AppendString(append(dst, `,"target":`...), g.Target)
	dst = appendBytes(dst, `,"dag_bin":`, g.DAGBin)
	if g.Indices == nil {
		return append(dst, `,"indices":null}`...)
	}
	dst = append(dst, `,"indices":[`...)
	for k, idx := range g.Indices {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(idx), 10)
	}
	return append(dst, "]}"...)
}

func readGrant(r *wireReader) (g LeaseGrant) {
	r.need(`{"lease":`)
	g.Lease = r.int()
	r.need(`,"job":`)
	g.Job = r.str()
	if r.key(`,"task":`) {
		g.Task = r.str()
	}
	if r.key(`,"trace":`) {
		g.Trace = r.str()
	}
	r.need(`,"target":`)
	g.Target = r.str()
	if r.key(`,"dag_bin":`) {
		g.DAGBin = r.bytes()
	}
	r.need(`,"indices":`)
	if !r.key("null") {
		g.Indices = []int{}
		r.list(func() { g.Indices = append(g.Indices, int(r.int())) })
	}
	r.need("}")
	return g
}

func appendStatus(dst []byte, st JobStatus) ([]byte, error) {
	dst = ir.AppendString(append(dst, `{"id":`...), st.ID)
	dst = ir.AppendString(append(dst, `,"target":`...), st.Target)
	dst = appendOptional(dst, `,"task":`, st.Task)
	dst = strconv.AppendInt(append(dst, `,"total":`...), int64(st.Total), 10)
	dst = strconv.AppendInt(append(dst, `,"completed":`...), int64(st.Completed), 10)
	dst = strconv.AppendBool(append(dst, `,"done":`...), st.Done)
	for k, u := range st.Results {
		if k == 0 {
			dst = append(dst, `,"results":[`...)
		} else {
			dst = append(dst, ',')
		}
		dst = strconv.AppendBool(append(dst, `{"done":`...), u.Done)
		if u.Noiseless != 0 {
			var err error
			if dst, err = ir.AppendFloat(append(dst, `,"noiseless":`...), u.Noiseless); err != nil {
				return nil, err
			}
		}
		dst = append(appendOptional(dst, `,"err":`, u.Err), '}')
	}
	if len(st.Results) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func readStatus(r *wireReader) (st JobStatus) {
	r.need(`{"id":`)
	st.ID = r.str()
	r.need(`,"target":`)
	st.Target = r.str()
	if r.key(`,"task":`) {
		st.Task = r.str()
	}
	r.need(`,"total":`)
	st.Total = int(r.int())
	r.need(`,"completed":`)
	st.Completed = int(r.int())
	r.need(`,"done":`)
	st.Done = r.bool()
	if r.key(`,"results":`) {
		st.Results = []UnitResult{}
		r.list(func() {
			var u UnitResult
			r.need(`{"done":`)
			u.Done = r.bool()
			if r.key(`,"noiseless":`) {
				u.Noiseless = r.float()
			}
			if r.key(`,"err":`) {
				u.Err = r.str()
			}
			r.need("}")
			st.Results = append(st.Results, u)
		})
	}
	r.need("}")
	return st
}

func appendOptional(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return ir.AppendString(append(dst, key...), s)
}

func appendBytes(dst []byte, key string, b []byte) []byte {
	if len(b) == 0 {
		return dst
	}
	dst = base64.StdEncoding.AppendEncode(append(append(dst, key...), '"'), b)
	return append(dst, '"')
}

// decode reads a whole body by hand when it is in read's layout, and
// with json.Unmarshal when it is not.
func decode[T any](b []byte, read func(*wireReader) T) (T, error) {
	if v, ok := byHand(b, read); ok {
		return v, nil
	}
	var v T
	err := json.Unmarshal(b, &v)
	return v, err
}

// byHand reads b with read and reports whether all of it, but for
// trailing whitespace, was in read's layout.
func byHand[T any](b []byte, read func(*wireReader) T) (T, bool) {
	r := wireReader{b: b, ok: true}
	v := read(&r)
	return v, r.ok && len(bytes.TrimLeft(b[r.i:], " \t\r\n")) == 0
}

// wireReader reads a body in the layout the append functions write. ok
// turns false at the first byte outside it, and every later read is a
// no-op.
type wireReader struct {
	b  []byte
	i  int
	ok bool
}

// key steps over s if the input continues with it.
func (r *wireReader) key(s string) bool {
	if r.ok && len(r.b)-r.i >= len(s) && string(r.b[r.i:r.i+len(s)]) == s {
		r.i += len(s)
		return true
	}
	return false
}

func (r *wireReader) need(s string) {
	if !r.key(s) {
		r.ok = false
	}
}

// list reads `[` [ elem { `,` elem } ] `]`.
func (r *wireReader) list(elem func()) {
	if r.need("["); r.key("]") {
		return
	}
	for r.ok {
		if elem(); r.key("]") {
			return
		}
		r.need(",")
	}
}

// raw reads a string of printable ASCII without `"` and `\` and returns
// its bytes, a piece of the input.
func (r *wireReader) raw() []byte {
	if !r.key(`"`) {
		r.ok = false
		return nil
	}
	for start := r.i; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			return r.b[start : r.i-1]
		case c < ' ' || c >= 0x80 || c == '\\':
			r.ok = false
			return nil
		}
	}
	r.ok = false
	return nil
}

func (r *wireReader) str() string { return string(r.raw()) }

// bytes reads a base64 string as encoding/json decodes it into a []byte.
func (r *wireReader) bytes() []byte {
	raw := r.raw()
	out := make([]byte, base64.StdEncoding.DecodedLen(len(raw)))
	n, err := base64.StdEncoding.Decode(out, raw)
	if err != nil {
		r.ok = false
	}
	return out[:n]
}

func (r *wireReader) bool() bool {
	if r.key("true") {
		return true
	}
	r.need("false")
	return false
}

func (r *wireReader) int() int64 {
	n, err := strconv.ParseInt(string(r.number()), 10, 64)
	if err != nil {
		r.ok = false
	}
	return n
}

func (r *wireReader) float() float64 {
	f, err := strconv.ParseFloat(string(r.number()), 64)
	if err != nil {
		r.ok = false
	}
	return f
}

// number reads a JSON number literal.
func (r *wireReader) number() []byte {
	start := r.i
	r.key("-")
	if !r.key("0") && r.digits() == 0 {
		r.ok = false
	}
	if r.key(".") && r.digits() == 0 {
		r.ok = false
	}
	if r.key("e") || r.key("E") {
		if !r.key("+") {
			r.key("-")
		}
		if r.digits() == 0 {
			r.ok = false
		}
	}
	if !r.ok {
		return nil
	}
	return r.b[start:r.i]
}

func (r *wireReader) digits() int {
	start := r.i
	for r.ok && r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i - start
}
