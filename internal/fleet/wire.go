package fleet

import (
	"encoding/base64"
	"slices"
	"strconv"

	"repro/internal/jsonx"
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
// member only when it is not empty, strings, numbers and bytes as jsonx
// writes them, a nil list null. The read functions take that layout
// under jsonx's strict-read rule; jsonx.Decode leaves any other body to
// json.Unmarshal, whole.
//
// appendLease, appendResults, appendGrant and appendStatus first grow
// dst by what they are about to write, so a body is one allocation: the
// lengths of its strings and bytes and room for its keys, numbers and
// punctuation, per list element. An err text, or a string jsonx
// escapes, may still grow it once.
const (
	// headRoom holds a body's keys and numbers, outside its lists.
	headRoom = 128
	// resultRoom holds one result, and unitRoom one unit, without an
	// err: keys, an index of up to 20 digits, the longest number jsonx
	// writes (25 bytes), the separating comma.
	resultRoom = 72
	unitRoom   = 56
)

// resultsRoom is what appendResults writes for p when no result has an
// err.
func resultsRoom(p ResultPost) int {
	return headRoom + len(p.Worker) + len(p.Job) + resultRoom*len(p.Results)
}

// appendJob appends a job's header line, without its newline.
func appendJob(dst []byte, j JobSpec) []byte {
	dst = jsonx.AppendString(append(dst, `{"id":`...), j.ID)
	dst = jsonx.AppendOptional(dst, `,"target":`, j.Target)
	dst = jsonx.AppendOptional(dst, `,"task":`, j.Task)
	dst = jsonx.AppendOptional(dst, `,"trace":`, j.Trace)
	dst = jsonx.AppendBytes(dst, `,"dag_bin":`, j.DAGBin)
	if j.Count != 0 {
		dst = strconv.AppendInt(append(dst, `,"count":`...), int64(j.Count), 10)
	}
	if j.WaitMS != 0 {
		dst = strconv.AppendInt(append(dst, `,"wait_ms":`...), j.WaitMS, 10)
	}
	return append(dst, '}')
}

func readJob(r *jsonx.Reader) (j JobSpec) {
	r.Need(`{"id":`)
	j.ID = r.Str("")
	if r.Key(`,"target":`) {
		j.Target = r.Str("")
	}
	if r.Key(`,"task":`) {
		j.Task = r.Str("")
	}
	if r.Key(`,"trace":`) {
		j.Trace = r.Str("")
	}
	if r.Key(`,"dag_bin":`) {
		j.DAGBin = r.Bytes()
	}
	if r.Key(`,"count":`) {
		j.Count = int(r.Int())
	}
	if r.Key(`,"wait_ms":`) {
		j.WaitMS = r.Int()
	}
	r.Need("}")
	return j
}

func appendLease(dst []byte, q LeaseRequest) ([]byte, error) {
	room := headRoom + len(q.Worker) + len(q.Target)
	if q.Done != nil {
		room += resultsRoom(*q.Done)
	}
	dst = slices.Grow(dst, room)
	dst = jsonx.AppendString(append(dst, `{"worker":`...), q.Worker)
	dst = jsonx.AppendString(append(dst, `,"target":`...), q.Target)
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

// readLease reads a lease request, listing the results it returns in
// dst's memory.
func readLease(r *jsonx.Reader, dst []WorkerResult) (q LeaseRequest) {
	r.Need(`{"worker":`)
	q.Worker = r.Str("")
	r.Need(`,"target":`)
	q.Target = r.Str("")
	r.Need(`,"capacity":`)
	q.Capacity = int(r.Int())
	if r.Key(`,"wait_ms":`) {
		q.WaitMS = r.Int()
	}
	if r.Key(`,"done":`) {
		p := readResults(r, dst)
		q.Done = &p
	}
	r.Need("}")
	return q
}

func appendResults(dst []byte, p ResultPost) ([]byte, error) {
	dst = append(slices.Grow(dst, resultsRoom(p)), '{')
	if p.Worker != "" {
		dst = append(jsonx.AppendString(append(dst, `"worker":`...), p.Worker), ',')
	}
	dst = jsonx.AppendString(append(dst, `"job":`...), p.Job)
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
		if dst, err = jsonx.AppendFloat(append(dst, `,"noiseless":`...), w.Noiseless); err != nil {
			return nil, err
		}
		dst = append(jsonx.AppendOptional(dst, `,"err":`, w.Err), '}')
	}
	return append(dst, "]}"...), nil
}

// readResults reads a results post, listing its results in dst's memory.
func readResults(r *jsonx.Reader, dst []WorkerResult) (p ResultPost) {
	r.Need("{")
	if r.Key(`"worker":`) {
		p.Worker = r.Str("")
		r.Need(",")
	}
	r.Need(`"job":`)
	p.Job = r.Str("")
	r.Need(`,"lease":`)
	p.Lease = r.Int()
	r.Need(`,"results":`)
	if !r.Key("null") {
		p.Results = dst[:0]
		if p.Results == nil {
			p.Results = []WorkerResult{}
		}
		r.List(func() {
			var w WorkerResult
			r.Need(`{"index":`)
			w.Index = int(r.Int())
			r.Need(`,"noiseless":`)
			w.Noiseless = r.Float()
			if r.Key(`,"err":`) {
				w.Err = r.Str("")
			}
			r.Need("}")
			p.Results = append(p.Results, w)
		})
	}
	r.Need("}")
	return p
}

// appendGrant appends a lease grant's header line, without its newline.
func appendGrant(dst []byte, g LeaseGrant) []byte {
	dst = slices.Grow(dst, headRoom+len(g.Job)+len(g.Task)+len(g.Trace)+len(g.Target)+
		base64.StdEncoding.EncodedLen(len(g.DAGBin))+20*len(g.Indices))
	dst = strconv.AppendInt(append(dst, `{"lease":`...), g.Lease, 10)
	dst = jsonx.AppendString(append(dst, `,"job":`...), g.Job)
	dst = jsonx.AppendOptional(dst, `,"task":`, g.Task)
	dst = jsonx.AppendOptional(dst, `,"trace":`, g.Trace)
	dst = jsonx.AppendString(append(dst, `,"target":`...), g.Target)
	dst = jsonx.AppendBytes(dst, `,"dag_bin":`, g.DAGBin)
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

func readGrant(r *jsonx.Reader) (g LeaseGrant) {
	r.Need(`{"lease":`)
	g.Lease = r.Int()
	r.Need(`,"job":`)
	g.Job = r.Str("")
	if r.Key(`,"task":`) {
		g.Task = r.Str("")
	}
	if r.Key(`,"trace":`) {
		g.Trace = r.Str("")
	}
	r.Need(`,"target":`)
	g.Target = r.Str("")
	if r.Key(`,"dag_bin":`) {
		g.DAGBin = r.Bytes()
	}
	r.Need(`,"indices":`)
	if !r.Key("null") {
		g.Indices = []int{}
		r.List(func() { g.Indices = append(g.Indices, int(r.Int())) })
	}
	r.Need("}")
	return g
}

func appendStatus(dst []byte, st JobStatus) ([]byte, error) {
	dst = slices.Grow(dst, headRoom+len(st.ID)+len(st.Target)+len(st.Task)+unitRoom*len(st.Results))
	dst = jsonx.AppendString(append(dst, `{"id":`...), st.ID)
	dst = jsonx.AppendString(append(dst, `,"target":`...), st.Target)
	dst = jsonx.AppendOptional(dst, `,"task":`, st.Task)
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
			if dst, err = jsonx.AppendFloat(append(dst, `,"noiseless":`...), u.Noiseless); err != nil {
				return nil, err
			}
		}
		dst = append(jsonx.AppendOptional(dst, `,"err":`, u.Err), '}')
	}
	if len(st.Results) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

func readStatus(r *jsonx.Reader) (st JobStatus) {
	r.Need(`{"id":`)
	st.ID = r.Str("")
	r.Need(`,"target":`)
	st.Target = r.Str("")
	if r.Key(`,"task":`) {
		st.Task = r.Str("")
	}
	r.Need(`,"total":`)
	st.Total = int(r.Int())
	r.Need(`,"completed":`)
	st.Completed = int(r.Int())
	r.Need(`,"done":`)
	st.Done = r.Bool()
	if r.Key(`,"results":`) {
		// A status lists a result per program: room for total of them, up
		// to 4 096 (past that, the list grows as it is read).
		st.Results = make([]UnitResult, 0, min(max(st.Total, 0), 1<<12))
		r.List(func() {
			var u UnitResult
			r.Need(`{"done":`)
			u.Done = r.Bool()
			if r.Key(`,"noiseless":`) {
				u.Noiseless = r.Float()
			}
			if r.Key(`,"err":`) {
				u.Err = r.Str("")
			}
			r.Need("}")
			st.Results = append(st.Results, u)
		})
	}
	r.Need("}")
	return st
}
