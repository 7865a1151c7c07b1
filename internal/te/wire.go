package te

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Binary DAG wire format (v1): the one form in which the measurement
// fleet ships a computation, on every job submission and lease grant
// (DAG.String() is the readable debug view). The in-memory form
// identifies tensors by pointer — a node's Reads alias its producers'
// Out tensors — so the wire emits every tensor once and references it
// by index, and the decoder rebuilds the aliasing. The layout goals are
// the classic ones: no reflection, no field names on the wire, every
// string written once.
//
//	header   : magic "TED" + one version byte (0x01)
//	strings  : length-prefixed section — uvarint count, then each string
//	           as uvarint length + raw bytes. All names (DAG, tensors,
//	           nodes, axes, annotation hints) are interned here in
//	           first-appearance order and referenced by index below.
//	name     : uvarint string ref — the DAG name
//	tensors  : length-prefixed section — uvarint count, then per tensor:
//	           name ref, uvarint rank + uvarint dims, uvarint elem
//	           bytes, flags byte (bit0 = const)
//	inputs   : length-prefixed section — uvarint count, then per input a
//	           uvarint tensor index
//	nodes    : length-prefixed section — uvarint count, then per node:
//	           name ref, out tensor index, space axes, reduce axes
//	           (uvarint count, then per axis name ref + uvarint extent +
//	           kind byte), reads (uvarint count, then per read a tensor
//	           index and its index expressions: per LinExpr a uvarint
//	           term count, per term uvarint axis + signed-varint coeff,
//	           then signed-varint const), flops (presence mask byte +
//	           one float64 per set bit), flags byte (strict-inlinable,
//	           data-reuse, predicated, has-zero-fraction,
//	           has-annotation-hint), optional zero-fraction float64,
//	           optional annotation-hint ref
//
// Counts and indices are unsigned varints; values that can be negative
// (linear-expression coefficients and constants) are zigzag varints;
// floats are IEEE-754 little-endian, and the flop vector is masked so
// the common all-but-one-zero counts cost one byte plus the non-zeros.
// EncodeDAGBinary∘DecodeDAGBinary is a fixed point, pinned by golden
// .wire files in testdata/ — v1 bytes may never change; a layout change
// bumps the version byte and keeps this decoder.

// wireMagic prefixes every binary DAG; the trailing byte is the
// version.
var wireMagic = []byte{'T', 'E', 'D'}

// WireVersion is the current binary format version byte.
const WireVersion = 1

// DecodeDAGAuto forwards to DecodeDAGBinary, the only codec. It is kept
// because bench/fleet.go (frozen while this change is measured against
// it) still calls it; the next benchmark PR switches that call and
// deletes this (ROADMAP item 2).
func DecodeDAGAuto(data []byte) (*DAG, error) { return DecodeDAGBinary(data) }

// node flag bits.
const (
	nfStrictInlinable = 1 << iota
	nfDataReuse
	nfPredicated
	nfZeroFraction
	nfAnnotationHint
)

// wireWriter accumulates one binary DAG.
type wireWriter struct {
	buf     []byte
	scratch [binary.MaxVarintLen64]byte
}

func (w *wireWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.buf = append(w.buf, w.scratch[:n]...)
}

func (w *wireWriter) varint(v int64) {
	n := binary.PutVarint(w.scratch[:], v)
	w.buf = append(w.buf, w.scratch[:n]...)
}

func (w *wireWriter) float(f float64) {
	binary.LittleEndian.PutUint64(w.scratch[:8], math.Float64bits(f))
	w.buf = append(w.buf, w.scratch[:8]...)
}

func (w *wireWriter) bytes(b []byte) { w.buf = append(w.buf, b...) }
func (w *wireWriter) byte(b byte)    { w.buf = append(w.buf, b) }

// section appends the inner writer's bytes as a length-prefixed
// section.
func (w *wireWriter) section(inner *wireWriter) {
	w.uvarint(uint64(len(inner.buf)))
	w.buf = append(w.buf, inner.buf...)
}

// interner assigns dense ids to strings in first-appearance order.
type interner struct {
	ids   map[string]uint64
	order []string
}

func newInterner() *interner { return &interner{ids: map[string]uint64{}} }

func (in *interner) ref(s string) uint64 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := uint64(len(in.order))
	in.ids[s] = id
	in.order = append(in.order, s)
	return id
}

// EncodeDAGBinary serializes a DAG to the v1 binary wire format:
// tensors are emitted once in first-appearance order (inputs, then node
// outputs) and referenced by index, and encoding fails if two distinct
// tensors share a name (the wire could not tell them apart).
func EncodeDAGBinary(d *DAG) ([]byte, error) {
	byName := map[string]*Tensor{}
	index := map[*Tensor]uint64{}
	var tensors []*Tensor
	addTensor := func(t *Tensor) error {
		if t == nil {
			return fmt.Errorf("te: encode dag %q: nil tensor", d.Name)
		}
		if prev, ok := byName[t.Name]; ok {
			if prev != t {
				return fmt.Errorf("te: encode dag %q: two distinct tensors named %q", d.Name, t.Name)
			}
			return nil
		}
		byName[t.Name] = t
		index[t] = uint64(len(tensors))
		tensors = append(tensors, t)
		return nil
	}
	for _, t := range d.Inputs {
		if err := addTensor(t); err != nil {
			return nil, err
		}
	}
	for _, n := range d.Nodes {
		if err := addTensor(n.Out); err != nil {
			return nil, err
		}
		for _, a := range n.Reads {
			if err := addTensor(a.Tensor); err != nil {
				return nil, err
			}
		}
	}

	// Intern every string in the same canonical walk order the decoder
	// observes, so encode∘decode is byte-stable.
	in := newInterner()
	in.ref(d.Name)
	for _, t := range tensors {
		in.ref(t.Name)
	}
	writeAxes := func(w *wireWriter, axes []Axis) {
		w.uvarint(uint64(len(axes)))
		for _, a := range axes {
			w.uvarint(in.ref(a.Name))
			w.uvarint(uint64(a.Extent))
			w.byte(byte(a.Kind))
		}
	}
	writeExpr := func(w *wireWriter, e LinExpr) {
		w.uvarint(uint64(len(e.Terms)))
		for _, t := range e.Terms {
			w.uvarint(uint64(t.Axis))
			w.varint(int64(t.Coeff))
		}
		w.varint(int64(e.Const))
	}

	var tsec, isec, nsec wireWriter
	tsec.uvarint(uint64(len(tensors)))
	for _, t := range tensors {
		tsec.uvarint(in.ref(t.Name))
		tsec.uvarint(uint64(len(t.Shape)))
		for _, s := range t.Shape {
			tsec.uvarint(uint64(s))
		}
		tsec.uvarint(uint64(t.ElemBytes))
		var flags byte
		if t.Const {
			flags |= 1
		}
		tsec.byte(flags)
	}
	isec.uvarint(uint64(len(d.Inputs)))
	for _, t := range d.Inputs {
		isec.uvarint(index[t])
	}
	nsec.uvarint(uint64(len(d.Nodes)))
	for _, n := range d.Nodes {
		nsec.uvarint(in.ref(n.Name))
		nsec.uvarint(index[n.Out])
		writeAxes(&nsec, n.SpaceAxes)
		writeAxes(&nsec, n.ReduceAxes)
		nsec.uvarint(uint64(len(n.Reads)))
		for _, a := range n.Reads {
			nsec.uvarint(index[a.Tensor])
			nsec.uvarint(uint64(len(a.Index)))
			for _, e := range a.Index {
				writeExpr(&nsec, e)
			}
		}
		writeFlops(&nsec, n.Flops)
		var flags byte
		if n.StrictInlinable {
			flags |= nfStrictInlinable
		}
		if n.DataReuse {
			flags |= nfDataReuse
		}
		if n.Predicated {
			flags |= nfPredicated
		}
		if n.ZeroFraction != 0 {
			flags |= nfZeroFraction
		}
		if n.AnnotationHint != "" {
			flags |= nfAnnotationHint
		}
		nsec.byte(flags)
		if n.ZeroFraction != 0 {
			nsec.float(n.ZeroFraction)
		}
		if n.AnnotationHint != "" {
			nsec.uvarint(in.ref(n.AnnotationHint))
		}
	}

	var ssec wireWriter
	ssec.uvarint(uint64(len(in.order)))
	for _, s := range in.order {
		ssec.uvarint(uint64(len(s)))
		ssec.bytes([]byte(s))
	}

	var out wireWriter
	out.bytes(wireMagic)
	out.byte(WireVersion)
	out.section(&ssec)
	out.uvarint(in.ids[d.Name])
	out.section(&tsec)
	out.section(&isec)
	out.section(&nsec)
	return out.buf, nil
}

// flopFields lists FlopCount in wire order; the presence mask has one
// bit per entry.
func flopFields(f *FlopCount) []*float64 {
	return []*float64{&f.AddF, &f.SubF, &f.MulF, &f.DivF, &f.MaxF, &f.CmpF, &f.MathF, &f.IntOps}
}

func writeFlops(w *wireWriter, f FlopCount) {
	fields := flopFields(&f)
	var mask byte
	for i, p := range fields {
		if *p != 0 {
			mask |= 1 << i
		}
	}
	w.byte(mask)
	for i, p := range fields {
		if mask&(1<<i) != 0 {
			w.float(*p)
		}
	}
}

// wireReader walks one binary DAG with bounds-checked reads: malformed
// or truncated input errors out, never panics or over-allocates (the
// fuzz contract).
type wireReader struct {
	data []byte
	pos  int
}

func (r *wireReader) fail(format string, args ...interface{}) error {
	return fmt.Errorf("te: decode binary dag at byte %d: "+format, append([]interface{}{r.pos}, args...)...)
}

func (r *wireReader) remaining() int { return len(r.data) - r.pos }

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, r.fail("bad uvarint")
	}
	r.pos += n
	return v, nil
}

func (r *wireReader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, r.fail("bad varint")
	}
	r.pos += n
	return v, nil
}

// count reads a uvarint collection count and sanity-bounds it against
// the bytes left (every element costs at least min bytes), so a
// malicious count cannot force a huge allocation.
func (r *wireReader) count(what string, min int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if min < 1 {
		min = 1
	}
	if v > uint64(r.remaining()/min)+1 {
		return 0, r.fail("%s count %d exceeds remaining input", what, v)
	}
	return int(v), nil
}

func (r *wireReader) float() (float64, error) {
	if r.remaining() < 8 {
		return 0, r.fail("truncated float")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v, nil
}

func (r *wireReader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, r.fail("truncated byte")
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *wireReader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, r.fail("truncated: want %d bytes, have %d", n, r.remaining())
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// section reads a length prefix and returns a reader confined to the
// section body.
func (r *wireReader) section(what string) (*wireReader, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	body, err := r.take(int(n))
	if err != nil {
		return nil, r.fail("%s section: %v", what, err)
	}
	return &wireReader{data: body}, nil
}

// DecodeDAGBinary parses a DAG serialized by EncodeDAGBinary,
// rebuilding tensor aliasing from the interned indices, and validates
// the result — a malformed or tampered wire DAG fails here rather than
// deep inside lowering on a remote worker.
func DecodeDAGBinary(data []byte) (*DAG, error) {
	r := &wireReader{data: data}
	magic, err := r.take(len(wireMagic) + 1)
	if err != nil || !bytes.HasPrefix(magic, wireMagic) {
		return nil, fmt.Errorf("te: decode binary dag: missing wire magic")
	}
	if magic[3] != WireVersion {
		return nil, fmt.Errorf("te: decode binary dag: unknown wire version %d (have %d)", magic[3], WireVersion)
	}

	ssec, err := r.section("strings")
	if err != nil {
		return nil, err
	}
	nStrings, err := ssec.count("string", 1)
	if err != nil {
		return nil, err
	}
	strs := make([]string, nStrings)
	for i := range strs {
		n, err := ssec.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := ssec.take(int(n))
		if err != nil {
			return nil, err
		}
		strs[i] = string(b)
	}
	str := func(ref uint64) (string, error) {
		if ref >= uint64(len(strs)) {
			return "", fmt.Errorf("te: decode binary dag: string ref %d of %d", ref, len(strs))
		}
		return strs[ref], nil
	}

	nameRef, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	name, err := str(nameRef)
	if err != nil {
		return nil, err
	}
	d := &DAG{Name: name}

	tsec, err := r.section("tensors")
	if err != nil {
		return nil, err
	}
	nTensors, err := tsec.count("tensor", 4)
	if err != nil {
		return nil, err
	}
	tensors := make([]*Tensor, nTensors)
	seen := map[string]bool{}
	for i := range tensors {
		ref, err := tsec.uvarint()
		if err != nil {
			return nil, err
		}
		tname, err := str(ref)
		if err != nil {
			return nil, err
		}
		if seen[tname] {
			return nil, fmt.Errorf("te: decode binary dag %q: duplicate tensor %q", name, tname)
		}
		seen[tname] = true
		rank, err := tsec.count("shape", 1)
		if err != nil {
			return nil, err
		}
		t := &Tensor{Name: tname}
		for j := 0; j < rank; j++ {
			dim, err := tsec.uvarint()
			if err != nil {
				return nil, err
			}
			t.Shape = append(t.Shape, int(dim))
		}
		eb, err := tsec.uvarint()
		if err != nil {
			return nil, err
		}
		t.ElemBytes = int(eb)
		flags, err := tsec.byte()
		if err != nil {
			return nil, err
		}
		t.Const = flags&1 != 0
		tensors[i] = t
	}
	tensor := func(idx uint64) (*Tensor, error) {
		if idx >= uint64(len(tensors)) {
			return nil, fmt.Errorf("te: decode binary dag %q: tensor index %d of %d", name, idx, len(tensors))
		}
		return tensors[idx], nil
	}

	isec, err := r.section("inputs")
	if err != nil {
		return nil, err
	}
	nInputs, err := isec.count("input", 1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nInputs; i++ {
		idx, err := isec.uvarint()
		if err != nil {
			return nil, err
		}
		t, err := tensor(idx)
		if err != nil {
			return nil, err
		}
		d.Inputs = append(d.Inputs, t)
	}

	nsec, err := r.section("nodes")
	if err != nil {
		return nil, err
	}
	readAxes := func(kind AxisKind) ([]Axis, error) {
		n, err := nsec.count("axis", 3)
		if err != nil {
			return nil, err
		}
		var axes []Axis
		for i := 0; i < n; i++ {
			ref, err := nsec.uvarint()
			if err != nil {
				return nil, err
			}
			aname, err := str(ref)
			if err != nil {
				return nil, err
			}
			extent, err := nsec.uvarint()
			if err != nil {
				return nil, err
			}
			kb, err := nsec.byte()
			if err != nil {
				return nil, err
			}
			_ = kind
			axes = append(axes, Axis{Name: aname, Extent: int(extent), Kind: AxisKind(kb)})
		}
		return axes, nil
	}
	nNodes, err := nsec.count("node", 8)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nNodes; i++ {
		ref, err := nsec.uvarint()
		if err != nil {
			return nil, err
		}
		nname, err := str(ref)
		if err != nil {
			return nil, err
		}
		outIdx, err := nsec.uvarint()
		if err != nil {
			return nil, err
		}
		out, err := tensor(outIdx)
		if err != nil {
			return nil, err
		}
		n := &Node{Name: nname, Out: out}
		if n.SpaceAxes, err = readAxes(Space); err != nil {
			return nil, err
		}
		if n.ReduceAxes, err = readAxes(Reduce); err != nil {
			return nil, err
		}
		nReads, err := nsec.count("read", 2)
		if err != nil {
			return nil, err
		}
		for j := 0; j < nReads; j++ {
			tIdx, err := nsec.uvarint()
			if err != nil {
				return nil, err
			}
			t, err := tensor(tIdx)
			if err != nil {
				return nil, err
			}
			a := Access{Tensor: t}
			nIdx, err := nsec.count("index", 1)
			if err != nil {
				return nil, err
			}
			for k := 0; k < nIdx; k++ {
				var e LinExpr
				nTerms, err := nsec.count("term", 2)
				if err != nil {
					return nil, err
				}
				for m := 0; m < nTerms; m++ {
					axis, err := nsec.uvarint()
					if err != nil {
						return nil, err
					}
					coeff, err := nsec.varint()
					if err != nil {
						return nil, err
					}
					e.Terms = append(e.Terms, Term{Axis: int(axis), Coeff: int(coeff)})
				}
				c, err := nsec.varint()
				if err != nil {
					return nil, err
				}
				e.Const = int(c)
				a.Index = append(a.Index, e)
			}
			n.Reads = append(n.Reads, a)
		}
		mask, err := nsec.byte()
		if err != nil {
			return nil, err
		}
		for b, p := range flopFields(&n.Flops) {
			if mask&(1<<b) != 0 {
				if *p, err = nsec.float(); err != nil {
					return nil, err
				}
			}
		}
		flags, err := nsec.byte()
		if err != nil {
			return nil, err
		}
		n.StrictInlinable = flags&nfStrictInlinable != 0
		n.DataReuse = flags&nfDataReuse != 0
		n.Predicated = flags&nfPredicated != 0
		if flags&nfZeroFraction != 0 {
			if n.ZeroFraction, err = nsec.float(); err != nil {
				return nil, err
			}
		}
		if flags&nfAnnotationHint != 0 {
			href, err := nsec.uvarint()
			if err != nil {
				return nil, err
			}
			if n.AnnotationHint, err = str(href); err != nil {
				return nil, err
			}
		}
		d.Nodes = append(d.Nodes, n)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("te: decode binary dag: %w", err)
	}
	return d, nil
}
