package te

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateWire = flag.Bool("update-wire", false, "rewrite the golden .wire files (run after an intentional format version bump)")

// goldenDAGs are the committed wire fixtures: a matmul+relu chain (the
// aliasing case) and a conv stack exercising padding predication,
// constant weights, multi-term affine indices and annotation-relevant
// flags.
func goldenDAGs() map[string]*DAG {
	mm := func() *DAG {
		b := NewBuilder("wire-mm")
		a := b.Input("A", 32, 32)
		b.ReLU(b.Matmul(a, 32, true))
		return b.MustFinish()
	}
	conv := func() *DAG {
		b := NewBuilder("wire-conv")
		x := b.Input("X", 1, 8, 14, 14)
		c := b.Conv2D(x, ConvOpts{OutChannels: 16, Kernel: 3, Stride: 1, Pad: 1})
		b.ReLU(b.BiasAdd(c, 1))
		return b.MustFinish()
	}
	return map[string]*DAG{"mm": mm(), "conv": conv()}
}

func TestEncodeDecodeDAGBinaryRoundTrip(t *testing.T) {
	for name, d := range goldenDAGs() {
		data, err := EncodeDAGBinary(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.HasPrefix(data, append(wireMagic, WireVersion)) {
			t.Fatalf("%s: encoded bytes lack the wire magic", name)
		}
		got, err := DecodeDAGBinary(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.String() != d.String() {
			t.Errorf("%s: decoded DAG renders differently:\n--- want\n%s\n--- got\n%s", name, d, got)
		}
		if got.TotalFlops() != d.TotalFlops() {
			t.Errorf("%s: flops drifted: %g != %g", name, got.TotalFlops(), d.TotalFlops())
		}
		// Aliasing must be rebuilt pointer-identically.
		last := got.Nodes[len(got.Nodes)-1]
		if got.Producer(last.Reads[0].Tensor) == nil {
			t.Fatalf("%s: decoded consumer's read is not aliased to a producer output", name)
		}
		// encode∘decode must be a byte-level fixed point.
		again, err := EncodeDAGBinary(got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: encode(decode(encode)) is not a fixed point", name)
		}
	}
}

func TestEncodeDAGRejectsDuplicateTensorNames(t *testing.T) {
	d := goldenDAGs()["mm"]
	// Force two distinct tensors to share a name.
	d.Nodes[0].Out.Name = d.Inputs[0].Name
	if _, err := EncodeDAGBinary(d); err == nil {
		t.Error("EncodeDAGBinary should refuse two distinct tensors with one name")
	}
}

// jsonDAG is a computation in the JSON form this tree once shipped: the
// binary codec is the only wire, so every decoder must refuse it.
const jsonDAG = `{"name":"wire-mm","tensors":[{"name":"A","shape":[32,32],"elem_bytes":4}],"inputs":["A"],"nodes":[]}`

// TestDecodeDAGAutoSniffsBothFormats: DecodeDAGAuto decodes the binary
// wire and refuses a JSON DAG with the missing-magic error.
func TestDecodeDAGAutoSniffsBothFormats(t *testing.T) {
	d := goldenDAGs()["mm"]
	bin, err := EncodeDAGBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDAGAuto(bin)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != d.String() {
		t.Error("auto-decode changed the computation")
	}
	if got, err := DecodeDAGAuto([]byte(jsonDAG)); err == nil || !strings.Contains(err.Error(), "wire magic") {
		t.Errorf("DecodeDAGAuto(JSON) = %v, %v; want the missing-magic error", got, err)
	}
}

// TestGoldenWireFiles pins the v1 binary layout byte for byte: a codec
// change that alters existing bytes must bump the version instead.
func TestGoldenWireFiles(t *testing.T) {
	for name, d := range goldenDAGs() {
		path := filepath.Join("testdata", name+".wire")
		data, err := EncodeDAGBinary(d)
		if err != nil {
			t.Fatal(err)
		}
		if *updateWire {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update-wire to create the golden file)", err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: wire bytes changed (%d -> %d bytes); the v1 format is frozen — bump WireVersion for layout changes",
				name, len(want), len(data))
		}
		// And the committed bytes must still decode to the computation.
		got, err := DecodeDAGBinary(want)
		if err != nil {
			t.Fatalf("%s: committed golden no longer decodes: %v", name, err)
		}
		if got.String() != d.String() {
			t.Errorf("%s: committed golden decodes to a different computation", name)
		}
	}
}

func TestDecodeDAGBinaryRejectsGarbage(t *testing.T) {
	d := goldenDAGs()["mm"]
	good, err := EncodeDAGBinary(d)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"magic only":  good[:4],
		"bad magic":   append([]byte("XYZ\x01"), good[4:]...),
		"bad version": append([]byte("TED\x07"), good[4:]...),
		"truncated":   good[:len(good)/2],
		"json":        []byte(`{"name":"x"}`),
	}
	for name, data := range cases {
		if _, err := DecodeDAGBinary(data); err == nil {
			t.Errorf("DecodeDAGBinary(%s) should fail", name)
		}
	}
	// Every single-byte truncation must error, never panic.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeDAGBinary(good[:i]); err == nil {
			t.Fatalf("truncation at %d of %d decoded successfully", i, len(good))
		}
	}
}

func FuzzDecodeDAGBinary(f *testing.F) {
	for _, d := range goldenDAGs() {
		data, err := EncodeDAGBinary(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// Seed a few systematic corruptions so the fuzzer starts near the
		// interesting surface.
		for _, i := range []int{4, len(data) / 2, len(data) - 1} {
			mut := append([]byte(nil), data...)
			mut[i] ^= 0xff
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDAGBinary(data)
		if err != nil {
			return
		}
		// Anything that decodes must be a valid DAG and survive a
		// re-encode/re-decode cycle as a fixed point.
		if err := d.Validate(); err != nil {
			t.Fatalf("decoded DAG fails validation: %v", err)
		}
		enc, err := EncodeDAGBinary(d)
		if err != nil {
			t.Fatalf("re-encode of decoded DAG failed: %v", err)
		}
		d2, err := DecodeDAGBinary(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		enc2, err := EncodeDAGBinary(d2)
		if err != nil {
			t.Fatalf("fixed-point re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encode∘decode is not a fixed point")
		}
	})
}

// FuzzDecodeDAG aims DecodeDAGAuto at what is not the binary wire —
// JSON DAGs above all, which workers once accepted: it must answer
// exactly as DecodeDAGBinary does, and anything opening with '{' is an
// error, never a panic or a DAG.
func FuzzDecodeDAG(f *testing.F) {
	f.Add([]byte(jsonDAG))
	f.Add([]byte(`{"name":"x","tensors":[],"inputs":[],"nodes":[]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDAGAuto(data)
		if _, berr := DecodeDAGBinary(data); (err == nil) != (berr == nil) {
			t.Fatalf("DecodeDAGAuto err=%v but DecodeDAGBinary err=%v", err, berr)
		}
		if err != nil {
			return
		}
		if len(data) > 0 && data[0] == '{' {
			t.Fatalf("a JSON-looking payload decoded: %q", data)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("decoded DAG fails validation: %v", err)
		}
	})
}

// BenchmarkDAGCodec times an encode+decode round trip of the wire codec
// and reports payload bytes.
func BenchmarkDAGCodec(b *testing.B) {
	bb := NewBuilder("bench")
	x := bb.Input("X", 1, 64, 56, 56)
	c := bb.Conv2D(x, ConvOpts{OutChannels: 64, Kernel: 3, Stride: 1, Pad: 1})
	bb.ReLU(bb.BiasAdd(c, 1))
	d := bb.MustFinish()

	b.Run("codec=binary", func(b *testing.B) {
		data, err := EncodeDAGBinary(d)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(data)), "wire_bytes")
		for i := 0; i < b.N; i++ {
			enc, err := EncodeDAGBinary(d)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeDAGBinary(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
