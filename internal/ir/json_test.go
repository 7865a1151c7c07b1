package ir

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// The reflection codec EncodeSteps and DecodeSteps replaced, kept as
// their oracle: the hand-written pair must write its bytes and read its
// meaning.

type refEnvelope struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

func refEncodeSteps(steps []Step) ([]byte, error) {
	envs := make([]refEnvelope, len(steps))
	for i, s := range steps {
		data, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		envs[i] = refEnvelope{Kind: s.Name(), Data: data}
	}
	return json.Marshal(envs)
}

func refDecodeSteps(data []byte) ([]Step, error) {
	var envs []refEnvelope
	if err := json.Unmarshal(data, &envs); err != nil {
		return nil, err
	}
	steps := make([]Step, len(envs))
	for i, e := range envs {
		proto, ok := stepKinds[e.Kind]
		if !ok {
			return nil, fmt.Errorf("unknown step kind %q", e.Kind)
		}
		steps[i] = reflect.New(reflect.TypeOf(proto).Elem()).Interface().(Step)
		if err := json.Unmarshal(e.Data, steps[i]); err != nil {
			return nil, err
		}
	}
	return steps, nil
}

// everyKind is one step of each kind with every field set, plus the nil
// and empty list forms the encoding tells apart.
func everyKind(name string) []Step {
	return []Step{
		&InlineStep{Stage: name},
		&SplitStep{Stage: name, IterIdx: 3, Factors: []int{4, -1, 0}},
		&SplitStep{Stage: name, Factors: []int{}},
		&SplitStep{Stage: name},
		&FuseStep{Stage: name, First: 1, Count: 2},
		&ReorderStep{Stage: name, Perm: []int{2, 0, 1}},
		&AnnotateStep{Stage: name, IterIdx: 12, Ann: AnnUnroll},
		&PragmaStep{Stage: name, AutoUnrollMax: 512},
		&LayoutRewriteStep{Stage: name},
		&MultiLevelTileStep{Stage: name, Structure: "SSRSRS",
			SpaceFactors: [][]int{{1, 2, 3}, nil, {}}, ReduceFactors: [][]int{{256}}},
		&MultiLevelTileStep{Stage: name, Structure: "SS", SpaceFactors: [][]int{}},
		&FuseConsumerStep{Producer: name, Consumer: name + ".c", OuterLevels: 2},
		&CacheWriteStep{Stage: name},
		&RFactorStep{Stage: name, ReduceIdx: 1, Factor: 1 << 40},
		&ComputeAtStep{Stage: name, Target: name, IterIdx: -7},
		&ComputeRootStep{Stage: name},
	}
}

// TestStepCodecMatchesOracle: byte-identical encoding and an exact round
// trip for every kind, and for every string encoding/json escapes.
func TestStepCodecMatchesOracle(t *testing.T) {
	names := []string{"C", "", "C.cache", `q"uote`, `back\slash`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "<html>&amp;",
		"line\u2028para\u2029", "café 世界 \U0001F600", "bad\xff\xfeutf8\xc3", "\xed\xa0\x80"}
	for _, name := range names {
		steps := everyKind(name)
		got, err := EncodeSteps(steps)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refEncodeSteps(steps)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("stage %q encodes differently:\n got %s\nwant %s", name, got, want)
		}
		dec, err := DecodeSteps(got)
		if err != nil {
			t.Fatalf("stage %q: %v", name, err)
		}
		ref, err := refDecodeSteps(got)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, ref) {
			t.Fatalf("stage %q decodes differently:\n got %s\nwant %s", name, dumpSteps(dec), dumpSteps(ref))
		}
	}
	if got, _ := EncodeSteps(nil); string(got) != "[]" {
		t.Errorf("empty list encodes as %s", got)
	}
	if _, err := EncodeSteps([]Step{nil}); err == nil {
		t.Error("a step of no known type encoded")
	}
}

func dumpSteps(steps []Step) string {
	var b bytes.Buffer
	for _, s := range steps {
		fmt.Fprintf(&b, "%#v ", s)
	}
	return b.String()
}

// decodeSeeds are inputs DecodeSteps must read as the oracle does (free
// whitespace, key order, escapes) or refuse where its doc comment says it
// is the stricter of the two.
var decodeSeeds = []string{
	`[]`, ` [ ] `, `[{"kind":"Inline","data":{"Stage":"C"}}]`,
	"[\n\t{ \"data\" : { \"Factors\" : [ 1 , 2 ] , \"IterIdx\" : 3 , \"Stage\" : \"C\" } , \"kind\" : \"Split\" }\r\n]",
	`[{"data":{"Stage":"}{\"]["},"kind":"CacheWrite"}]`,
	`[{"kind":"Split","data":{}}]`, `[{"kind":"Split","data":{"Factors":null}}]`, `[{"kind":"Split","data":{"Factors":[]}}]`,
	`[{"kind":"MultiLevelTile","data":{"SpaceFactors":[null,[],[1]],"ReduceFactors":[]}}]`,
	`[{"kind":"Inline","data":{"Stage":"A\ud83d\ude00\u00e9\ud83dA\ude00\/\b\f\n\r\t\"\\"}}]`,
	`[{"kind":"Inline","data":{"Stage":"C"}}]`,
	`[{"kind":"Fuse","data":{"First":-0,"Count":9223372036854775807}}]`,
	// Refused by both.
	``, `garbage`, `[`, `[{]`, `[{"kind":"Bogus","data":{}}]`, `[{"kind":"Inline"}]`, `[{"kind":"Inline","data":{"Stage":"C"}},]`,
	`[{"kind":"Fuse","data":{"First":1.0}}]`, `[{"kind":"Fuse","data":{"First":1e2}}]`, `[{"kind":"Fuse","data":{"First":01}}]`,
	`[{"kind":"Fuse","data":{"First":9223372036854775808}}]`, `[{"kind":"Fuse","data":{"First":"1"}}]`,
	`[{"kind":"Inline","data":{"Stage":"a` + "\n" + `b"}}]`, `[{"kind":"Inline","data":{"Stage":"\x"}}]`, `[{"kind":"Inline","data":{"Stage":"\u12"}}]`,
	`[{"kind":"Split","data":{"Factors":[1,]}}]`, `[{"kind":"Split","data":{"Factors":[1 2]}}]`, `[{"kind":"Inline","data":[]}]`,
	`[{"kind":"Inline","data":{"Stage":"C"}}] x`,
	// Refused here, read by encoding/json: the documented strictness.
	`null`, `[{"kind":"Inline","data":null}]`, `[{"kind":"Inline","data":{"Stage":null}}]`, `[{"kind":"Fuse","data":{"First":null}}]`,
	`[{"Kind":"Inline","data":{"Stage":"C"}}]`, `[{"kind":"Inline","data":{"stage":"C"}}]`, `[{"kind":"Inline","data":{"Stage":"C","Extra":1}}]`,
	`[{"kind":"Inline","data":{"Stage":"C"},"more":1}]`, `[{"kind":"Inline","data":{"Stage":"C","Stage":"D"}}]`,
	`[{"kind":"Inline","kind":"CacheWrite","data":{"Stage":"C"}}]`, `[{"kind":"Inline","data":{"Stage":"C"},"data":{"Stage":"D"}}]`,
}

// FuzzDecodeSteps is the decoder's differential: whatever DecodeSteps
// accepts the oracle accepts and decodes to the same steps (nil and empty
// factor lists told apart), and what it accepts re-encodes to bytes that
// decode to the same steps again. Replaying the bytes as they are parsed
// (ReplayEncoded, on the heap and in an arena) is DecodeSteps then Replay
// on every input.
func FuzzDecodeSteps(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	for _, name := range []string{"C", "café\xff"} {
		enc, _ := EncodeSteps(everyKind(name))
		f.Add(enc)
	}
	for _, steps := range arenaPrograms() {
		enc, _ := EncodeSteps(steps)
		f.Add(enc)
	}
	dag := matmulReLU(64, 64, 64)
	f.Fuzz(func(t *testing.T, data []byte) {
		a := BorrowArena()
		checkReplayEncoded(t, dag, a, data)
		a.Release()
		got, err := DecodeSteps(data)
		if err != nil {
			return
		}
		want, rerr := refDecodeSteps(data)
		if rerr != nil {
			t.Fatalf("accepted %q, which encoding/json refuses: %v", data, rerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q decodes differently:\n got %s\nwant %s", data, dumpSteps(got), dumpSteps(want))
		}
		enc, err := EncodeSteps(got)
		if err != nil {
			t.Fatal(err)
		}
		if ref, _ := refEncodeSteps(got); !bytes.Equal(enc, ref) {
			t.Fatalf("%q re-encodes differently:\n got %s\nwant %s", data, enc, ref)
		}
		if again, err := DecodeSteps(enc); err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("%q does not survive a second trip: %v", data, err)
		}
	})
}

// TestDecodeStepsStrictness pins which seeds are read and which refused,
// so the list in the doc comment stays true.
func TestDecodeStepsStrictness(t *testing.T) {
	accepted := 0
	for _, s := range decodeSeeds {
		_, err := DecodeSteps([]byte(s))
		_, rerr := refDecodeSteps([]byte(s))
		if err == nil {
			accepted++
		}
		if err == nil && rerr != nil {
			t.Errorf("%q accepted, encoding/json refuses it: %v", s, rerr)
		}
	}
	if accepted != 12 {
		t.Errorf("%d seeds accepted, want the first 12", accepted)
	}
	for _, s := range decodeSeeds[:12] {
		if _, err := DecodeSteps([]byte(s)); err != nil {
			t.Errorf("%q refused: %v", s, err)
		}
	}
}
