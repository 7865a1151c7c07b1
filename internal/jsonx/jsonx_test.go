package jsonx

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestValue(t *testing.T) {
	deep := strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth)
	for in, want := range map[string]int{
		`[]`: 2,
		`{}`: 2,
		`[{"a":[1,-2.5e3,true,false,null,"x<&>"]},{}]`: 44,
		`"s"tail`:        3,
		`0,`:             1,
		deep:             len(deep),
		"[" + deep + "]": -1, // deeper than maxDepth
		`[ ]`:            -1, // whitespace
		`["\n"]`:         -1, // an escape
		`["é"]`:          -1, // non-ASCII
		`[1,]`:           -1,
		`{"a"1}`:         -1,
		`{1:2}`:          -1,
		`[01]`:           -1,
		`[tru]`:          -1,
		`[`:              -1,
		``:               -1,
	} {
		if got := Value([]byte(in), 0); got != want {
			t.Errorf("Value(%q) = %d, want %d", in, got, want)
		}
	}
}

// FuzzValue holds Value sound: what it spans is one compact JSON value,
// which encoding/json accepts and compacts to the same bytes.
func FuzzValue(f *testing.F) {
	for _, s := range []string{`[]`, `[{"a":[1,-2.5e3,true,null,"x"]},{}]`, `[ 1]`, `["é"]`, `{"a":{"b":[0.5]}}x`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		end := Value(b, 0)
		if end < 0 {
			return
		}
		v := b[:end]
		if !json.Valid(v) {
			t.Fatalf("Value spans %q, which is not JSON", v)
		}
		var c bytes.Buffer
		if err := json.Compact(&c, v); err != nil || !bytes.Equal(c.Bytes(), v) {
			t.Fatalf("Value spans %q, which compacts to %q (%v)", v, c.Bytes(), err)
		}
	})
}
