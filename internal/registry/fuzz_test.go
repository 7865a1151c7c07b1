package registry

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzRegistryLoadFile hammers registry loading with arbitrary file
// contents: malformed, truncated, and single-object inputs must never panic,
// must report the same (key count, error) on every load, and a clean
// load must be a fixed point of save-then-load (compaction is
// idempotent).
func FuzzRegistryLoadFile(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden_registry.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(``))
	f.Add([]byte(`{"records":[{"task":"a","steps":[],"seconds":0.5}]}`))
	f.Add([]byte(`{"task":"a","steps":[],"seconds":1}` + "\n" + `{"task":"a","steps":[],"seconds":0.5}` + "\n"))
	f.Add(data[:len(data)/2]) // truncated mid-record
	f.Add([]byte(`{"task":"","steps":[],"seconds":1}`))
	f.Add([]byte(`{"task":"neg","steps":[],"seconds":-3}`))
	f.Fuzz(func(t *testing.T, content []byte) {
		path := filepath.Join(t.TempDir(), "reg.json")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		r1, err1 := LoadFile(path)
		r2, err2 := LoadFile(path)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("inconsistent error: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if r1.Len() != r2.Len() || !reflect.DeepEqual(r1.Keys(), r2.Keys()) {
			t.Fatalf("inconsistent load: %d/%v vs %d/%v", r1.Len(), r1.Keys(), r2.Len(), r2.Keys())
		}
		// Saving a registry and loading it back must reproduce it
		// exactly: the compacted best set is a fixed point.
		saved := filepath.Join(t.TempDir(), "saved.json")
		if err := r1.SaveFile(saved); err != nil {
			t.Fatalf("save of a loaded registry failed: %v", err)
		}
		r3, err := LoadFile(saved)
		if err != nil {
			t.Fatalf("re-load of a saved registry failed: %v", err)
		}
		if !reflect.DeepEqual(r1.Keys(), r3.Keys()) {
			t.Fatalf("round trip changed keys: %v -> %v", r1.Keys(), r3.Keys())
		}
		for _, k := range r1.Keys() {
			a, _ := r1.Best(k.Workload, k.Target, k.DAG)
			b, ok := r3.Best(k.Workload, k.Target, k.DAG)
			if !ok || a.Seconds != b.Seconds || a.Task != b.Task {
				t.Fatalf("round trip changed entry %v: %+v -> %+v", k, a, b)
			}
		}
	})
}

// TestGoldenRegistryFormat pins the registry file format: the committed
// golden best set must keep loading with the same keys, and — being
// already compacted and sorted — must re-save byte-identically.
func TestGoldenRegistryFormat(t *testing.T) {
	path := filepath.Join("testdata", "golden_registry.log")
	r, err := LoadFile(path)
	if err != nil {
		t.Fatalf("golden registry no longer loads: %v", err)
	}
	keys := r.Keys()
	if len(keys) != 3 {
		t.Fatalf("golden registry: want 3 keys, got %d: %v", len(keys), keys)
	}
	want := []Key{
		{"GMM.s1", "intel-20c-avx2", "b5424a4345e42360"},
		{"GMM.s2", "intel-20c-avx2", "b5424a4345e42360"},
		{"OldOp", "", ""},
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("golden registry keys drifted:\n got %v\nwant %v", keys, want)
	}
	// A key is exactly (workload, target, dag): the target-less entry is
	// served under ("", "") and for no other target, and no entry is
	// served for another shape of its workload.
	if rec, ok := r.Best("OldOp", "", ""); !ok || rec.Sig != "legacy;" {
		t.Errorf("target-less entry under its exact key: %+v ok=%v", rec, ok)
	}
	for _, miss := range []Key{
		{"OldOp", "some-new-machine", "ffff"},
		{"OldOp", "intel-20c-avx2", ""},
		{"GMM.s1", "intel-20c-avx2", "ffff"},
		{"GMM.s1", "", ""},
	} {
		if rec, ok := r.Best(miss.Workload, miss.Target, miss.DAG); ok {
			t.Errorf("Best(%v) served %+v, want a miss", miss, rec)
		}
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Log().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("re-saving the golden registry changed its bytes; the registry format drifted:\n got %q\nwant %q",
			buf.Bytes(), raw)
	}
}
