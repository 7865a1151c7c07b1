package fleet

import (
	"testing"

	"repro/internal/jsonx"
)

// TestDecodeAllocationCeiling pins what reading a lease grant's header
// and a lease request that carries results costs the heap: the strings,
// bytes, lists and pointer they decode to, and no more — the Reader
// stays on the stack, one object below what these bodies cost while it
// was handed to a func value.
func TestDecodeAllocationCeiling(t *testing.T) {
	grant := appendGrant(nil, LeaseGrant{Lease: 9, Job: "9f-3", Task: "C2D.s1", Trace: "C2D.s1@intel#3",
		Target: "intel-20c-avx512", DAGBin: []byte("TED\x01abc"), Indices: []int{0, 1}})
	lease, err := appendLease(nil, LeaseRequest{Worker: "w1", Target: "intel-20c-avx512", Capacity: 16, WaitMS: 10000,
		Done: &ResultPost{Job: "9f-3", Lease: 9, Results: []WorkerResult{{Index: 0, Noiseless: 0.0042}}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		decode  func() error
		ceiling float64
	}{
		{"lease grant", func() error {
			d := jsonx.NewReader(grant)
			_, err := jsonx.Decode(&d, readGrant(&d))
			return err
		}, 7},
		{"lease request", func() error {
			d := jsonx.NewReader(lease)
			_, err := jsonx.Decode(&d, readLease(&d, nil))
			return err
		}, 5},
	} {
		got := testing.AllocsPerRun(100, func() {
			if err := c.decode(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocations, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
