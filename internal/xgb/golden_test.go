package xgb

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/model_golden.txt from the current run")

// TestModelGolden pins what training computes, through the public surface
// only: the fingerprint of the ensemble and the bits of every program and
// statement score, for a fit and for that fit followed by boosts. The
// file was recorded when training built pointer trees and prediction
// walked a slab re-packed from them, so it holds the node layout to the
// bytes Fingerprint hashed then (tree-relative child
// indices) and the slab walk to the scores the tree walk gave. The data
// has ties, constant columns and duplicated columns (multiStmt, tied).
func TestModelGolden(t *testing.T) {
	const path = "testdata/model_golden.txt"
	progs, y := multiStmt(300, 8, true, 31)
	old := 240
	var b strings.Builder
	dump := func(name string, m *CostModel) {
		fmt.Fprintf(&b, "%s trees %d fingerprint %016x\n", name, m.NumTrees(), m.Fingerprint())
		for i, p := range progs {
			fmt.Fprintf(&b, "%s %d score %016x stmt %016x\n", name, i,
				math.Float64bits(m.Score(p)), math.Float64bits(m.ScoreStmt(p[len(p)-1])))
		}
	}
	o := DefaultOpts()
	o.Workers = 2
	m := NewCostModel(o)
	m.Fit(progs[:old], y[:old])
	dump("fit", m)
	m.Boost(progs, y, old)
	dump("fit+boost", m)
	m.Boost(progs, y, old+30) // a second boost continues from a boosted slab
	dump("fit+boost+boost", m)

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() == string(want) {
		return
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			t.Fatalf("line %d differs from %s\n got %q\nwant %q", i+1, path, got[i], wantLines[i])
		}
	}
	t.Fatalf("%d lines, %s has %d", len(got), path, len(wantLines))
}
