package ir

import (
	"fmt"
)

// This file implements a semantic checker for lowered programs: it
// enumerates the full iteration space of every statement (for small
// programs) and counts writes per tensor element. Scheduling steps must
// not change *what* is computed, only *in which order* — so the
// per-element write counts of the program output must match the naive
// program's, except for reduction factorization which legitimately
// re-associates the accumulation. The evolutionary search relies on
// replay validation for cheap per-candidate checking; this checker is the
// heavyweight ground truth used in tests (§5.1: "Ansor further verifies
// the merged programs to guarantee the functional correctness").

// WriteCounts enumerates every statement's iteration space and returns
// per-tensor, per-linear-element write counts. It refuses programs whose
// total iteration count exceeds limit.
func (l *Lowered) WriteCounts(limit int64) (map[string][]int64, error) {
	total := int64(0)
	for i := range l.Stmts {
		total += l.Stmts[i].IterCount()
	}
	if total > limit {
		return nil, fmt.Errorf("ir: %d iterations exceed check limit %d", total, limit)
	}
	out := map[string][]int64{}
	for i := range l.Stmts {
		st := &l.Stmts[i]
		if st.Write == nil {
			continue
		}
		t := st.Write.Tensor
		counts, ok := out[t.Name]
		if !ok {
			counts = make([]int64, t.NumElems())
			out[t.Name] = counts
		}
		strides := make([]int, len(t.Shape))
		s := 1
		for d := len(t.Shape) - 1; d >= 0; d-- {
			strides[d] = s
			s *= t.Shape[d]
		}
		// Precompute per-loop linear strides of the write.
		n := len(st.Loops)
		lin := make([]int, n)
		for d := range t.Shape {
			for j, c := range st.Write.Row(d) {
				lin[j] += c * strides[d]
			}
		}
		// Odometer over the loop extents.
		ix := make([]int, n)
		elem := 0
		for {
			if elem >= 0 && elem < len(counts) {
				counts[elem]++
			}
			j := n - 1
			for ; j >= 0; j-- {
				ix[j]++
				elem += lin[j]
				if ix[j] < st.Loops[j].Extent {
					break
				}
				elem -= ix[j] * lin[j]
				ix[j] = 0
			}
			if j < 0 {
				break
			}
		}
	}
	return out, nil
}

// VerifyAgainstNaive checks a scheduled state against the naive program
// of the same DAG:
//
//  1. every element of the DAG output tensor is written at least once;
//  2. unless the schedule uses reduction factorization (which
//     re-associates the accumulation), the per-element write counts of
//     the output tensor match the naive program exactly.
//
// limit bounds the enumerated iterations; use small shapes in tests.
func VerifyAgainstNaive(s *State, limit int64) error {
	low, err := Lower(s)
	if err != nil {
		return err
	}
	got, err := low.WriteCounts(limit)
	if err != nil {
		return err
	}
	naive, err := Lower(NewState(s.DAG))
	if err != nil {
		return err
	}
	want, err := naive.WriteCounts(limit)
	if err != nil {
		return err
	}
	outName := s.DAG.Output().Name
	g, ok := got[outName]
	if !ok {
		return fmt.Errorf("ir: scheduled program never writes output %q", outName)
	}
	for i, c := range g {
		if c == 0 {
			return fmt.Errorf("ir: output %q element %d never written", outName, i)
		}
	}
	if usesStep(s, "RFactor") {
		// Reduction factorization re-associates accumulations; only the
		// coverage invariant above applies.
		return nil
	}
	// Compare write counts per naive tensor. A cache-write schedule moves
	// the accumulation into "<tensor>.cache" (which must then match the
	// naive counts) and writes the original tensor exactly once per
	// element. Inlined tensors disappear, which is fine.
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			if name == outName {
				return fmt.Errorf("ir: output %q missing", outName)
			}
			continue // inlined away
		}
		if equalCounts(g, w) {
			continue
		}
		cache, hasCache := got[name+".cache"]
		if hasCache && equalCounts(cache, w) && allOnes(g) {
			continue
		}
		return fmt.Errorf("ir: tensor %q write counts diverge from naive (no cache stage explains it)", name)
	}
	return nil
}

func usesStep(s *State, kind string) bool {
	for _, step := range s.Steps {
		if step.Name() == kind {
			return true
		}
	}
	return false
}

func equalCounts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allOnes(a []int64) bool {
	for _, v := range a {
		if v != 1 {
			return false
		}
	}
	return true
}
