package warm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/measure"
)

// property_test.go pins the algebraic contracts of the cross-target
// transfer primitives — the properties every layer (warm start, fleet
// sibling dispatch, pooled calibration) silently relies on — instead of
// single hand-picked examples.

// distancePool mixes the real machine-model names with adversarial
// near-misses (single-component names, shared prefixes, gpu-ish names).
var distancePool = []string{
	"intel-20c-avx2", "intel-20c-avx512", "intel-40c-avx2",
	"arm-cortex-a53", "arm-cortex-a72", "amd-7702-avx2",
	"nvidia-v100", "nvidia-a100", "tpu-gpu-v4",
	"cpu", "gpu", "x", "",
}

// gpuClass mirrors the documented classification: GPUs are named by
// vendor prefix or carry "gpu" in the name.
func gpuClass(name string) bool {
	return strings.HasPrefix(name, "nvidia") || strings.Contains(name, "gpu")
}

func pick(i uint16) string { return distancePool[int(i)%len(distancePool)] }

// TestTargetDistanceProperties: for arbitrary pairs drawn from the pool,
// distance is symmetric, zero exactly on identity, ranges over 0..3, and
// crosses the CPU/GPU class boundary at exactly — and only at — 3.
func TestTargetDistanceProperties(t *testing.T) {
	prop := func(ai, bi uint16) bool {
		a, b := pick(ai), pick(bi)
		d, rd := measure.TargetDistance(a, b), measure.TargetDistance(b, a)
		if d != rd {
			t.Logf("asymmetric: d(%q,%q)=%d d(%q,%q)=%d", a, b, d, b, a, rd)
			return false
		}
		if d < 0 || d > 3 {
			t.Logf("out of range: d(%q,%q)=%d", a, b, d)
			return false
		}
		if (d == 0) != (a == b) {
			t.Logf("identity violated: d(%q,%q)=%d", a, b, d)
			return false
		}
		if (d == 3) != (gpuClass(a) != gpuClass(b)) {
			t.Logf("class boundary violated: d(%q,%q)=%d gpu=%v/%v", a, b, d, gpuClass(a), gpuClass(b))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestTargetDistanceWeightMonotone: the transfer weight schedule is
// strictly decreasing in distance — closer targets never transfer at a
// lower weight than farther ones, and the class boundary transfers
// nothing.
func TestTargetDistanceWeightMonotone(t *testing.T) {
	weights := []float64{1, measure.WeightSibling, measure.WeightSameClass, 0}
	for d := 1; d < len(weights); d++ {
		if weights[d] >= weights[d-1] {
			t.Fatalf("weight(distance %d) = %v >= weight(distance %d) = %v", d, weights[d], d-1, weights[d-1])
		}
	}
	if measure.UncalibratedFactor <= 0 || measure.UncalibratedFactor >= 1 {
		t.Fatalf("uncalibrated factor %v must strictly discount", measure.UncalibratedFactor)
	}
}

// TestFitCalibrationRecoversKnownScale: for random pair counts and a
// random true scale, fitting records that relate by exactly that scale
// recovers it; and the fit is a pure function of the record multiset —
// shuffling input order changes no bit of the answer.
func TestFitCalibrationRecoversKnownScale(t *testing.T) {
	const native, sib = "intel-20c-avx512", "intel-20c-avx2"
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scale := 0.25 + 3*rng.Float64() // sibling clock -> native clock
		var refs []measure.Record
		npairs := 3 + rng.Intn(10)
		for i := 0; i < npairs; i++ {
			x := 1e-4 + rng.Float64() // sibling seconds
			task, dag := fmt.Sprintf("t%d", i), fmt.Sprintf("d%d", i)
			refs = append(refs, wrec(task, sib, dag, x, 2*i))
			refs = append(refs, wrec(task, native, dag, x*scale, 2*i+1))
		}
		// Chaff that must not disturb the fit: overlap-free records and
		// a cross-class target.
		refs = append(refs,
			wrec("lonely", sib, "dz", 99, 1000),
			wrec("other", "nvidia-v100", "dg", 1e-6, 1001))
		cal := measure.FitCalibration(refs, native)
		s, ok := cal.Scale(sib)
		if !ok {
			t.Fatalf("seed %d: no scale fit from %d exact pairs", seed, npairs)
		}
		if math.Abs(s-scale) > 1e-9*scale {
			t.Fatalf("seed %d: fit %v, want %v (%d pairs)", seed, s, scale, npairs)
		}
		// Permutation invariance, bit-exact.
		shuffled := append([]measure.Record(nil), refs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		s2, _ := measure.FitCalibration(shuffled, native).Scale(sib)
		if s2 != s {
			t.Fatalf("seed %d: fit depends on record order: %v vs %v", seed, s, s2)
		}
	}
}

// TestFitCalibrationCountsSiblingMeasuredRecords: a record with
// measured_on provenance holds the exact time of the target it is filed
// under, computed on another box (near-sibling fleet dispatch), so it is
// as clean a sample as any other and counts toward the pair total.
func TestFitCalibrationCountsSiblingMeasuredRecords(t *testing.T) {
	const native, sib = "intel-20c-avx512", "intel-20c-avx2"
	refs := []measure.Record{
		wrec("a", sib, "d1", 2.0, 0), wrec("a", native, "d1", 1.0, 1),
		wrec("b", sib, "d2", 4.0, 2), wrec("b", native, "d2", 2.0, 3),
	}
	onNative := wrec("c", sib, "d3", 6.0, 4)
	onNative.MeasuredOn = native
	onSib := wrec("c", native, "d3", 3.0, 5)
	onSib.MeasuredOn = sib
	cal := measure.FitCalibration(append(refs, onNative, onSib), native)
	if s, ok := cal.Scale(sib); !ok || math.Abs(s-0.5) > 1e-12 || cal.Pairs[sib] != 3 {
		t.Fatalf("scale = %v (ok=%v) from %d pairs, want 0.5 from all 3", s, ok, cal.Pairs[sib])
	}
}

// TestUncalibratedDiscountAppliedExactlyOnce: a sibling record with no
// overlap to calibrate from is discounted by measure.UncalibratedFactor exactly
// once — never zero times (full sibling weight would overtrust a foreign
// clock) and never twice — and a calibrated sibling is not discounted at
// all beyond its distance weight.
func TestUncalibratedDiscountAppliedExactlyOnce(t *testing.T) {
	const target = "intel-20c-avx512"
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sec := 1e-3 + rng.Float64()
		uncal := Prepare([]measure.Record{wrec("t", "intel-20c-avx2", "d1", sec, 0)}, "t", target, "src")
		if len(uncal) != 1 {
			t.Fatalf("seed %d: prepared %d records, want 1", seed, len(uncal))
		}
		if want := measure.WeightSibling * measure.UncalibratedFactor; uncal[0].Weight != want {
			t.Fatalf("seed %d: uncalibrated sibling weight = %v, want exactly %v", seed, uncal[0].Weight, want)
		}
		if uncal[0].Record.Seconds != sec {
			t.Fatalf("seed %d: uncalibrated seconds rescaled: %v vs %v", seed, uncal[0].Record.Seconds, sec)
		}
		// With an overlap pair the scale fits and the weight is the plain
		// distance weight: the uncalibrated discount must vanish entirely.
		cal := Prepare([]measure.Record{
			wrec("t", "intel-20c-avx2", "d1", sec, 0),
			wrec("t", target, "d1", sec/2, 1),
		}, "t", target, "src")
		var sibRec *measure.Record
		var sibW float64
		for i := range cal {
			if cal[i].Record.Target == "intel-20c-avx2" {
				sibRec, sibW = &cal[i].Record, cal[i].Weight
			}
		}
		if sibRec == nil {
			t.Fatalf("seed %d: calibrated sibling record missing", seed)
		}
		if sibW != measure.WeightSibling {
			t.Fatalf("seed %d: calibrated sibling weight = %v, want exactly %v", seed, sibW, measure.WeightSibling)
		}
		if math.Abs(sibRec.Seconds-sec/2) > 1e-15 {
			t.Fatalf("seed %d: calibrated seconds = %v, want %v", seed, sibRec.Seconds, sec/2)
		}
	}
}

// TestPreparePooledCalibrationPrecedence: a pooled calibration fills the
// gap when the task has no local overlap (the record scales and sheds
// the uncalibrated discount), but a locally-fit scale always wins over
// a contradicting pooled one.
func TestPreparePooledCalibrationPrecedence(t *testing.T) {
	const target, sib = "intel-20c-avx512", "intel-20c-avx2"
	pooled := &measure.Calibration{Target: target, Scales: map[string]float64{sib: 0.25}}

	// No local overlap: the pooled scale applies at full sibling weight.
	out := PrepareCalibrated([]measure.Record{wrec("t", sib, "d1", 2.0, 0)}, "t", target, "src", pooled)
	if len(out) != 1 || out[0].Weight != measure.WeightSibling {
		t.Fatalf("pooled fallback: %+v, want weight %v", out, measure.WeightSibling)
	}
	if out[0].Record.Seconds != 0.5 {
		t.Fatalf("pooled fallback seconds = %v, want 2.0 x 0.25", out[0].Record.Seconds)
	}

	// Local overlap fits 0.5; the pooled 0.25 must not override it.
	out = PrepareCalibrated([]measure.Record{
		wrec("t", sib, "d1", 2.0, 0),
		wrec("t", target, "d1", 1.0, 1),
	}, "t", target, "src", pooled)
	for _, wr := range out {
		if wr.Record.Target == sib && wr.Record.Seconds != 1.0 {
			t.Fatalf("local fit overridden by pooled: seconds = %v, want 2.0 x 0.5", wr.Record.Seconds)
		}
	}

	// A pooled calibration for a DIFFERENT native target is ignored
	// outright (Merge refuses mismatched targets).
	wrong := &measure.Calibration{Target: "arm-cortex-a53", Scales: map[string]float64{sib: 0.001}}
	out = PrepareCalibrated([]measure.Record{wrec("t", sib, "d1", 2.0, 0)}, "t", target, "src", wrong)
	if want := measure.WeightSibling * measure.UncalibratedFactor; len(out) != 1 || out[0].Weight != want || out[0].Record.Seconds != 2.0 {
		t.Fatalf("mismatched pooled target must be ignored: %+v", out)
	}
}
