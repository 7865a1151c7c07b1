// Package sim provides deterministic analytic machine models that assign
// an execution time to any complete lowered tensor program.
//
// This package is the repository's substitution for the paper's real
// testbeds (Intel Xeon, ARM Cortex-A53, NVIDIA V100) and the TVM code
// generator — see DESIGN.md. The model rewards exactly the optimizations
// Ansor's search space expresses:
//
//   - multi-level tiling  → working-set analysis over the cache hierarchy
//   - operator fusion     → intermediate tensors never round-trip to DRAM
//   - vectorization       → lane-wide compute when the innermost loop is
//     unit-stride
//   - parallelization     → core scaling with spawn overhead and DRAM
//     bandwidth that does not scale
//   - unrolling           → loop-branch overhead elimination, bounded by
//     an instruction-cache budget
//   - rfactor             → reductions become parallelizable space loops
//   - cache-write stages  → the heavy stage writes a small resident block
//
// The model is analytic (no per-element interpretation), pure and
// deterministic, so search dynamics are reproducible.
package sim

import (
	"math"
)

// CacheLevel describes one level of the cache hierarchy.
type CacheLevel struct {
	Name      string
	SizeBytes int64
	LineBytes int
	// FillBW is the per-core fill bandwidth from the next level, in
	// bytes/cycle.
	FillBW float64
	// Shared marks the level shared among all cores (its size is not
	// multiplied per core, and its bandwidth is divided among them).
	Shared bool
}

// Machine is an analytic hardware model.
type Machine struct {
	Name    string
	FreqGHz float64
	Cores   int
	// VectorLanes is the float32 SIMD width (8 = AVX2, 16 = AVX-512,
	// 4 = NEON, 32 = a GPU warp).
	VectorLanes int
	// FMAIssue is the number of vector FMA instructions issued per cycle
	// per core.
	FMAIssue float64
	// LoadIssue is the number of loads issued per cycle per core.
	LoadIssue float64

	Caches []CacheLevel

	// MemBWGBs is total DRAM bandwidth in GB/s (shared by all cores).
	MemBWGBs float64

	// ParallelSpawnNs is the overhead of launching one parallel region
	// (thread-pool wakeup, or kernel launch on a GPU).
	ParallelSpawnNs float64
	// LoopOverheadCycles is the branch/increment cost per iteration of a
	// non-unrolled loop.
	LoopOverheadCycles float64
	// UnrollBudget is the maximum unrolled body size (in statement
	// instances) before instruction-cache pressure negates the benefit.
	UnrollBudget int

	// GPU marks a throughput-oriented device: statements without a
	// parallel loop run on a single compute unit, and non-unit-stride
	// vector accesses pay an uncoalesced-access penalty.
	GPU bool
}

// PeakGFLOPS returns the machine's peak single-precision throughput.
func (m *Machine) PeakGFLOPS() float64 {
	return m.FreqGHz * float64(m.Cores) * float64(m.VectorLanes) * m.FMAIssue * 2
}

// IntelXeon models the paper's 20-core Intel Platinum 8269CY with AVX-512
// disabled (the configuration used for all search frameworks in §7.1).
func IntelXeon() *Machine {
	return &Machine{
		Name:        "intel-20c-avx2",
		FreqGHz:     3.1,
		Cores:       20,
		VectorLanes: 8,
		FMAIssue:    2,
		LoadIssue:   2,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, FillBW: 64},
			{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, FillBW: 32},
			{Name: "L3", SizeBytes: 36 << 20, LineBytes: 64, FillBW: 16, Shared: true},
		},
		MemBWGBs:           100,
		ParallelSpawnNs:    1500,
		LoopOverheadCycles: 2,
		UnrollBudget:       512,
	}
}

// IntelXeonAVX512 is the same machine with AVX-512 enabled (the vendor
// library configuration in §7.1, and all frameworks in §7.3).
func IntelXeonAVX512() *Machine {
	m := IntelXeon()
	m.Name = "intel-20c-avx512"
	m.VectorLanes = 16
	return m
}

// ARMCortexA53 models the paper's Raspberry Pi 3b+ (4-core Cortex-A53).
func ARMCortexA53() *Machine {
	return &Machine{
		Name:        "arm-cortex-a53",
		FreqGHz:     1.4,
		Cores:       4,
		VectorLanes: 4,
		FMAIssue:    1,
		LoadIssue:   1,
		Caches: []CacheLevel{
			{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, FillBW: 16},
			{Name: "L2", SizeBytes: 512 << 10, LineBytes: 64, FillBW: 8, Shared: true},
		},
		MemBWGBs:           4,
		ParallelSpawnNs:    8000,
		LoopOverheadCycles: 3,
		UnrollBudget:       256,
	}
}

// NVIDIAV100 models the paper's V100 GPU. The "cores" are streaming
// multiprocessors; vector lanes are a warp; the parallel annotation maps
// to thread-block distribution across SMs.
func NVIDIAV100() *Machine {
	return &Machine{
		Name:        "nvidia-v100",
		FreqGHz:     1.53,
		Cores:       80,
		VectorLanes: 32,
		FMAIssue:    2,
		LoadIssue:   1,
		Caches: []CacheLevel{
			{Name: "SMEM", SizeBytes: 96 << 10, LineBytes: 128, FillBW: 128},
			{Name: "L2", SizeBytes: 6 << 20, LineBytes: 128, FillBW: 64, Shared: true},
		},
		MemBWGBs:           900,
		ParallelSpawnNs:    5000,
		LoopOverheadCycles: 1,
		UnrollBudget:       256,
		GPU:                true,
	}
}

// effectiveFlops weights expensive operations: divisions and transcendental
// calls cost several FMA slots.
func effectiveFlops(add, sub, mul, div, max, cmp, math_, intOps float64) float64 {
	f := add + sub + mul + max + cmp + 8*div + 16*math_ + 0.5*intOps
	if f < 1 {
		f = 1
	}
	return f
}

func minf(a, b float64) float64 { return math.Min(a, b) }
func maxf(a, b float64) float64 { return math.Max(a, b) }
