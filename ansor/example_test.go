package ansor_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"repro/ansor"
)

// Define a matmul+ReLU computation, tune it for the Intel CPU, and print
// the best tensor program Ansor found.
func Example_quickstart() {
	// 1. Define the computation, as in Figure 1 of the paper:
	//    C[i,j] = sum_k A[i,k] * B[k,j];  D = max(C, 0).
	b := ansor.NewComputeBuilder("matmul_relu")
	a := b.Input("A", 512, 512)
	c := b.Matmul(a, 512, true) // true: B is a constant weight
	b.ReLU(c)
	dag, err := b.Finish()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Create a tuning task for the target machine.
	task := ansor.NewTask("matmul_relu", dag, ansor.TargetIntelCPU(false))
	tuner, err := ansor.NewTuner(task, ansor.TuningOptions{
		Trials:           200,
		MeasuresPerRound: 25,
		Seed:             1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Inspect the automatically generated search space: the sketches
	//    (high-level structures with unfilled tile sizes, §4.1).
	fmt.Printf("generated %d sketch(es); sketch 1:\n\n%s\n",
		len(tuner.Sketches()), tuner.Sketches()[0].Print())

	// 4. Search: sample, evolve with the learned cost model, measure.
	best, err := tuner.Tune()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best program after %d trials: %.4g s (%.1f GFLOP/s)\n\n%s",
		tuner.Trials(), best.Seconds, best.GFLOPS, best.Print())
	// Output:
	// generated 1 sketch(es); sketch 1:
	//
	// for i0.0 in range(TILE_I00):
	//   for i1.0 in range(TILE_I10):
	//     for i0.1 in range(TILE_I01):
	//       for i1.1 in range(TILE_I11):
	//         for k.0 in range(TILE_K0):
	//           for i.2 in range(TILE_I2):
	//             for j.2 in range(TILE_J2):
	//               for k.1 in range(TILE_K1):
	//                 for i.3 in range(TILE_I3):
	//                   for j.3 in range(TILE_J3):
	//                     matmul_out[...] += f(A, matmul_w)
	//         for i0.in in range(TILE_I0IN):
	//           for i1.in in range(TILE_I1IN):
	//             relu_out[...] = f(matmul_out)
	//
	// best program after 200 trials: 0.0001542 s (1742.4 GFLOP/s)
	//
	// parallel i0.0@i1.0@i0.1@i1.1 in range(256):
	//   # pragma auto_unroll_max_step=512
	//   for k.0 in range(512):
	//     for j.2 in range(2):
	//       for i.3 in range(8):
	//         vectorize j.3 in range(64):
	//           matmul_out[...] += f(A, matmul_w)
	//   for i0.in in range(8):
	//     for i1.in in range(128):
	//       relu_out[...] = f(matmul_out)
}

// Tune a fused convolution layer (conv2d + batch norm + ReLU — the
// "ConvLayer" subgraph of §7.2) on CPU and GPU and compare the resulting
// program structures: on both targets the convolution is tiled
// multi-level and fused into the elementwise consumer, but the annotation
// conventions differ.
func Example_conv2D() {
	for _, tgt := range []ansor.Target{ansor.TargetIntelCPU(false), ansor.TargetNVIDIAGPU()} {
		tuner, err := ansor.NewTuner(ansor.NewTask("convlayer", buildConvLayer(), tgt),
			ansor.TuningOptions{Trials: 150, MeasuresPerRound: 25, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		best, err := tuner.Tune()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s: %.4g s, %.1f GFLOP/s ===\n%s\n",
			tgt.Name, best.Seconds, best.GFLOPS, best.Print())
	}
	// Output:
	// === intel-20c-avx2: 0.0001878 s, 1602.0 GFLOP/s ===
	// parallel i0.0@i1.0@i2.0@i3.0@i0.1@i1.1@i2.1@i3.1 in range(3584):
	//   # pragma auto_unroll_max_step=512
	//   for rc.0 in range(32):
	//     for rh.0 in range(3):
	//       for oh.2 in range(2):
	//         for rc.1 in range(4):
	//           for rw.1 in range(3):
	//             for co.3 in range(2):
	//               vectorize ow.3 in range(7):
	//                 conv2d_out[...] += f(pad_out, conv2d_w)
	//   for i1.in in range(2):
	//     for i2.in in range(2):
	//       vectorize i3.in in range(7):
	//         relu_out[...] = f(bn_out)
	//
	// === nvidia-v100: 3.537e-05 s, 8507.3 GFLOP/s ===
	// parallel i0.0@i1.0@i2.0@i3.0@i0.1@i1.1@i2.1@i3.1@i0.2@i1.2@i2.2@i3.2 in range(1792):
	//   # pragma auto_unroll_max_step=16
	//   for rh.0 in range(3):
	//     for rc.1 in range(64):
	//       for rc.2 in range(2):
	//         for rw.2 in range(3):
	//           for co.4 in range(2):
	//             vectorize ow.4 in range(28):
	//               conv2d_out[...] += f(pad_out, conv2d_w)
	//   for i1.in in range(2):
	//     vectorize i3.in in range(28):
	//       relu_out[...] = f(bn_out)
}

func buildConvLayer() *ansor.DAG {
	b := ansor.NewComputeBuilder("convlayer")
	x := b.Input("X", 1, 128, 28, 28)
	y := b.Conv2D(x, ansor.ConvOpts{OutChannels: 128, Kernel: 3, Stride: 1, Pad: 1})
	y = b.BatchNorm(y, 1)
	b.ReLU(y)
	dag, err := b.Finish()
	if err != nil {
		log.Fatal(err)
	}
	return dag
}

// Tune a whole DNN (DCGAN's generator) with the gradient-descent task
// scheduler (§6). The scheduler allocates measurement rounds to the
// subgraphs that most improve end-to-end latency, instead of splitting
// the budget evenly.
func ExampleTuneNetwork() {
	net, err := ansor.BuiltinNetwork("dcgan", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d unique subgraphs\n", net.Name, len(net.Tasks))
	for _, t := range net.Tasks {
		fmt.Printf("  %-24s weight=%d tag=%s\n", t.Name, t.Weight, t.Tag)
	}

	res, err := ansor.TuneNetwork(net, ansor.TargetIntelCPU(true), ansor.TuningOptions{
		Trials:           60, // per task on average; the paper uses 1000
		MeasuresPerRound: 12,
		Seed:             1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nend-to-end latency: %.5g s after %d measurement trials\n",
		res.Latency, res.Trials)
	var names []string
	for n := range res.TaskLatencies {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-24s %.5g s\n", n, res.TaskLatencies[n])
	}
	// Output:
	// DCGAN: 6 unique subgraphs
	//   fc100-16384              weight=1 tag=dense
	//   t2d.h4.c1024-512         weight=1 tag=t2d4x4.s2
	//   t2d.h8.c512-256          weight=1 tag=t2d4x4.s2
	//   t2d.h16.c256-128         weight=1 tag=t2d4x4.s2
	//   t2d.h32.c128-64          weight=1 tag=t2d4x4.s2
	//   t2d.out                  weight=1 tag=t2d4x4.s2
	//
	// end-to-end latency: 0.0010462 s after 360 measurement trials
	//   fc100-16384              6.971e-05 s
	//   t2d.h16.c256-128         0.00020958 s
	//   t2d.h32.c128-64          0.00016001 s
	//   t2d.h4.c1024-512         0.00034226 s
	//   t2d.h8.c512-256          0.00015034 s
	//   t2d.out                  0.00011426 s
}

// The durable-tuning-records workflow: tune with a log file, kill and
// resume the run bit-identically without re-measuring logged programs,
// warm-start a related search from history, and finally serve the best
// schedule from the log with zero measurement trials — the production
// "apply history best" path.
func Example_persist() {
	dir, err := os.MkdirTemp("", "ansor-persist")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	logFile := filepath.Join(dir, "tune.json")

	task := ansor.NewTask("matmul_relu", buildMatmulReLU(), ansor.TargetIntelCPU(false))

	// 1. Tune for a partial budget, recording every measurement to the
	//    log (one JSON record per line, append-friendly). Imagine the
	//    job is killed here.
	partial, err := ansor.NewTuner(task, ansor.TuningOptions{
		Trials: 96, MeasuresPerRound: 16, Seed: 1, RecordTo: logFile,
	})
	if err != nil {
		log.Fatal(err)
	}
	best, err := partial.Tune()
	if err != nil {
		log.Fatal(err)
	}
	if err := partial.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partial run:  best %.4g s after %d fresh trials (log: %s)\n",
		best.Seconds, partial.Trials(), filepath.Base(logFile))

	// 2. Resume with a larger budget. The logged prefix replays for
	//    free: same seed + same options means the continuation is
	//    bit-identical to a run that was never killed, and only the new
	//    rounds spend fresh trials.
	resumed, err := ansor.NewTuner(task, ansor.TuningOptions{
		Trials: 192, MeasuresPerRound: 16, Seed: 1,
		RecordTo: logFile, ResumeFrom: logFile,
	})
	if err != nil {
		log.Fatal(err)
	}
	best, err = resumed.Tune()
	if err != nil {
		log.Fatal(err)
	}
	if err := resumed.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed run:  best %.4g s, only %d fresh trials for the second half\n",
		best.Seconds, resumed.Trials())

	// 3. Warm start: a new search (different seed — think "tomorrow's
	//    tuning job") trains its cost model from the log before the
	//    first round instead of starting blind.
	warm, err := ansor.NewTuner(task, ansor.TuningOptions{
		Trials: 32, MeasuresPerRound: 16, Seed: 42, WarmStartFrom: logFile,
	})
	if err != nil {
		log.Fatal(err)
	}
	best, err = warm.Tune()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm start:   best %.4g s with a 32-trial top-up\n", best.Seconds)

	// 4. Serve: replay the best schedule for the workload with zero
	//    measurement trials — what a production scheduler does for every
	//    query that hits accumulated history.
	server, err := ansor.NewTuner(task, ansor.TuningOptions{ApplyHistoryBest: logFile})
	if err != nil {
		log.Fatal(err)
	}
	best, err = server.Tune()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("apply best:   %.4g s, %.1f GFLOP/s, %d trials spent\n\n%s",
		best.Seconds, best.GFLOPS, server.Trials(), best.Print())
	// Output:
	// partial run:  best 2.451e-05 s after 96 fresh trials (log: tune.json)
	// resumed run:  best 2.271e-05 s, only 96 fresh trials for the second half
	// warm start:   best 2.23e-05 s with a 32-trial top-up
	// apply best:   2.271e-05 s, 1480.1 GFLOP/s, 0 trials spent
	//
	// parallel i0.0@i1.0@i0.1@i1.1 in range(2048):
	//   # pragma auto_unroll_max_step=512
	//   for k.0 in range(128):
	//     vectorize i.2 in range(2):
	//       for k.1 in range(2):
	//         vectorize j.3 in range(16):
	//           matmul_out[...] += f(A, matmul_w)
	//   for i0.in in range(2):
	//     vectorize i1.in in range(16):
	//       relu_out[...] = f(matmul_out)
}

func buildMatmulReLU() *ansor.DAG {
	b := ansor.NewComputeBuilder("matmul_relu")
	a := b.Input("A", 256, 256)
	c := b.Matmul(a, 256, true)
	b.ReLU(c)
	dag, err := b.Finish()
	if err != nil {
		log.Fatal(err)
	}
	return dag
}
