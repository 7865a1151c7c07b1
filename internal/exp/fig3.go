package exp

import (
	"math/rand"

	"repro/internal/anno"
	"repro/internal/feat"
	"repro/internal/ir"
	"repro/internal/measure"
	"repro/internal/sketch"
	"repro/internal/te"
	"repro/internal/xgb"
)

// Fig3Result holds the pairwise-accuracy and top-k-recall curves of
// Figure 3: cost-model ranking quality as a function of program
// completion rate.
type Fig3Result struct {
	CompletionRates []float64
	PairwiseAcc     []float64
	TopKRecall      []float64
	K               int
}

// Fig3 reproduces Figure 3. The paper trains a cost model on 20,000
// random complete programs and evaluates its ranking of *incomplete*
// programs obtained by masking fractions of the complete ones; here the
// completion rate masks the structure-dependent features (tile sizes,
// annotations, buffer behaviour), which is exactly the information an
// incomplete program lacks. cfg.Trials scales the program count
// (programs = 20 × Trials; the paper's 20,000 corresponds to Trials 1000).
func Fig3(cfg Config) Fig3Result {
	nProgs := 20 * cfg.Trials
	if nProgs < 200 {
		nProgs = 200
	}
	// A conv2d task with a large interesting space.
	b := te.NewBuilder("conv")
	x := b.Input("X", 16, 256, 14, 14)
	y := b.Conv2D(x, te.ConvOpts{OutChannels: 512, Kernel: 3, Stride: 2, Pad: 1})
	b.ReLU(y)
	d := b.MustFinish()

	gen := sketch.NewGenerator(sketch.CPUTarget())
	sketches, err := gen.Generate(d)
	if err != nil {
		panic(err)
	}
	sp := anno.NewSampler(sketch.CPUTarget(), cfg.Seed)
	progs := sp.SamplePopulation(sketches, nProgs)
	ms := measure.New(IntelPlatform(false).Machine, 0, cfg.Seed)
	ms.Workers = cfg.Workers

	var feats [][][]float64
	var times []float64
	for _, r := range ms.Measure(progs) {
		if r.Err != nil {
			continue
		}
		// Extract copies the rows out of the borrowed lowering.
		low, err := ir.LowerBorrowed(r.State)
		if err != nil {
			continue
		}
		feats = append(feats, feat.Extract(low))
		low.Release()
		times = append(times, r.NoiselessSeconds)
	}
	// Split train/test, normalize throughput labels on the train set.
	nTrain := len(feats) / 2
	minT := times[0]
	for _, t := range times[:nTrain] {
		if t < minT {
			minT = t
		}
	}
	yTrain := make([]float64, nTrain)
	for i := 0; i < nTrain; i++ {
		yTrain[i] = minT / times[i]
	}
	model := xgb.NewCostModel(xgb.DefaultOpts())
	model.Fit(feats[:nTrain], yTrain)

	testF := feats[nTrain:]
	testT := times[nTrain:]
	truth := make([]float64, len(testT))
	for i, t := range testT {
		truth[i] = 1 / t // throughput ordering
	}
	res := Fig3Result{K: len(testT) / 10}
	if res.K < 5 {
		res.K = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 99))
	for _, rate := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		pred := make([]float64, len(testF))
		for i, stmts := range testF {
			masked := make([][]float64, len(stmts))
			for j, v := range stmts {
				masked[j] = feat.MaskStructure(v, rate, rng)
			}
			pred[i] = model.Score(masked)
		}
		res.CompletionRates = append(res.CompletionRates, rate)
		res.PairwiseAcc = append(res.PairwiseAcc, xgb.PairwiseAccuracy(pred, truth))
		res.TopKRecall = append(res.TopKRecall, xgb.RecallAtK(pred, truth, res.K))
	}
	cfg.printf("\nFigure 3: cost model vs completion rate (%d programs, k=%d)\n", len(feats), res.K)
	cfg.printf("%-12s%-12s%-12s\n", "completion", "pairwise", "recall@k")
	for i := range res.CompletionRates {
		cfg.printf("%-12.1f%-12.3f%-12.3f\n",
			res.CompletionRates[i], res.PairwiseAcc[i], res.TopKRecall[i])
	}
	return res
}
