package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dlpic/internal/core"
	"dlpic/internal/dataset"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
)

// Paper-scale settings (§V validation run): 64 cells x 1000 ppc,
// v0 = 0.2, vth = 0.025, CIC, spectral Poisson, 200 steps.
const (
	paperSteps = 200
	// paperTolerance bounds |gamma_fit/gamma_theory - 1| of one
	// traditional paper-scale run against the cold theory rate
	// (Result.TheoryGamma). The noise-seeded fit scatters: 100 runs at
	// these settings spread from 0 to 0.58. paperMedianTolerance bounds
	// the median over a run's scenarios (0.08-0.17 observed), which
	// catches a systematic shift the per-run bound cannot.
	paperTolerance       = 0.75
	paperMedianTolerance = 0.3
	// loopRuns DL validation runs of paperSteps make one 1000-step
	// block per loop (see stepBlock).
	loopRuns  = 5
	warmSteps = 20
)

// validationConfig is the paper's §V run with particle seed s.
func validationConfig(s uint64) pic.Config {
	cfg := pic.Default()
	cfg.V0, cfg.Vth = 0.2, 0.025
	cfg.Seed = s
	return cfg
}

// scenarioSeed is the particle seed of validation scenario i.
func scenarioSeed(seed uint64, i int) uint64 { return splitmix(seed<<20 ^ uint64(i)) }

// warmUp builds a paper-scale simulation and steps it: the set-up that
// pages in particle arrays and FFT plans before the timed phase.
func warmUp(seed uint64) error {
	sim, err := pic.New(validationConfig(splitmix(seed^0xa5a5)), nil)
	if err != nil {
		return err
	}
	return sim.Run(warmSteps, nil, nil)
}

// gateTraditional checks a traditional run: finite, a growth window,
// and the fitted rate within tol of linear theory.
func gateTraditional(o runOutcome, tol float64) error {
	if o.finiteErr != nil {
		return o.finiteErr
	}
	if !o.fitOK {
		return fmt.Errorf("traditional run fitted no growth window")
	}
	if e := relErr(o); !(e <= tol) {
		return fmt.Errorf("traditional growth rate %.4g vs theory %.4g: rel err %.3g > %.3g", o.fit.Gamma, o.theory, e, tol)
	}
	return nil
}

func relErr(o runOutcome) float64 { return math.Abs(o.fit.Gamma/o.theory - 1) }

// paperTraditional runs validation scenarios one at a time with the
// traditional method.
type paperTraditional struct{}

func (paperTraditional) setup(c *runCtx) (func(), error) { return func() {}, warmUp(c.seed) }

func (paperTraditional) run(c *runCtx, r *report) {
	var stepMS, loopS, errs, evar []float64
	particles := float64(pic.Default().NumParticles())
	start := time.Now()
	for i := 0; c.more(i, start); i++ {
		cfg := validationConfig(scenarioSeed(c.seed, i))
		t0 := time.Now()
		var o runOutcome
		var err error
		if c.tr == nil {
			o, err = runTimed(cfg, nil, paperSteps, &stepMS)
		} else {
			o, err = runTraced(c.tr, cfg, nil, paperSteps)
		}
		loopS = append(loopS, time.Since(t0).Seconds())
		r.units++
		if err == nil {
			err = gateTraditional(o, paperTolerance)
		}
		r.gate(fmt.Sprintf("scenario %d", i), err)
		r.digests = append(r.digests, o.digest)
		if o.fitOK {
			errs = append(errs, relErr(o))
		}
		evar = append(evar, o.energyVar)
	}
	r.wall = time.Since(start)
	if m := median(errs); !(m <= paperMedianTolerance) {
		r.gate("median growth error", fmt.Errorf("median rel err %.3g > %.3g", m, paperMedianTolerance))
	}
	n := float64(len(loopS))
	r.setStep(stepMS)
	r.e2e["particle_steps_per_s"] = particles * paperSteps * n / r.wall.Seconds()
	r.e2e["loop_s"] = median(loopS)
	r.e2e["cells_per_s"] = n / r.wall.Seconds()
	r.setPhysics(errs, evar, len(loopS))
	if c.tr != nil {
		r.simLayers(c.tr)
		r.layer["parallel.scaling_2v1"] = scaling2v1(c.seed)
	}
}

// scaling2v1 is the paper step's median at GOMAXPROCS=1 over its median
// at GOMAXPROCS=2, in alternating blocks; 0 on a machine with fewer
// than 2 CPUs.
func scaling2v1(seed uint64) float64 {
	if runtime.NumCPU() < 2 {
		return 0
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	sim, err := pic.New(validationConfig(splitmix(seed^0x5ca1e)), nil)
	if err != nil {
		return 0
	}
	var one, two []float64
	for block := 0; block < 6; block++ {
		procs, dst := 1, &one
		if block%2 == 1 {
			procs, dst = 2, &two
		}
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 50; i++ {
			t := time.Now()
			if _, err := sim.Step(); err != nil {
				return 0
			}
			*dst = append(*dst, ms(time.Since(t)))
		}
	}
	return median(one) / median(two)
}

// paperLoop is the paper's own loop at paper scale: generate a corpus,
// train the 4096 -> 3x1024 -> 64 MLP, run DL-PIC on the validation
// scenarios.
type paperLoop struct{}

func (paperLoop) setup(c *runCtx) (func(), error) { return func() {}, warmUp(c.seed) }

// Loop budget: a 4-run corpus (720 samples) and 2 epochs.
var loopCorpusV0s = []float64{0.1, 0.15, 0.18, 0.3}

const (
	loopCorpusVth   = 0.005
	loopCorpusSteps = 180
	loopEpochs      = 2
	loopBatch       = 64
	loopLR          = 1e-3
	loopHidden      = 1024
)

func (paperLoop) run(c *runCtx, r *report) {
	var stepMS, loopS, errs, evar []float64
	var dlWall time.Duration
	dlRuns := 0
	start := time.Now()
	for i := 0; c.more(i, start); i++ {
		// Each loop starts from a collected heap, so peak_rss_mb is one
		// loop's peak and does not grow with the loops that fit in the
		// run (416 MB at two loops, 450-700 MB at three).
		runtime.GC()
		t0 := time.Now()
		outs, err := oneLoop(c, r, splitmix(c.seed^uint64(i)<<32), &stepMS, &dlWall)
		loopS = append(loopS, time.Since(t0).Seconds())
		r.units++
		if err != nil {
			r.gate(fmt.Sprintf("loop %d", i), err)
		}
		for _, o := range outs {
			dlRuns++
			if o.fitOK {
				errs = append(errs, relErr(o))
			}
			evar = append(evar, o.energyVar)
		}
	}
	r.wall = time.Since(start)
	particles := float64(pic.Default().NumParticles())
	r.setStep(stepMS)
	r.e2e["particle_steps_per_s"] = particles * float64(len(stepMS)) / dlWall.Seconds()
	r.e2e["loop_s"] = median(loopS)
	r.e2e["cells_per_s"] = float64(dlRuns) / dlWall.Seconds()
	r.setPhysics(errs, evar, dlRuns)
	if c.tr != nil {
		r.simLayers(c.tr)
	}
}

// trainGain is the largest validation MAE, as a share of the untrained
// network's, that counts as a successful fit.
const trainGain = 0.5

// oneLoop runs datagen -> train -> DL run once. The fit must cut the
// validation error below trainGain of the untrained network's, and
// every DL run is gated (finite field and particles). Whether a
// 2-epoch model reproduces the growth window depends on the seed, so
// the DL fit is recorded in physics.fit_frac, not gated.
func oneLoop(c *runCtx, r *report, seed uint64, stepMS *[]float64, dlWall *time.Duration) ([]runOutcome, error) {
	base := pic.Default()
	spec := phasespace.DefaultSpec(base.Length)
	gen := dataset.GenerateOpts{
		Base: base, V0s: loopCorpusV0s, Vths: []float64{loopCorpusVth},
		Repeats: 1, Steps: loopCorpusSteps, SampleEvery: 1,
		Spec: spec, Seed: seed, Workers: c.workers,
	}
	s := c.tr.begin("dataset.generate", -1)
	t0 := time.Now()
	ds, err := dataset.Generate(gen)
	genS := time.Since(t0).Seconds()
	c.tr.end(s)
	if err != nil {
		return nil, err
	}
	d := newDigester()
	d.floats(ds.Inputs.Data)
	d.floats(ds.Targets.Data)
	r.digests = append(r.digests, "corpus:"+d.sum())
	r.layer["dataset.generate.s"] = genS
	r.layer["dataset.samples_per_s"] = float64(ds.N()) / genS

	if err := ds.Normalize(); err != nil {
		return nil, err
	}
	ds.Shuffle(seed + 1)
	nVal := max(16, ds.N()/40)
	train, val, _, err := ds.Split(ds.N()-nVal, nVal, 0)
	if err != nil {
		return nil, err
	}
	net, err := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: base.Cells, Hidden: loopHidden, HiddenLayers: 3}, rng.New(seed+2))
	if err != nil {
		return nil, err
	}
	before := nn.EvaluateWorkers(net, val.Inputs, val.Targets, loopBatch, c.workers).MAE
	s = c.tr.begin("nn.fit", -1)
	t0 = time.Now()
	hist, err := nn.Fit(net, train.Inputs, train.Targets, val.Inputs, val.Targets, nn.TrainConfig{
		Epochs: loopEpochs, BatchSize: loopBatch, Optimizer: nn.NewAdam(loopLR),
		Loss: nn.MSE{}, Seed: seed + 3, Workers: c.workers,
	})
	fitS := time.Since(t0).Seconds()
	c.tr.end(s)
	if err != nil {
		return nil, err
	}
	r.gate("fit", gateFit(before, hist.Final().ValMAE))
	d = newDigester()
	for _, p := range net.Params() {
		d.floats(p.W.Data)
	}
	r.digests = append(r.digests, "weights:"+d.sum())
	r.layer["nn.fit.s"] = fitS
	r.layer["nn.fit.samples_per_s"] = float64(train.N()*loopEpochs) / fitS

	solver, err := core.NewNNSolver(net, spec, ds.Norm, base.Cells)
	if err != nil {
		return nil, err
	}
	var outs []runOutcome
	t0 = time.Now()
	for i := 0; i < loopRuns; i++ {
		cfg := validationConfig(scenarioSeed(c.seed, i))
		var o runOutcome
		if c.tr == nil {
			o, err = runTimed(cfg, solver, paperSteps, stepMS)
		} else {
			o, err = runTraced(c.tr, cfg, solver, paperSteps)
		}
		if err == nil {
			err = o.finiteErr
		}
		r.gate(fmt.Sprintf("DL run %d", i), err)
		r.digests = append(r.digests, o.digest)
		outs = append(outs, o)
	}
	*dlWall += time.Since(t0)
	if c.tr != nil {
		if p := median(c.tr.durations("nn.predict")); p > 0 {
			r.layer["nn.predict.gbps_computed"] = float64(net.NumParams()*8) / (p / 1000) / 1e9
		}
	}
	return outs, nil
}

// gateFit fails a fit that did not cut the validation MAE to trainGain
// of the untrained network's.
func gateFit(before, after float64) error {
	if !(after <= trainGain*before) {
		return fmt.Errorf("validation MAE %.3g after fit, %.3g before: less than a %.0f%% cut", after, before, 100*(1-trainGain))
	}
	return nil
}
