package main

import (
	"fmt"
	"math"
	"time"

	"dlpic/internal/core"
	"dlpic/internal/diag"
	"dlpic/internal/fft"
	"dlpic/internal/interp"
	"dlpic/internal/mover"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/poisson"
	"dlpic/internal/theory"
)

// runOutcome is what one validation run yields: its diagnostics, the
// growth fit the sweep engine would compute, and a digest of the final
// particle state and every recorded sample.
type runOutcome struct {
	rec       diag.Recorder
	fit       diag.GrowthFit
	fitOK     bool
	theory    float64
	energyVar float64
	digest    string
	finiteErr error
}

// analyze fills the growth fit, theory rate, energy variation, digest
// and finiteness of a finished run, the same way sweep.RunScenario
// analyzes a cell (automatic window between 1% and 30% of saturation).
func analyze(sim *pic.Simulation, out *runOutcome) {
	cfg := sim.Cfg
	out.theory = theory.TwoStream{Wp: cfg.Wp, V0: cfg.V0, Vth: cfg.Vth}.GrowthRate(2 * math.Pi * float64(cfg.DiagMode) / cfg.Length)
	if amps, err := out.rec.Series("mode"); err == nil {
		times := out.rec.Times()
		if t0, t1, err := diag.AutoGrowthWindow(times, amps, 0.01, 0.3); err == nil {
			if fit, err := diag.FitGrowthRate(times, amps, t0, t1); err == nil {
				out.fit, out.fitOK = fit, true
			}
		}
	}
	if total, err := out.rec.Series("total"); err == nil {
		out.energyVar = diag.MaxRelativeVariation(total)
	}
	out.finiteErr = sim.CheckFinite()
	out.digest = stateDigest(sim.P.X, sim.P.V, out.rec.Samples)
}

// stateDigest hashes particle positions, velocities and diagnostics.
func stateDigest(x, v []float64, samples []diag.Sample) string {
	d := newDigester()
	d.floats(x)
	d.floats(v)
	d.u64(uint64(len(samples)))
	for _, s := range samples {
		d.u64(uint64(s.Step))
		d.floats([]float64{s.Time, s.Kinetic, s.Field, s.Total, s.Momentum, s.ModeAmp})
	}
	return d.sum()
}

// runTimed is the untraced run: pic.New, then steps calls of
// pic.Simulation.Step, each timed. method nil selects the traditional
// deposit + Poisson solve.
func runTimed(cfg pic.Config, method pic.FieldMethod, steps int, stepMS *[]float64) (runOutcome, error) {
	var out runOutcome
	sim, err := pic.New(cfg, method)
	if err != nil {
		return out, err
	}
	for i := 0; i < steps; i++ {
		start := time.Now()
		s, err := sim.Step()
		*stepMS = append(*stepMS, ms(time.Since(start)))
		if err != nil {
			return out, err
		}
		out.rec.Add(s)
	}
	analyze(sim, &out)
	return out, nil
}

// fieldStages replays one field method's stages under spans.
type fieldStages interface {
	span() string
	compute(tr *tracer, parent int, sim *pic.Simulation) error
}

// traditionalStages is pic.TraditionalField.ComputeField stage by stage.
type traditionalStages struct{ solver poisson.Solver }

func (traditionalStages) span() string { return "pic.field" }

func (t traditionalStages) compute(tr *tracer, parent int, sim *pic.Simulation) error {
	s := tr.begin("interp.deposit", parent)
	interp.Deposit(sim.Cfg.Scheme, sim.G, sim.P.X, sim.P.Charge, sim.Rho)
	tr.end(s)
	for i := range sim.Rho {
		sim.Rho[i] += sim.IonRho
	}
	s = tr.begin("poisson.solve", parent)
	err := t.solver.Solve(sim.Phi, sim.Rho)
	if err == nil {
		poisson.EFromPhi(sim.G, sim.E, sim.Phi)
	}
	tr.end(s)
	return err
}

// nnStages is core.NNSolver.ComputeField stage by stage (float64
// inference, no smoothing or clamping: the settings paper_loop uses).
type nnStages struct {
	solver *core.NNSolver
	hist   *phasespace.Hist
	in     []float64
}

func newNNStages(s *core.NNSolver) (*nnStages, error) {
	if s.Inference32 || s.SmoothModes > 0 || s.ClampAbs > 0 {
		return nil, fmt.Errorf("replay supports the plain float64 NNSolver only")
	}
	hist, err := phasespace.NewHist(s.Spec)
	if err != nil {
		return nil, err
	}
	return &nnStages{solver: s, hist: hist, in: make([]float64, s.Spec.Size())}, nil
}

func (*nnStages) span() string { return "core.field" }

func (n *nnStages) compute(tr *tracer, parent int, sim *pic.Simulation) error {
	s := tr.begin("phasespace.bin", parent)
	err := n.hist.Bin(sim.P.X, sim.P.V)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("phasespace.normalize", parent)
	n.solver.Norm.Apply(n.in, n.hist.Data)
	tr.end(s)
	s = tr.begin("nn.predict", parent)
	n.solver.Net.Predict1(n.in, sim.E)
	tr.end(s)
	for i, v := range sim.E {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: network produced non-finite E[%d] = %v", i, v)
		}
	}
	return nil
}

// stagesFor picks the replay of a simulation's field method.
func stagesFor(m pic.FieldMethod) (fieldStages, error) {
	switch f := m.(type) {
	case *pic.TraditionalField:
		return traditionalStages{solver: f.Solver()}, nil
	case *core.NNSolver:
		return newNNStages(f)
	}
	return nil, fmt.Errorf("no replay for field method %q", m.Name())
}

// runTraced is the traced run: it replays pic.Simulation.Step's stage
// order — gather, kick, diagnostics, drift, field solve — on the
// simulation's exported state through the layers' public functions,
// with a span per stage. It must end in runTimed's digest bit for bit.
func runTraced(tr *tracer, cfg pic.Config, method pic.FieldMethod, steps int) (runOutcome, error) {
	var out runOutcome
	if cfg.EnergyConserving {
		return out, fmt.Errorf("replay does not cover the energy-conserving gather")
	}
	root := tr.begin("pic.run", -1)
	defer tr.end(root)
	sim, err := pic.New(cfg, method)
	if err != nil {
		return out, err
	}
	stages, err := stagesFor(sim.Method())
	if err != nil {
		return out, err
	}
	plan := fft.MustPlan(cfg.Cells)
	t := 0.0
	for i := 0; i < steps; i++ {
		step := tr.begin("pic.step", root)
		s := tr.begin("interp.gather", step)
		interp.Gather(cfg.Scheme, sim.G, sim.E, sim.P.X, sim.Ep)
		tr.end(s)
		s = tr.begin("mover.kick", step)
		kick := mover.Kick(sim.P.V, sim.Ep, sim.P.QOverM, cfg.Dt)
		tr.end(s)
		// Diagnostics stay in the step's self time.
		sample := diag.Sample{
			Step:     i,
			Time:     t,
			Kinetic:  0.5 * sim.P.Mass * kick.VProdSum,
			Field:    diag.FieldEnergy(sim.G, sim.E, cfg.Eps0),
			Momentum: sim.P.Mass * kick.VMidSum,
			ModeAmp:  diag.ModeAmplitude(plan, sim.E, cfg.DiagMode),
		}
		sample.Total = sample.Kinetic + sample.Field
		s = tr.begin("mover.drift", step)
		mover.Drift(sim.P.X, sim.P.V, cfg.Dt, sim.G)
		tr.end(s)
		s = tr.begin(stages.span(), step)
		err := stages.compute(tr, s, sim)
		tr.end(s)
		tr.end(step)
		if err != nil {
			return out, fmt.Errorf("field solve at step %d: %w", i+1, err)
		}
		out.rec.Add(sample)
		t += cfg.Dt
	}
	analyze(sim, &out)
	return out, nil
}
