package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"dlpic/internal/campaign"
	"dlpic/internal/core"
	"dlpic/internal/diag"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/rng"
	"dlpic/internal/sweep"
)

// smallConfig is the validation run at 50 particles per cell, so the
// self-test runs in well under a second.
func smallConfig() pic.Config {
	cfg := validationConfig(7)
	cfg.ParticlesPerCell = 50
	return cfg
}

func smallSolver(t *testing.T, cfg pic.Config) *core.NNSolver {
	t.Helper()
	spec := phasespace.DefaultSpec(cfg.Length)
	net, err := nn.NewMLP(nn.MLPConfig{InDim: spec.Size(), OutDim: cfg.Cells, Hidden: 8, HiddenLayers: 1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	norm, err := phasespace.FitNormalizer([]float64{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewNNSolver(net, spec, norm, cfg.Cells)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The traced replay of pic.Simulation.Step must end in the untraced
// run's digest, for both field methods it covers.
func TestReplayReproducesStep(t *testing.T) {
	cfg := smallConfig()
	for _, tc := range []struct {
		name   string
		method func() pic.FieldMethod
	}{
		{"traditional", func() pic.FieldMethod { return nil }},
		{"nn", func() pic.FieldMethod { return smallSolver(t, cfg) }},
	} {
		var steps []float64
		plain, err := runTimed(cfg, tc.method(), 40, &steps)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		traced, err := runTraced(tr, cfg, tc.method(), 40)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareDigests([]string{plain.digest}, []string{traced.digest}); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if n := len(tr.durations("pic.step")); len(steps) != 40 || n != 40 {
			t.Errorf("%s: %d timed steps, %d step spans, want 40", tc.name, len(steps), n)
		}
	}
}

// Gate: a single flipped bit in one particle coordinate changes the
// state digest, so the traced-vs-untraced comparison fails.
func TestGateTripsOnFlippedCoordinate(t *testing.T) {
	sim, err := pic.New(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec diag.Recorder
	if err := sim.Run(10, &rec, nil); err != nil {
		t.Fatal(err)
	}
	want := stateDigest(sim.P.X, sim.P.V, rec.Samples)
	x := append([]float64(nil), sim.P.X...)
	x[123] = math.Float64frombits(math.Float64bits(x[123]) ^ 1)
	got := stateDigest(x, sim.P.V, rec.Samples)
	if compareDigests([]string{want}, []string{got}) == nil {
		t.Fatal("flipped coordinate passed the digest gate")
	}
	if compareDigests([]string{want}, []string{stateDigest(sim.P.X, sim.P.V, rec.Samples)}) != nil {
		t.Fatal("unchanged state failed the digest gate")
	}
}

// Gate: a NaN field fails the finiteness checks of a run, of a replayed
// DL step and of a campaign cell.
func TestGateTripsOnNaNField(t *testing.T) {
	cfg := smallConfig()
	sim, err := pic.New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.E[5] = math.NaN()
	var o runOutcome
	analyze(sim, &o)
	if o.finiteErr == nil {
		t.Error("NaN field passed the run's finiteness gate")
	}

	solver := smallSolver(t, cfg)
	params := solver.Net.Params()
	params[len(params)-1].W.Data[0] = math.NaN() // the output layer's bias
	stages, err := newNNStages(solver)
	if err != nil {
		t.Fatal(err)
	}
	if err := stages.compute(nil, -1, sim); err == nil {
		t.Error("NaN network field passed the replayed DL step")
	}

	res := sweep.Result{Rec: diag.Recorder{Samples: []diag.Sample{{Total: 1}, {Total: math.NaN()}}}}
	if gateCell(&res) == nil {
		t.Error("NaN diagnostics passed the campaign cell gate")
	}
}

// Gate: campaign digests of two result sets that differ in one
// diagnostic value disagree.
func TestGateTripsOnWrongDigest(t *testing.T) {
	base := smallConfig()
	base.ParticlesPerCell = 20
	results := sweep.Run(sweep.Grid(base, []float64{0.2}, []float64{0.01}, 2, 30, 5), sweep.Options{Workers: 1})
	if err := sweep.FirstError(results); err != nil {
		t.Fatal(err)
	}
	want := campaign.Digest(results)
	if gateDigest(campaign.Digest(results), want) != nil {
		t.Fatal("identical results failed the digest gate")
	}
	results[1].Rec.Samples[7].Field = math.Nextafter(results[1].Rec.Samples[7].Field, 1)
	if gateDigest(campaign.Digest(results), want) == nil {
		t.Fatal("perturbed results passed the digest gate")
	}
}

func TestGateTraditionalTolerance(t *testing.T) {
	good := runOutcome{fitOK: true, fit: diag.GrowthFit{Gamma: 0.3}, theory: 0.354}
	if err := gateTraditional(good, paperTolerance); err != nil {
		t.Errorf("in-tolerance run failed: %v", err)
	}
	far := good
	far.fit.Gamma = 0.05
	if gateTraditional(far, paperTolerance) == nil {
		t.Error("growth rate 86% off theory passed")
	}
	nofit := good
	nofit.fitOK = false
	if gateTraditional(nofit, paperTolerance) == nil {
		t.Error("run without a growth window passed")
	}
}

func TestGateFit(t *testing.T) {
	if gateFit(1, 0.3) != nil {
		t.Error("a 70% validation cut failed")
	}
	if gateFit(1, 0.9) == nil || gateFit(1, math.NaN()) == nil {
		t.Error("a fit that did not learn passed")
	}
}

// BENCHMARK.json must list exactly the metrics and workloads the
// program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	wls := workloads()
	if len(doc.Workloads) != len(wls) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program %d", len(doc.Workloads), len(wls))
	}
	for _, w := range doc.Workloads {
		if _, ok := wls[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
}
