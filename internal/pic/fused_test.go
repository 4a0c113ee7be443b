package pic

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dlpic/internal/diag"
	"dlpic/internal/grid"
	"dlpic/internal/interp"
	"dlpic/internal/mover"
)

// stagedStep is Step as the layer functions run it one sweep at a time:
// gather E^n (interp.Gather or the energy-conserving gather), mover.Kick,
// diagnostics, mover.Drift, then the method's own ComputeField. It is
// the oracle for Step's fused particle pass.
func stagedStep(s *Simulation) (diag.Sample, error) {
	s.gather()
	sample := s.sample(mover.Kick(s.P.V, s.Ep, s.P.QOverM, s.Cfg.Dt))
	mover.Drift(s.P.X, s.P.V, s.Cfg.Dt, s.G)
	if err := s.method.ComputeField(s, s.E); err != nil {
		return sample, err
	}
	s.stepN++
	s.time += s.Cfg.Dt
	return sample, nil
}

// relayField is the traditional field solve behind a type Step does not
// recognise, so Step runs its pass without the deposit and then calls
// ComputeField, as it does for the DL methods.
type relayField struct{ *TraditionalField }

func (relayField) Name() string { return "relay" }

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// Step's fused pass must reproduce the staged layer functions bit for
// bit — samples, particles, E and rho — for every interpolation scheme,
// both gathers, a depositing and a non-depositing field method, one
// chunk (1000 particles, where ScatterReduce accumulates straight into
// its output) and many, and every GOMAXPROCS. Particle 0 starts at the
// last float below L and particles 1 and 2 move more than L per step,
// so the node wrap and mover.Rewrap's general wrap are on the path.
func TestFusedStepMatchesStagedLayers(t *testing.T) {
	sizes := []struct{ cells, ppc int }{{40, 25}, {64, 30}, {64, 1000}}
	for _, procs := range []int{1, 2, 8} {
		for _, size := range sizes {
			for _, scheme := range []interp.Scheme{interp.NGP, interp.CIC, interp.TSC} {
				for _, ec := range []bool{false, true} {
					for _, relay := range []bool{false, true} {
						cfg := Default()
						cfg.Cells, cfg.ParticlesPerCell = size.cells, size.ppc
						cfg.Scheme, cfg.EnergyConserving = scheme, ec
						cfg.Seed = 7
						name := fmt.Sprintf("procs=%d/n=%d/%v/ec=%v/relay=%v",
							procs, cfg.NumParticles(), scheme, ec, relay)
						t.Run(name, func(t *testing.T) {
							old := runtime.GOMAXPROCS(procs)
							defer runtime.GOMAXPROCS(old)
							checkFusedMatchesStaged(t, cfg, relay)
						})
					}
				}
			}
		}
	}
}

func checkFusedMatchesStaged(t *testing.T, cfg Config, relay bool) {
	build := func() *Simulation {
		var method FieldMethod
		if relay {
			tf, err := NewTraditionalField(cfg, grid.MustNew(cfg.Cells, cfg.Length))
			if err != nil {
				t.Fatal(err)
			}
			method = relayField{tf}
		}
		sim, err := New(cfg, method)
		if err != nil {
			t.Fatal(err)
		}
		sim.P.X[0] = math.Nextafter(cfg.Length, 0)
		sim.P.V[1] = 2.5 * cfg.Length / cfg.Dt
		sim.P.V[2] = -2.5 * cfg.Length / cfg.Dt
		return sim
	}
	fused, staged := build(), build()
	for step := 0; step < 30; step++ {
		got, err := fused.Step()
		if err != nil {
			t.Fatal(err)
		}
		want, err := stagedStep(staged)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d: sample %+v, staged %+v", step, got, want)
		}
		for _, f := range []struct {
			name      string
			got, want []float64
		}{
			{"X", fused.P.X, staged.P.X},
			{"V", fused.P.V, staged.P.V},
			{"E", fused.E, staged.E},
			{"Rho", fused.Rho, staged.Rho},
		} {
			if i := sameBits(f.got, f.want); i >= 0 {
				t.Fatalf("step %d: %s[%d] = %v, staged %v", step, f.name, i, f.got[i], f.want[i])
			}
		}
	}
}

// Step keeps its scratch on the Simulation: at GOMAXPROCS=1 it
// allocates fewer than the 9 objects per step of the staged cycle.
func TestStepAllocations(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	sim, err := New(Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sim.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 9 {
		t.Fatalf("Step allocates %v objects, want < 9", allocs)
	}
}
