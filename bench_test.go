// Benchmarks regenerating the computational kernels behind every table
// and figure of the paper, plus ablations of the design choices.
// One bench (or bench pair) corresponds to each experiment:
//
//	Table I  -> BenchmarkTableI_MLPInference / _CNNInference / _Evaluate
//	Fig 4/5  -> BenchmarkFig4_TraditionalStep / _DLStep / _OracleStep
//	Fig 6    -> BenchmarkFig6_ColdBeamTraditional / _ColdBeamDL
//	§VII     -> BenchmarkFieldSolve_* (NN inference vs Poisson pipeline,
//	            the performance claim the paper defers)
//
// plus ablations: Poisson backends, deposit orders, phase-space binning
// orders, and the physics-informed loss.
//
// Run: go test -bench=. -benchmem .
package dlpic_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dlpic"
	"dlpic/internal/batch"
	"dlpic/internal/core"
	"dlpic/internal/experiments"
	"dlpic/internal/grid"
	"dlpic/internal/interp"
	"dlpic/internal/nn"
	"dlpic/internal/phasespace"
	"dlpic/internal/pic"
	"dlpic/internal/poisson"
	"dlpic/internal/rng"
	"dlpic/internal/sweep"
	"dlpic/internal/tensor"
)

// ---------------------------------------------------------------------------
// Shared fixture: a tiny trained pipeline (built once per bench run).

var (
	fixtureOnce sync.Once
	fixture     *experiments.Pipeline
	fixtureErr  error
)

func getFixture(b *testing.B) *experiments.Pipeline {
	b.Helper()
	fixtureOnce.Do(func() {
		fixture, fixtureErr = experiments.New(experiments.Options{Tiny: true, Seed: 1})
	})
	if fixtureErr != nil {
		b.Fatalf("fixture: %v", fixtureErr)
	}
	return fixture
}

// histogramInput produces one normalized network input from a fresh
// simulation state.
func histogramInput(b *testing.B, p *experiments.Pipeline) []float64 {
	b.Helper()
	cfg := p.ValidationConfig(3)
	sim, err := pic.New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	hist, err := phasespace.NewHist(p.Spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := hist.Bin(sim.P.X, sim.P.V); err != nil {
		b.Fatal(err)
	}
	in := make([]float64, p.Spec.Size())
	p.Train.Norm.Apply(in, hist.Data)
	return in
}

// ---------------------------------------------------------------------------
// Table I

// BenchmarkTableI_MLPInference times one DL electric-field solve with
// the MLP — the operation Table I's metrics are computed over.
func BenchmarkTableI_MLPInference(b *testing.B) {
	p := getFixture(b)
	in := histogramInput(b, p)
	out := make([]float64, p.Cfg.Cells)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MLP.Net.Predict1(in, out)
	}
}

// BenchmarkTableI_CNNInference is the CNN counterpart.
func BenchmarkTableI_CNNInference(b *testing.B) {
	p := getFixture(b)
	in := histogramInput(b, p)
	out := make([]float64, p.Cfg.Cells)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.CNN.Net.Predict1(in, out)
	}
}

// BenchmarkTableI_Evaluate times the full Table-I metric computation
// (MAE + max error) over the held-out test set.
func BenchmarkTableI_Evaluate(b *testing.B) {
	p := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Evaluate(p.MLP.Net, p.TestI.Inputs, p.TestI.Targets, 64)
	}
}

// ---------------------------------------------------------------------------
// Fig 4 / Fig 5 (same runs)

func benchSteps(b *testing.B, cfg pic.Config, method pic.FieldMethod) {
	b.Helper()
	sim, err := pic.New(cfg, method)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_TraditionalStep times one step of the traditional-PIC
// validation run (v0 = 0.2, vth = 0.025).
func BenchmarkFig4_TraditionalStep(b *testing.B) {
	p := getFixture(b)
	benchSteps(b, p.ValidationConfig(11), nil)
}

// BenchmarkFig4_DLStep times one step of the DL-based run: phase-space
// binning + MLP inference replace deposit + Poisson.
func BenchmarkFig4_DLStep(b *testing.B) {
	p := getFixture(b)
	benchSteps(b, p.ValidationConfig(11), p.MLP)
}

// BenchmarkFig4_OracleStep times the DL cycle with exact field recovery
// (ablation: cycle cost without network inference).
func BenchmarkFig4_OracleStep(b *testing.B) {
	p := getFixture(b)
	cfg := p.ValidationConfig(11)
	oracle, err := core.NewOracleSolver(cfg, p.Spec)
	if err != nil {
		b.Fatal(err)
	}
	benchSteps(b, cfg, oracle)
}

// ---------------------------------------------------------------------------
// Fig 6

// BenchmarkFig6_ColdBeamTraditional times the cold-beam configuration
// under the traditional method.
func BenchmarkFig6_ColdBeamTraditional(b *testing.B) {
	p := getFixture(b)
	benchSteps(b, p.ColdBeamConfig(13), nil)
}

// BenchmarkFig6_ColdBeamDL is the DL counterpart of the Fig 6 run.
func BenchmarkFig6_ColdBeamDL(b *testing.B) {
	p := getFixture(b)
	benchSteps(b, p.ColdBeamConfig(13), p.MLP)
}

// ---------------------------------------------------------------------------
// §VII performance claim: DL field solve vs traditional field solve.

// BenchmarkFieldSolve_Traditional times the deposit + Poisson + gradient
// pipeline in isolation (the stage the paper replaces).
func BenchmarkFieldSolve_Traditional(b *testing.B) {
	p := getFixture(b)
	cfg := p.ValidationConfig(17)
	sim, err := pic.New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	method := sim.Method().(*pic.TraditionalField)
	e := make([]float64, cfg.Cells)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := method.ComputeField(sim, e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFieldSolve_DL times the bin + normalize + MLP inference
// pipeline (the stage that replaces it).
func BenchmarkFieldSolve_DL(b *testing.B) {
	p := getFixture(b)
	cfg := p.ValidationConfig(17)
	sim, err := pic.New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	e := make([]float64, cfg.Cells)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.MLP.ComputeField(sim, e); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations

// BenchmarkAblation_PoissonSolvers compares the Poisson backends on the
// paper's 64-cell grid.
func BenchmarkAblation_PoissonSolvers(b *testing.B) {
	g := grid.MustNew(64, dlpic.DefaultConfig().Length)
	r := rng.New(1)
	rho := make([]float64, g.N())
	for i := range rho {
		rho[i] = r.NormFloat64()
	}
	g.SubtractMean(rho)
	phi := make([]float64, g.N())
	sor, _ := poisson.NewSOR(g, 1, 1.7, 0, 0)
	solvers := []poisson.Solver{
		poisson.NewSpectral(g, 1),
		poisson.NewSpectralFD(g, 1),
		poisson.NewCG(g, 1, 0, 0),
		sor,
	}
	for _, s := range solvers {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.Solve(phi, rho); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_DepositOrders compares NGP/CIC/TSC deposits at the
// paper's full particle count (64,000).
func BenchmarkAblation_DepositOrders(b *testing.B) {
	cfg := dlpic.DefaultConfig()
	g := grid.MustNew(cfg.Cells, cfg.Length)
	r := rng.New(2)
	pos := make([]float64, cfg.NumParticles())
	for i := range pos {
		pos[i] = r.Float64() * cfg.Length
	}
	rho := make([]float64, g.N())
	for _, s := range []interp.Scheme{interp.NGP, interp.CIC, interp.TSC} {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				interp.Deposit(s, g, pos, -1, rho)
			}
		})
	}
}

// BenchmarkAblation_BinningOrders compares NGP vs CIC phase-space
// binning (the paper's suggested higher-order binning extension).
func BenchmarkAblation_BinningOrders(b *testing.B) {
	cfg := dlpic.DefaultConfig()
	r := rng.New(3)
	n := cfg.NumParticles()
	x := make([]float64, n)
	v := make([]float64, n)
	for i := range x {
		x[i] = r.Float64() * cfg.Length
		v[i] = 0.25 * r.NormFloat64()
	}
	for _, scheme := range []interp.Scheme{interp.NGP, interp.CIC} {
		spec := phasespace.DefaultSpec(cfg.Length)
		spec.Binning = scheme
		hist, err := phasespace.NewHist(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(scheme.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := hist.Bin(x, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_PhysicsLoss compares the plain MSE loss against the
// physics-informed variant (Gauss-law + neutrality penalties).
func BenchmarkAblation_PhysicsLoss(b *testing.B) {
	r := rng.New(4)
	pred := tensor.New(64, 64)
	targ := tensor.New(64, 64)
	grad := tensor.New(64, 64)
	pred.RandomNormal(r, 0.05)
	targ.RandomNormal(r, 0.05)
	losses := []nn.Loss{
		nn.MSE{},
		nn.PhysicsMSE{Dx: 0.032, LambdaDiv: 0.1, LambdaMean: 0.1},
	}
	for _, l := range losses {
		b.Run(l.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Forward(pred, targ, grad)
			}
		})
	}
}

// BenchmarkAblation_EnergyConservingGather compares the
// momentum-conserving (CIC) and energy-conserving gather variants.
func BenchmarkAblation_EnergyConservingGather(b *testing.B) {
	for _, ec := range []struct {
		name string
		on   bool
	}{{"momentum-conserving", false}, {"energy-conserving", true}} {
		b.Run(ec.name, func(b *testing.B) {
			cfg := dlpic.DefaultConfig()
			cfg.ParticlesPerCell = 100
			cfg.EnergyConserving = ec.on
			benchSteps(b, cfg, nil)
		})
	}
}

// BenchmarkTraining_ShardedFit compares the single-shard serial
// training path (Shards=1, Workers=1 — the pre-sharding reference)
// against the deterministic data-parallel engine on a paper-shaped MLP
// (4096 phase-space inputs, batch 64). One op is one epoch over 64
// samples. All variants produce bit-identical weights for a given
// shard count; run with -cpu 1,4,8 to see worker scaling (Workers >
// GOMAXPROCS adds only scheduling overhead).
func BenchmarkTraining_ShardedFit(b *testing.B) {
	const inDim, outDim, hidden, n = 4096, 64, 256, 64
	r := rng.New(51)
	x := tensor.New(n, inDim)
	y := tensor.New(n, outDim)
	x.RandomNormal(r, 1)
	y.RandomNormal(r, 0.1)
	for _, tc := range []struct {
		name            string
		workers, shards int
	}{
		{"serial", 1, 1},
		{"sharded-w1", 1, 0},
		{"sharded-w2", 2, 0},
		{"sharded-w4", 4, 0},
		{"sharded-w8x8", 8, 8}, // explicit 8 shards: auto picks 4 for batch 64
	} {
		b.Run(tc.name, func(b *testing.B) {
			net, err := nn.NewMLP(nn.MLPConfig{
				InDim: inDim, OutDim: outDim, Hidden: hidden, HiddenLayers: 3}, rng.New(52))
			if err != nil {
				b.Fatal(err)
			}
			opt := nn.NewAdam(1e-4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nn.Fit(net, x, y, nil, nil, nn.TrainConfig{
					Epochs: 1, BatchSize: 64, Optimizer: opt, Loss: nn.MSE{},
					Seed: uint64(i), Workers: tc.workers, Shards: tc.shards,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraining_CNNShardedFit is the CNN counterpart on the
// fixture-scale architecture: conv layers loop over samples serially
// within a shard, so batch sharding is the only batch-level
// parallelism the conv path has.
func BenchmarkTraining_CNNShardedFit(b *testing.B) {
	const h, w, outDim, n = 16, 16, 16, 64
	r := rng.New(53)
	x := tensor.New(n, h*w)
	y := tensor.New(n, outDim)
	x.RandomNormal(r, 1)
	y.RandomNormal(r, 0.1)
	for _, tc := range []struct {
		name            string
		workers, shards int
	}{
		{"serial", 1, 1},
		{"sharded-w1", 1, 0},
		{"sharded-w4", 4, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			net, err := nn.NewCNN(nn.CNNConfig{
				H: h, W: w, OutDim: outDim, Channels1: 4, Channels2: 8,
				Kernel: 3, Hidden: 64, HiddenLayers: 2}, rng.New(54))
			if err != nil {
				b.Fatal(err)
			}
			opt := nn.NewAdam(1e-4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nn.Fit(net, x, y, nil, nil, nn.TrainConfig{
					Epochs: 1, BatchSize: 64, Optimizer: opt, Loss: nn.MSE{},
					Seed: uint64(i), Workers: tc.workers, Shards: tc.shards,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraining_Evaluate times the parallel deterministic Evaluate
// on a paper-shaped MLP over a 512-sample set (batch 64).
func BenchmarkTraining_Evaluate(b *testing.B) {
	const inDim, outDim, n = 4096, 64, 512
	net, err := nn.NewMLP(nn.MLPConfig{InDim: inDim, OutDim: outDim, Hidden: 256, HiddenLayers: 3}, rng.New(55))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(56)
	x := tensor.New(n, inDim)
	y := tensor.New(n, outDim)
	x.RandomNormal(r, 1)
	y.RandomNormal(r, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Evaluate(net, x, y, 64)
	}
}

// BenchmarkTraining_MLPEpoch times one training epoch of the tiny MLP
// (the offline cost of the paper's method).
func BenchmarkTraining_MLPEpoch(b *testing.B) {
	p := getFixture(b)
	net, err := nn.NewMLP(nn.MLPConfig{
		InDim: p.Spec.Size(), OutDim: p.Cfg.Cells, Hidden: 32, HiddenLayers: 3,
	}, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nn.Fit(net, p.Train.Inputs, p.Train.Targets, nil, nil, nn.TrainConfig{
			Epochs: 1, BatchSize: 64, Optimizer: nn.NewAdam(1e-3), Loss: nn.MSE{}, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Parallel hot path and sweep throughput. Run with -cpu 1,4,8 to
// measure multi-core scaling; the deterministic chunked kernels produce
// bit-identical physics at every setting.

// BenchmarkHotPath_Deposit times a CIC deposit at the paper's full
// particle count (64,000) — the dominant scatter kernel of the step.
func BenchmarkHotPath_Deposit(b *testing.B) {
	cfg := dlpic.DefaultConfig()
	g := grid.MustNew(cfg.Cells, cfg.Length)
	r := rng.New(21)
	pos := make([]float64, cfg.NumParticles())
	for i := range pos {
		pos[i] = r.Float64() * cfg.Length
	}
	rho := make([]float64, g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interp.Deposit(interp.CIC, g, pos, -1, rho)
	}
}

// BenchmarkHotPath_FullStep times one traditional-PIC step at the
// paper's full scale (64 cells x 1000 particles/cell).
func BenchmarkHotPath_FullStep(b *testing.B) {
	cfg := dlpic.DefaultConfig()
	sim, err := pic.New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchedInference compares the per-call DL field solve (N
// independent Predict1 calls, what a sweep of N concurrent NN-method
// scenarios pays per step) against one stacked PredictBatch of N rows,
// on a paper-shaped MLP (64x64 phase-space input). Compare percall-N
// against batched-N directly: both do N rows per op, so ns/op is the
// per-step inference cost of an N-scenario pool. The batched path wins
// because each layer's weight matrix is streamed from memory once per
// batch instead of once per row (k-outer GEMM in internal/tensor).
func BenchmarkBatchedInference(b *testing.B) {
	const inDim, outDim, maxWidth = 4096, 64, 16
	net, err := nn.NewMLP(nn.MLPConfig{InDim: inDim, OutDim: outDim, Hidden: 256, HiddenLayers: 3}, rng.New(31))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(32)
	in := make([]float64, maxWidth*inDim)
	for i := range in {
		in[i] = r.Float64()
	}
	out := make([]float64, maxWidth*outDim)
	for _, width := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("percall-%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for w := 0; w < width; w++ {
					net.Predict1(in[w*inDim:(w+1)*inDim], out[w*outDim:(w+1)*outDim])
				}
			}
		})
		b.Run(fmt.Sprintf("batched-%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net.PredictBatch(width, in[:width*inDim], out[:width*outDim])
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Raw-speed floor: GEMM kernels, pipelined trainer, float32 inference.

// sparseTensor fills a tensor with normal variates and ~25% exact
// zeros — the sparsity pattern ReLU activations feed the training
// GEMMs, which the kernels' zero-skip is tuned for.
func sparseTensor(r *rng.Source, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	t.RandomNormal(r, 1)
	for i := range t.Data {
		if r.Float64() < 0.25 {
			t.Data[i] = 0
		}
	}
	return t
}

// benchMatMul times the tiled kernel against the naive reference for
// one shape x transpose case (both in the same process, so the ratio is
// immune to cross-session machine noise). Steady-state allocs/op must
// stay at goroutine-bookkeeping level: the TN transpose pack comes from
// a pool (TestMatMulPackPooled in internal/tensor asserts it).
func benchMatMul(b *testing.B, m, k, n int, transA, transB bool) {
	r := rng.New(61)
	am, ak := m, k
	if transA {
		am, ak = ak, am
	}
	bk, bn := k, n
	if transB {
		bk, bn = bn, bk
	}
	a := sparseTensor(r, am, ak)
	w := sparseTensor(r, bk, bn)
	dst := tensor.New(m, n)
	b.Run("tiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.MatMul(dst, a, w, transA, transB)
		}
	})
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.MatMulRef(dst, a, w, transA, transB)
		}
	})
}

// matMulShapes is the recorded GEMM grid: the paper-shaped forward
// product (batch 64, 4096 phase-space inputs), a square stress shape,
// and a narrow-output tail. The NT and TN variants run the same grid in
// their gradient orientation (dx = dy * W^T, dW = x^T * dy).
var matMulShapes = []struct{ m, k, n int }{
	{64, 4096, 256}, // paper-shaped
	{512, 512, 512}, // square
	{64, 1024, 64},  // narrow output
}

// BenchmarkMatMul_NN times the forward-pass orientation (x * W).
func BenchmarkMatMul_NN(b *testing.B) {
	for _, sh := range matMulShapes {
		b.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(b *testing.B) {
			benchMatMul(b, sh.m, sh.k, sh.n, false, false)
		})
	}
}

// BenchmarkMatMul_NT times the input-gradient orientation (dy * W^T).
func BenchmarkMatMul_NT(b *testing.B) {
	for _, sh := range matMulShapes {
		// Gradient orientation: m rows of dy against the k-dim of W.
		m, k, n := sh.m, sh.n, sh.k
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			benchMatMul(b, m, k, n, false, true)
		})
	}
}

// BenchmarkMatMul_TN times the weight-gradient orientation (x^T * dy).
func BenchmarkMatMul_TN(b *testing.B) {
	for _, sh := range matMulShapes {
		// Weight gradient: [k-in, batch] x [batch, n-out].
		m, k, n := sh.k, sh.m, sh.n
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			benchMatMul(b, m, k, n, true, false)
		})
	}
}

// BenchmarkTraining_PipelinedFit compares the serial batch loop against
// the pipelined trainer (gather of batch t+1 overlapped with the clip +
// optimizer step of batch t) on a paper-shaped MLP, in one process.
// Weights are bit-identical between the variants
// (TestPipelinedFitBitIdentical); only the wall clock moves.
func BenchmarkTraining_PipelinedFit(b *testing.B) {
	const inDim, outDim, hidden, n = 4096, 64, 256, 128
	r := rng.New(63)
	x := tensor.New(n, inDim)
	y := tensor.New(n, outDim)
	x.RandomNormal(r, 1)
	y.RandomNormal(r, 0.1)
	for _, tc := range []struct {
		name     string
		pipeline bool
	}{
		{"serial", false},
		{"pipelined", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			net, err := nn.NewMLP(nn.MLPConfig{
				InDim: inDim, OutDim: outDim, Hidden: hidden, HiddenLayers: 3}, rng.New(64))
			if err != nil {
				b.Fatal(err)
			}
			opt := nn.NewAdam(1e-4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nn.Fit(net, x, y, nil, nil, nn.TrainConfig{
					Epochs: 1, BatchSize: 64, Optimizer: opt, Loss: nn.MSE{},
					Seed: uint64(i), Pipeline: tc.pipeline,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchedInference32 compares the float64 batched forward pass
// against the opt-in float32 inference path on the paper-shaped MLP —
// the converted-weight GEMMs move half the bytes per solve. One op is
// one 16-row stacked solve (a 16-scenario pool's per-step cost).
func BenchmarkBatchedInference32(b *testing.B) {
	const inDim, outDim, width = 4096, 64, 16
	net, err := nn.NewMLP(nn.MLPConfig{InDim: inDim, OutDim: outDim, Hidden: 256, HiddenLayers: 3}, rng.New(65))
	if err != nil {
		b.Fatal(err)
	}
	pred32, err := nn.NewPredictor32(net)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(66)
	in := make([]float64, width*inDim)
	for i := range in {
		in[i] = r.Float64()
	}
	out := make([]float64, width*outDim)
	b.Run("f64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net.PredictBatch(width, in, out)
		}
	})
	b.Run("f32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pred32.PredictBatch(width, in, out)
		}
	})
}

// benchDLSweep runs the fixture's trained MLP over a 4-scenario grid
// through the sweep engine, either per-call (one solver clone per
// scenario) or through the batched inference server.
func benchDLSweep(b *testing.B, batched bool) {
	p := getFixture(b)
	scs := sweep.Grid(p.Cfg, []float64{0.15, 0.2}, []float64{0, 0.025}, 1, 10, 1)
	opts := sweep.Options{SkipFit: true}
	if batched {
		bs, err := batch.FromNNSolver(p.MLP, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer bs.Close()
		opts.Methods = []sweep.MethodSpec{{Name: "mlp-batched", Batcher: bs}}
	} else {
		opts.Methods = []sweep.MethodSpec{{Name: "mlp", Factory: func(sweep.Scenario) (pic.FieldMethod, error) {
			return p.MLP.Clone()
		}}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := sweep.Run(scs, opts)
		if err := sweep.FirstError(results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep_DLPerCall times the 4-scenario DL sweep on the
// per-call path: every scenario clones the solver and pays its own
// Predict1 per step.
func BenchmarkSweep_DLPerCall(b *testing.B) { benchDLSweep(b, false) }

// BenchmarkSweep_DLBatched is the same sweep with the field solves
// stacked through the batched inference server (bit-identical results).
func BenchmarkSweep_DLBatched(b *testing.B) { benchDLSweep(b, true) }

// BenchmarkSweep_TwoStreamGrid times a 4-scenario two-stream sweep
// through the concurrent engine (Workers = GOMAXPROCS, so -cpu scales
// the pool).
func BenchmarkSweep_TwoStreamGrid(b *testing.B) {
	base := dlpic.DefaultConfig()
	base.Cells = 32
	base.ParticlesPerCell = 125
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scs := sweep.Grid(base, []float64{0.15, 0.2}, []float64{0, 0.025}, 1, 25, 1)
		results := sweep.Run(scs, sweep.Options{SkipFit: true})
		if err := sweep.FirstError(results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep_MultiMethodCampaign times a journaled 2-scenario x
// 2-method campaign (traditional + oracle) through the resumable
// campaign engine, including the per-cell journal appends. Workers =
// GOMAXPROCS, so -cpu scales the pool.
func BenchmarkSweep_MultiMethodCampaign(b *testing.B) {
	base := dlpic.DefaultConfig()
	base.Cells = 32
	base.ParticlesPerCell = 125
	dir := b.TempDir()
	spec := dlpic.CampaignSpec{
		Scenarios: sweep.Grid(base, []float64{0.15, 0.2}, []float64{0.01}, 1, 25, 1),
		Opts: sweep.Options{
			SkipFit: true,
			Methods: []dlpic.SweepMethodSpec{
				{Name: "traditional"},
				{Name: "oracle", Factory: func(sc sweep.Scenario) (pic.FieldMethod, error) {
					spec := phasespace.DefaultSpec(sc.Cfg.Length)
					spec.NX = sc.Cfg.Cells // oracle recovery needs NX == Cells
					return core.NewOracleSolver(sc.Cfg, spec)
				}},
			},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh journal per iteration: an existing one would skip
		// every cell and measure nothing but the restore path.
		results, err := dlpic.RunCampaign(fmt.Sprintf("%s/j%d.jsonl", dir, i), spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := sweep.FirstError(results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep_DistLeaseDispatch times an 8-scenario x 2-method
// campaign fanned over the distributed lease protocol — an in-process
// coordinator hub behind a real HTTP server, one worker
// claiming/heartbeating/completing over the wire. The cells are
// deliberately tiny (16 grid cells, 40 particles, 5 steps) so the
// physics is a rounding error and the measurement isolates the
// dispatch overhead itself: claim round-trips, JSON scenario
// marshaling, journal writes via the coordinator. The k1/k8 variants
// differ only in the worker's claim batch size: k8 amortizes the
// per-claim round-trip across up to 8 granted cells (completion stays
// per-cell), so k8/k1 < 1 is the batching win the bench gate asserts.
func BenchmarkSweep_DistLeaseDispatch(b *testing.B) {
	for _, bc := range []struct {
		name       string
		claimBatch int
	}{
		{"k1", 1},
		{"k8", 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchDistLeaseDispatch(b, bc.claimBatch)
		})
	}
}

func benchDistLeaseDispatch(b *testing.B, claimBatch int) {
	base := dlpic.DefaultConfig()
	base.Cells = 16
	base.ParticlesPerCell = 40
	v0s := []float64{0.14, 0.15, 0.16, 0.17, 0.18, 0.19, 0.2, 0.21}
	spec := dlpic.CampaignSpec{
		Scenarios: sweep.Grid(base, v0s, []float64{0.01}, 1, 5, 1),
		Opts: sweep.Options{
			SkipFit: true,
			Methods: []dlpic.SweepMethodSpec{
				{Name: "traditional"},
				{Name: "oracle", Factory: func(sc sweep.Scenario) (pic.FieldMethod, error) {
					spec := phasespace.DefaultSpec(sc.Cfg.Length)
					spec.NX = sc.Cfg.Cells // oracle recovery needs NX == Cells
					return core.NewOracleSolver(sc.Cfg, spec)
				}},
			},
		},
	}
	hub := dlpic.NewDistHub(dlpic.DistOptions{ClaimRetry: time.Millisecond})
	mux := http.NewServeMux()
	hub.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	worker, err := dlpic.NewDistWorker(dlpic.DistWorkerOptions{
		ID:         "bench",
		Client:     dlpic.NewDistClient(srv.URL, nil),
		Methods:    spec.Opts.Methods,
		Poll:       time.Millisecond,
		ClaimBatch: claimBatch,
	})
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		worker.Run(func() bool {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		})
	}()
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh journal per iteration, mirroring the in-process
		// campaign bench.
		results, err := hub.Run(fmt.Sprintf("bench%d", i), fmt.Sprintf("%s/j%d.jsonl", dir, i), spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := sweep.FirstError(results); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
