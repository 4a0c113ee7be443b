package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dlpic/internal/batch"
	"dlpic/internal/campaign"
	"dlpic/internal/dist"
	"dlpic/internal/experiments"
	"dlpic/internal/grid"
	"dlpic/internal/pic"
	"dlpic/internal/sweep"
)

// The campaign grid: the repo's tiny operating point (the default scale
// of a dlpicd spec), 200 steps, every method.
var (
	scanV0s     = []float64{0.15, 0.2}
	scanVths    = []float64{0, 0.01}
	scanMethods = []string{experiments.MethodTraditional, experiments.MethodOracle, experiments.MethodMLP, experiments.MethodCNN}
)

const (
	scanRepeats = 2
	scanSteps   = 200
	// claimRetry is the hub's idle-claim hint, short so the closed loop
	// does not idle between batches.
	claimRetry = 5 * time.Millisecond
)

// campaignWL is scan_campaign (fleet false: journaled campaign.Run on a
// 2-worker pool, DL methods batched) or fleet_scan (fleet true: the
// same cells through an in-process dist.Hub on loopback and one
// dist.Worker at dlpicworker defaults).
type campaignWL struct {
	fleet bool

	pipe *experiments.Pipeline
	// specs is the registry the timed campaigns run (scan: batched;
	// fleet: the coordinator reads only the names); perCall is the
	// per-call registry a dlpicworker executes.
	specs   []sweep.MethodSpec
	perCall []sweep.MethodSpec
	pool    *batch.Pool
	clock   *stepClock
	tr      *tracer

	// fleet only
	hub   *dist.Hub
	addr  string
	refs  []dist.BundleRef
	meter *rpcMeter
}

func (w *campaignWL) setup(c *runCtx) (func(), error) {
	dir, err := os.MkdirTemp(c.dir, "setup-")
	if err != nil {
		return nil, err
	}
	opts := experiments.Options{Tiny: true, Seed: splitmix(c.seed ^ 0x7191), TrainWorkers: c.workers}
	if w.fleet {
		opts.BundleDir = filepath.Join(dir, "bundles")
	}
	pipe, err := experiments.New(opts)
	if err != nil {
		return nil, err
	}
	w.pipe = pipe
	w.clock = &stepClock{}
	perCall, cleanPerCall, err := experiments.MethodsWith(experiments.FixedPipeline(pipe), scanMethods, experiments.MethodConfig{})
	if err != nil {
		return nil, err
	}
	cleanPerCall()
	w.perCall = perCall
	if !w.fleet {
		w.pool = batch.NewPool()
		specs, cleanup, err := experiments.MethodsWith(experiments.FixedPipeline(pipe), scanMethods,
			experiments.MethodConfig{Batched: true, Pool: w.pool, PoolKey: func(m string) string { return m }})
		if err != nil {
			w.pool.Close()
			return nil, err
		}
		w.specs = w.wrapSpecs(specs)
		return func() { cleanup(); w.pool.Close() }, nil
	}
	return w.startFleet(dir)
}

// startFleet serves a hub on a loopback port; each pass starts its own
// worker (startWorker).
func (w *campaignWL) startFleet(dir string) (func(), error) {
	w.refs = nil
	for _, name := range []string{experiments.MethodMLP, experiments.MethodCNN} {
		ref, err := dist.BundleRefFromFile(name, w.pipe.BundlePaths[name])
		if err != nil {
			return nil, err
		}
		w.refs = append(w.refs, ref)
	}
	w.specs = w.perCall
	w.hub = dist.NewHub(dist.Options{BundleDir: filepath.Join(dir, "bundles"), ClaimRetry: claimRetry})
	mux := http.NewServeMux()
	w.hub.Register(mux)
	w.meter = &rpcMeter{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.addr = ln.Addr().String()
	srv := &http.Server{Handler: w.meter.wrap(mux)}
	served := make(chan struct{})
	go func() { defer close(served); _ = srv.Serve(ln) }()
	return func() {
		srv.Close()
		<-served
	}, nil
}

// startWorker starts one worker at dlpicworker defaults (claim batch 1,
// a fresh bundle cache, DL methods from shipped bundles) and returns
// its stop, which waits for it to exit.
func (w *campaignWL) startWorker(c *runCtx) (func(), error) {
	local, _, err := experiments.MethodsWith(nil, []string{experiments.MethodTraditional, experiments.MethodOracle}, experiments.MethodConfig{})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(c.dir, "cache-")
	if err != nil {
		return nil, err
	}
	cache, err := dist.NewBundleCache(dir, dist.DefaultCacheEntries)
	if err != nil {
		return nil, err
	}
	worker, err := dist.NewWorker(dist.WorkerOptions{
		ID:            "bench",
		Client:        dist.NewClient("http://"+w.addr, nil),
		Methods:       w.wrapSpecs(local),
		BundleMethods: []string{experiments.MethodMLP, experiments.MethodCNN},
		Cache:         cache,
		BundleMethod: func(method, path string) (sweep.MethodSpec, error) {
			m, err := experiments.BundleMethod(method, path)
			return w.wrapSpec(m), err
		},
		ClaimBatch: 1,
	})
	if err != nil {
		return nil, err
	}
	var stop atomic.Bool
	done := make(chan error, 1)
	go func() { done <- worker.Run(stop.Load) }()
	return func() {
		stop.Store(true)
		<-done
	}, nil
}

// wrapSpecs wraps every method for timing: the field solves of the
// model-free methods feed the step clock (stepClocked), and in a traced
// run every batched solve is a span.
func (w *campaignWL) wrapSpecs(specs []sweep.MethodSpec) []sweep.MethodSpec {
	out := make([]sweep.MethodSpec, len(specs))
	for i, m := range specs {
		out[i] = w.wrapSpec(m)
	}
	return out
}

// stepClocked reports whether a method's steps feed the campaign step
// metrics: only the model-free methods, whose steps are alike from cell
// to cell. A DL step's interval is mostly the model's solve and, when
// batched, the wait for the other simulations in the flush; at the tiny
// operating point that wait turns on whether the pool happened to run
// two CNN cells side by side, so a p90 over all cells measured the
// pool's pairing more than the program (see LAYERS.md). The DL solves
// reach the end-to-end metrics through cells_per_s and loop_s, and the
// traced run reports them as batch.field.ms.
func stepClocked(method string) bool {
	return method == experiments.MethodTraditional || method == experiments.MethodOracle
}

func (w *campaignWL) wrapSpec(m sweep.MethodSpec) sweep.MethodSpec {
	var clock *stepClock
	if stepClocked(m.Name) {
		clock = w.clock
	}
	switch {
	case m.Batcher != nil:
		m.Batcher = timedBatcher{inner: m.Batcher, w: w}
	case m.Factory != nil:
		inner := m.Factory
		m.Factory = func(sc sweep.Scenario) (pic.FieldMethod, error) {
			f, err := inner(sc)
			if err != nil {
				return nil, err
			}
			return &timedMethod{inner: f, clock: clock}, nil
		}
	default: // the implicit traditional method
		m.Factory = func(sc sweep.Scenario) (pic.FieldMethod, error) {
			g, err := grid.New(sc.Cfg.Cells, sc.Cfg.Length)
			if err != nil {
				return nil, err
			}
			f, err := pic.NewTraditionalField(sc.Cfg, g)
			if err != nil {
				return nil, err
			}
			return &timedMethod{inner: f, clock: clock}, nil
		}
	}
	return m
}

// timedBatcher wraps a batched backend's per-simulation field method;
// in a traced run each batched solve (including its wait for the
// flush) is a batch.field span.
type timedBatcher struct {
	inner sweep.Batcher
	w     *campaignWL
}

func (b timedBatcher) FieldMethod(cfg pic.Config) (pic.FieldMethod, error) {
	f, err := b.inner.FieldMethod(cfg)
	if err != nil {
		return nil, err
	}
	return &timedMethod{inner: f, tr: b.w.tr, span: "batch.field"}, nil
}

// batchSpec is the campaign of batch i: the grid with seeds drawn from
// the workload seed.
func (w *campaignWL) batchSpec(seed uint64, i int) campaign.Spec {
	return campaign.Spec{
		Scenarios: sweep.Grid(w.pipe.Cfg, scanV0s, scanVths, scanRepeats, scanSteps, splitmix(seed<<16^uint64(i))),
		Opts:      sweep.Options{Workers: 2, Methods: w.specs},
	}
}

// execute runs one batch journaled to path: in process, or through the
// hub as job "<prefix><i>".
func (w *campaignWL) execute(path string, spec campaign.Spec, job string) ([]sweep.Result, error) {
	if w.fleet {
		return w.hub.Run(job, path, spec, w.refs...)
	}
	return campaign.Run(path, spec)
}

// workers is how many cells run at once: the pool's 2, or the fleet's
// single worker.
func (w *campaignWL) workers() int {
	if w.fleet {
		return 1
	}
	return 2
}

func (w *campaignWL) run(c *runCtx, r *report) {
	w.tr = c.tr
	w.clock.reset()
	if w.fleet {
		w.meter.reset()
		stop, err := w.startWorker(c)
		if err != nil {
			r.gate("worker start", err)
			return
		}
		defer stop()
	}
	stats0 := w.batchStats()
	var batchS, errs, evar, cellMS []float64
	var busy time.Duration
	cells, particleSteps := 0, 0.0
	start := time.Now()
	for i := 0; c.more(i, start); i++ {
		spec := w.batchSpec(c.seed, i)
		t0 := time.Now()
		results, err := w.execute(filepath.Join(c.dir, fmt.Sprintf("batch-%d-%d.jsonl", i, time.Now().UnixNano())), spec, fmt.Sprintf("b%d", i))
		batchS = append(batchS, time.Since(t0).Seconds())
		r.units++
		r.gate(fmt.Sprintf("batch %d", i), err)
		r.digests = append(r.digests, campaign.Digest(results))
		for k := range results {
			res := &results[k]
			cells++
			particleSteps += float64(res.Scenario.Cfg.NumParticles() * res.Scenario.Steps)
			r.gate(fmt.Sprintf("batch %d cell %s/%s", i, res.Scenario.Name, res.Method), gateCell(res))
			if res.FitOK {
				errs = append(errs, math.Abs(res.Growth.Gamma/res.TheoryGamma-1))
			}
			evar = append(evar, res.EnergyVariation)
			cellMS = append(cellMS, ms(res.Elapsed))
			busy += res.Elapsed
		}
	}
	r.wall = time.Since(start)
	r.setStep(w.clock.snapshot())
	r.e2e["particle_steps_per_s"] = particleSteps / r.wall.Seconds()
	r.e2e["loop_s"] = median(batchS)
	r.e2e["cells_per_s"] = float64(cells) / r.wall.Seconds()
	r.setPhysics(errs, evar, cells)

	if c.tr == nil {
		// Cross-path digest gate (outside the timed phase; the traced
		// pass reruns the same batches and is held to this pass's
		// digests): batch 0 of the fleet must match the batched
		// in-process campaign; batch 0 of the in-process campaign must
		// match the per-call path the fleet's worker runs.
		r.gate("cross-path digest", w.crossCheck(c, r.digests[0]))
		return
	}
	r.layer["sweep.cell.ms_p50"] = median(cellMS)
	r.layer["sweep.pool.busy_frac"] = busy.Seconds() / (r.wall.Seconds() * float64(w.workers()))
	if w.pool != nil {
		st := w.batchStats()
		st.Requests -= stats0.Requests
		st.Batches -= stats0.Batches
		r.layer["batch.flushes"] = float64(st.Batches)
		r.layer["batch.rows_per_flush"] = st.AvgBatch()
		r.layer["batch.field.ms"] = median(c.tr.durations("batch.field"))
	}
	if w.meter != nil {
		w.meter.report(r)
	}
	w.overhead(c, r)
}

// batchStats sums the flush counters of the pooled batch servers (zero
// for the fleet, which has none).
func (w *campaignWL) batchStats() batch.Stats {
	var st batch.Stats
	if w.pool == nil {
		return st
	}
	for _, name := range []string{experiments.MethodMLP, experiments.MethodCNN} {
		s, err := w.pool.Solver(name, func() (*batch.Solver, error) { return nil, errors.New("not built") })
		if err == nil {
			x := s.Server.Stats()
			st.Requests += x.Requests
			st.Batches += x.Batches
		}
	}
	return st
}

// crossCheck reruns batch 0 through the other execution path and
// compares campaign digests.
func (w *campaignWL) crossCheck(c *runCtx, want string) error {
	specs := w.perCall
	if w.fleet {
		batched, cleanup, err := experiments.MethodsWith(experiments.FixedPipeline(w.pipe), scanMethods, experiments.MethodConfig{Batched: true})
		if err != nil {
			return err
		}
		defer cleanup()
		specs = batched
	}
	spec := w.batchSpec(c.seed, 0)
	spec.Opts.Methods = specs
	results, err := campaign.Run("", spec)
	if err != nil {
		return err
	}
	return gateDigest(campaign.Digest(results), want)
}

// overhead measures what the campaign layer (and, for the fleet, the
// dist layer) adds per cell over a bare sweep.Run of the same cells,
// and the journal bytes per cell.
func (w *campaignWL) overhead(c *runCtx, r *report) {
	var diffs []float64
	var journalBytes float64
	for rep := 0; rep < 4; rep++ {
		spec := w.batchSpec(c.seed, rep)
		path := filepath.Join(c.dir, fmt.Sprintf("overhead-%d.jsonl", rep))
		bare := func() time.Duration {
			t0 := time.Now()
			sweep.Run(spec.Scenarios, sweep.Options{Workers: w.workers(), Methods: w.specs})
			return time.Since(t0)
		}
		var b, full time.Duration
		if rep%2 == 1 { // alternate the order, so warm-up favours neither
			b = bare()
		}
		t0 := time.Now()
		results, err := w.execute(path, spec, fmt.Sprintf("o%d", rep))
		full = time.Since(t0)
		if rep%2 == 0 {
			b = bare()
		}
		if err != nil {
			continue
		}
		diffs = append(diffs, ms(full-b)/float64(len(results)))
		if st, err := os.Stat(path); err == nil {
			journalBytes = float64(st.Size()) / float64(len(results))
		}
	}
	r.layer["campaign.overhead_ms_per_cell"] = median(diffs)
	r.layer["campaign.journal.bytes_per_cell"] = journalBytes
}

// gateCell checks one campaign cell: no error and finite diagnostics.
// At the tiny operating point (30 ppc) the noise-seeded growth window is
// not resolved — correct traditional cells miss theory by up to 150% and
// the tiny models mostly fit no window — so the growth gates apply to
// the paper-scale workloads, and campaign results are gated by digest.
func gateCell(res *sweep.Result) error {
	if res.Err != nil {
		return res.Err
	}
	for _, s := range res.Rec.Samples {
		if !finite(s.Total) || !finite(s.ModeAmp) || !finite(s.Momentum) {
			return fmt.Errorf("non-finite diagnostics at step %d", s.Step)
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// gateDigest fails when two executions of the same cells disagree.
func gateDigest(got, want string) error {
	if got != want {
		return fmt.Errorf("digest %s != %s", got, want)
	}
	return nil
}

// rpcMeter is http.Handler middleware around the hub's mux: it times
// every RPC and counts the lease and bundle traffic.
type rpcMeter struct {
	mu          sync.Mutex
	claimMS     []float64
	completeMS  []float64
	heartbeats  int
	failed      int
	claims      int
	cells       int
	fetches     int
	bundleBytes int64
}

func (m *rpcMeter) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.claimMS, m.completeMS = nil, nil
	m.heartbeats, m.failed, m.claims, m.cells, m.fetches, m.bundleBytes = 0, 0, 0, 0, 0, 0
}

type meteredWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	body   *bytes.Buffer
}

func (w *meteredWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *meteredWriter) Write(p []byte) (int, error) {
	if w.body != nil {
		w.body.Write(p)
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (m *rpcMeter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		w := &meteredWriter{ResponseWriter: rw, status: http.StatusOK}
		claim := req.URL.Path == "/dist/claim"
		if claim {
			w.body = &bytes.Buffer{}
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		el := ms(time.Since(start))
		m.mu.Lock()
		defer m.mu.Unlock()
		if w.status >= 400 {
			m.failed++
		}
		switch {
		case claim:
			var resp dist.ClaimResponse
			if json.Unmarshal(w.body.Bytes(), &resp) == nil && len(resp.Cells) > 0 {
				m.claims++
				m.cells += len(resp.Cells)
				m.claimMS = append(m.claimMS, el)
			}
		case req.URL.Path == "/dist/complete":
			m.completeMS = append(m.completeMS, el)
		case req.URL.Path == "/dist/heartbeat":
			m.heartbeats++
		case strings.HasPrefix(req.URL.Path, "/bundles/"):
			m.fetches++
			m.bundleBytes += w.bytes
		}
	})
}

func (m *rpcMeter) report(r *report) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r.layer["dist.claim.ms_p50"] = median(m.claimMS)
	r.layer["dist.complete.ms_p50"] = median(m.completeMS)
	r.layer["dist.heartbeat.count"] = float64(m.heartbeats)
	r.layer["dist.rpc.failed"] = float64(m.failed)
	if m.claims > 0 {
		r.layer["dist.cells_per_claim"] = float64(m.cells) / float64(m.claims)
	}
	r.layer["dist.bundle.fetches"] = float64(m.fetches)
	r.layer["dist.bundle.bytes"] = float64(m.bundleBytes)
}
