// Command perfbench is the dlpic benchmark. It runs one workload for a
// fixed time, checks the physics and determinism gates, and prints
// every metric by name with its unit; the last line of standard output
// is one JSON object {correct, attempted, failed, metrics}.
//
//	bash perfbench/run.sh --workload paper_traditional --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// runs the workload untraced for half the time, then replays the same
// units traced (spans around every layer call, kept in memory and
// written to .bench_build/traces/ at the end), fails if the traced run's
// digests differ, and reports the per-layer metrics. --workload all runs
// the four workloads one after another in this process and prefixes
// each metric with its workload. See LAYERS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metricSpec is one metric's name, unit and direction, as listed in
// BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"step_ms_p50", "ms", "lower"},
	{"step_ms_p90", "ms", "lower"},
	{"particle_steps_per_s", "1/s", "higher"},
	{"loop_s", "s", "lower"},
	{"cells_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricSpec{
	{"step.ms_p99", "ms", "lower"},
	{"interp.gather.ms", "ms", "lower"},
	{"interp.deposit.ms", "ms", "lower"},
	{"mover.kick.ms", "ms", "lower"},
	{"mover.drift.ms", "ms", "lower"},
	{"poisson.solve.us", "us", "lower"},
	{"pic.step.self_ms", "ms", "lower"},
	{"phasespace.bin.ms", "ms", "lower"},
	{"phasespace.normalize.us", "us", "lower"},
	{"nn.predict.ms", "ms", "lower"},
	{"nn.predict.gbps_computed", "GB/s", "higher"},
	{"nn.fit.s", "s", "lower"},
	{"nn.fit.samples_per_s", "1/s", "higher"},
	{"core.field.ms", "ms", "lower"},
	{"core.field.self_ms", "ms", "lower"},
	{"dataset.generate.s", "s", "lower"},
	{"dataset.samples_per_s", "1/s", "higher"},
	{"sweep.cell.ms_p50", "ms", "lower"},
	{"sweep.pool.busy_frac", "ratio", "higher"},
	{"batch.flushes", "count", "lower"},
	{"batch.rows_per_flush", "rows", "higher"},
	{"batch.field.ms", "ms", "lower"},
	{"campaign.overhead_ms_per_cell", "ms", "lower"},
	{"campaign.journal.bytes_per_cell", "bytes", "lower"},
	{"dist.claim.ms_p50", "ms", "lower"},
	{"dist.complete.ms_p50", "ms", "lower"},
	{"dist.heartbeat.count", "count", "lower"},
	{"dist.rpc.failed", "count", "lower"},
	{"dist.cells_per_claim", "cells", "higher"},
	{"dist.bundle.fetches", "count", "lower"},
	{"dist.bundle.bytes", "bytes", "lower"},
	{"parallel.scaling_2v1", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"machine.triad_gbps", "GB/s", "higher"},
	{"physics.growth_rel_err", "ratio", "lower"},
	{"physics.energy_variation", "ratio", "lower"},
	{"physics.fit_frac", "ratio", "higher"},
}

// workload is one benchmark input family. setup runs before the timed
// phase (several times; the last set-up is kept) and returns its
// release; run measures until the context says stop.
type workload interface {
	setup(c *runCtx) (func(), error)
	run(c *runCtx, r *report)
}

func workloads() map[string]workload {
	return map[string]workload{
		"paper_traditional": paperTraditional{},
		"paper_loop":        paperLoop{},
		"scan_campaign":     &campaignWL{},
		"fleet_scan":        &campaignWL{fleet: true},
	}
}

// runCtx carries one run's inputs. units > 0 replays exactly that many
// units (the traced pass of an untraced one); otherwise units run until
// budget is spent, at least one.
type runCtx struct {
	seed    uint64
	budget  time.Duration
	units   int
	tr      *tracer
	workers int
	dir     string
}

func (c *runCtx) more(i int, start time.Time) bool {
	if c.units > 0 {
		return i < c.units
	}
	return i == 0 || time.Since(start) < c.budget
}

// report accumulates one pass's gates, metrics and digests.
type report struct {
	attempted, failed int
	failures          []string
	e2e, layer        map[string]float64
	digests           []string
	units             int
	wall              time.Duration
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// gate counts one attempted run, cell or check, failed if err != nil.
func (r *report) gate(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, what+": "+err.Error())
	}
}

// setPhysics records the runs' physics: median |gamma_fit/gamma_theory
// - 1| over runs that fitted a growth window, the fitted share, and the
// median energy variation. Deterministic per seed, they vary across
// seeds far more than any timing bound allows, so they are reported in
// the traced set rather than as end-to-end metrics.
func (r *report) setPhysics(errs, evar []float64, runs int) {
	r.layer["physics.growth_rel_err"] = median(errs)
	r.layer["physics.energy_variation"] = median(evar)
	if runs > 0 {
		r.layer["physics.fit_frac"] = float64(len(errs)) / float64(runs)
	}
}

// stepBlock is the step count over which one tail percentile is
// taken: 1000 steps leave ten samples beyond the p99.
const stepBlock = 1000

// blockQuantile is the median over consecutive stepBlock-step blocks of
// each block's q-quantile (the pooled quantile when there are fewer
// steps), so one burst of machine noise moves one block rather than
// the whole tail.
func blockQuantile(stepMS []float64, q float64) float64 {
	var qs []float64
	for start := 0; start+stepBlock <= len(stepMS); start += stepBlock {
		qs = append(qs, quantile(stepMS[start:start+stepBlock], q))
	}
	if len(qs) == 0 {
		return quantile(stepMS, q)
	}
	return median(qs)
}

// setStep records the step-time median and tail. The p90 is the
// end-to-end tail: on a shared 2-vCPU host the paper DL step's p99
// follows the neighbours' cache pressure (its spread over ten seeds was
// 0.39), so the p99 is kept with the per-layer metrics.
func (r *report) setStep(stepMS []float64) {
	r.e2e["step_ms_p50"] = median(stepMS)
	r.e2e["step_ms_p90"] = blockQuantile(stepMS, 0.90)
	r.layer["step.ms_p99"] = blockQuantile(stepMS, 0.99)
}

// simLayers fills the simulation layers from a replayed run's spans.
func (r *report) simLayers(tr *tracer) {
	med := func(name string) float64 { return median(tr.durations(name)) }
	r.layer["interp.gather.ms"] = med("interp.gather")
	r.layer["interp.deposit.ms"] = med("interp.deposit")
	r.layer["mover.kick.ms"] = med("mover.kick")
	r.layer["mover.drift.ms"] = med("mover.drift")
	r.layer["poisson.solve.us"] = 1000 * med("poisson.solve")
	r.layer["pic.step.self_ms"] = median(tr.selfTimes("pic.step"))
	r.layer["phasespace.bin.ms"] = med("phasespace.bin")
	r.layer["phasespace.normalize.us"] = 1000 * med("phasespace.normalize")
	r.layer["nn.predict.ms"] = med("nn.predict")
	r.layer["core.field.ms"] = med("core.field")
	r.layer["core.field.self_ms"] = median(tr.selfTimes("core.field"))
}

// Each run sets its workload up at least minSetupReps times and goes on
// until setupBudget is spent (at most maxSetupReps); setup_s is the
// median. A paper set-up takes ~30 ms, so five samples of it followed
// the host's jitter; a budget gives the short set-ups more samples.
const (
	minSetupReps = 5
	maxSetupReps = 50
	setupBudget  = 1500 * time.Millisecond
)

func main() {
	name := flag.String("workload", "", "workload: paper_traditional, paper_loop, scan_campaign, fleet_scan, or all")
	seed := flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Int("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	os.Exit(run(*name, *seed, *seconds, *trace == 1))
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"paper_traditional", "paper_loop", "scan_campaign", "fleet_scan"}

// measured is one workload's finished run.
type measured struct {
	name   string
	r      *report
	specs  []metricSpec
	values map[string]float64
}

func run(name string, seed uint64, seconds int, traced bool) int {
	names := []string{name}
	if name == "all" {
		names = workloadOrder
	}
	if _, ok := workloads()[names[0]]; !ok || seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds %d\n", name, seconds)
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var runs []measured
	for _, n := range names {
		m, err := measure(n, seed, time.Duration(seconds)*time.Second, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		runs = append(runs, m)
	}
	runtime.GC()
	debug.FreeOSMemory()
	mach := probeMachine()
	mj, err := json.Marshal(mach)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("machine %s\n", mj)

	out := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{Metrics: map[string]json.RawMessage{}}
	for _, m := range runs {
		m.r.layer["machine.triad_gbps"] = mach.TriadGBps
		for _, f := range m.r.failures {
			fmt.Fprintf(os.Stderr, "perfbench: %s: gate failed: %s\n", m.name, f)
		}
		out.Attempted += m.r.attempted
		out.Failed += m.r.failed
		for _, s := range m.specs {
			key := s.Name
			if len(runs) > 1 {
				key = m.name + "." + s.Name
			}
			v := m.values[s.Name]
			fmt.Printf("%-48s %14.6g %s\n", key, v, s.Unit)
			out.Metrics[key] = json.RawMessage(fmt.Sprintf(`{"value": %s, "unit": %q}`, formatValue(v), s.Unit))
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// measure sets one workload up repeatedly (see minSetupReps), then
// runs it: untraced for the end-to-end metrics, or untraced for half
// the budget and the same units again traced for the per-layer metrics.
// peak_rss_mb is the process's high-water mark when the workload ends.
func measure(name string, seed uint64, budget time.Duration, traced bool) (measured, error) {
	w := workloads()[name]
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return measured{}, err
	}
	defer os.RemoveAll(dir)
	c := &runCtx{seed: seed, workers: 2, dir: dir}

	var setupS []float64
	release := func() {}
	defer func() { release() }()
	for k := 0; k < minSetupReps || (k < maxSetupReps && sum(setupS) < setupBudget.Seconds()); k++ {
		release()
		release = func() {}
		// Each set-up starts from a collected heap, as in a fresh
		// process, so that the previous rep's garbage does not decide
		// when the GC runs and how high RSS peaks.
		runtime.GC()
		start := time.Now()
		rel, err := w.setup(c)
		setupS = append(setupS, time.Since(start).Seconds())
		if err != nil {
			return measured{}, fmt.Errorf("setup: %w", err)
		}
		release = rel
	}
	// Collect the set-ups' garbage before timing, as go test does before
	// a benchmark. Otherwise the GC collects it during the first campaign
	// batch, and RSS peaks there at whatever height the GC's timing
	// allows, far above the batches' steady state.
	runtime.GC()

	m := measured{name: name, r: newReport()}
	if !traced {
		c.budget = budget
		w.run(c, m.r)
		m.r.e2e["setup_s"] = median(setupS)
		m.r.e2e["peak_rss_mb"] = peakRSSMB()
		m.specs, m.values = endToEnd, m.r.e2e
		return m, nil
	}
	c.budget = budget / 2
	base := newReport()
	w.run(c, base)
	c.units = max(1, base.units)
	c.tr = newTracer()
	w.run(c, m.r)
	// The replayed paper steps are not timed whole; report the untraced
	// pass's tail.
	m.r.layer["step.ms_p99"] = base.layer["step.ms_p99"]
	m.r.attempted += base.attempted
	m.r.failed += base.failed
	m.r.failures = append(base.failures, m.r.failures...)
	m.r.gate("traced digests", compareDigests(base.digests, m.r.digests))
	m.r.layer["trace.overhead_frac"] = (m.r.wall.Seconds() - base.wall.Seconds()) / base.wall.Seconds()
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := c.tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
	}
	m.specs, m.values = perLayer, m.r.layer
	return m, nil
}

// formatValue prints a metric with all its digits (shortest exact form).
func formatValue(v float64) string {
	b, err := json.Marshal(v)
	if err != nil { // NaN or Inf: not representable, report 0
		return "0"
	}
	return string(b)
}

// compareDigests fails unless the traced pass reproduced every digest.
func compareDigests(want, got []string) error {
	if len(want) != len(got) {
		return fmt.Errorf("traced run produced %d digests, untraced %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("digest %d: traced %s != untraced %s", i, got[i], want[i])
		}
	}
	return nil
}
