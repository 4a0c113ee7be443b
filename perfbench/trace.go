package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dlpic/internal/pic"
)

// span is one timed interval at a layer boundary. Parent indexes the
// enclosing span in the tracer's list (-1 for a root).
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent int     `json:"parent"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A
// nil *tracer is the untraced run: every method is a no-op on it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.us(now), End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.us(now)
}

// record adds a finished root span timed by the caller.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.us(start), End: t.us(end), Parent: -1})
}

// durations returns the durations in milliseconds of every closed span
// named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, (s.End-s.Start)/1000)
		}
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the
// durations of its direct children, in milliseconds. Children of one
// span never overlap here (each parent's stages run in sequence).
func (t *tracer) selfTimes(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, (s.End-s.Start-child[i])/1000)
		}
	}
	return out
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stepClock collects step wall times from field-method call intervals:
// pic.Simulation.Step calls its field method exactly once, so the time
// between two successive calls on one simulation is one full step.
type stepClock struct {
	mu    sync.Mutex
	steps []float64 // ms
}

func (c *stepClock) add(d time.Duration) {
	c.mu.Lock()
	c.steps = append(c.steps, ms(d))
	c.mu.Unlock()
}

func (c *stepClock) reset() {
	c.mu.Lock()
	c.steps = nil
	c.mu.Unlock()
}

func (c *stepClock) snapshot() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.steps...)
}

// timedMethod wraps one simulation's field method. It feeds the step
// clock and, in a traced run, records every field solve as a span. It
// changes no arithmetic, so digests are those of the wrapped method.
type timedMethod struct {
	inner pic.FieldMethod
	clock *stepClock
	tr    *tracer
	span  string
	last  time.Time
	calls int
}

func (m *timedMethod) Name() string { return m.inner.Name() }

func (m *timedMethod) ComputeField(sim *pic.Simulation, e []float64) error {
	start := time.Now()
	// Call 0 is pic.New's initial solve; the interval from call 0 to
	// call 1 also covers New's de-staggering, so it is not a step.
	if m.calls >= 2 && m.clock != nil {
		m.clock.add(start.Sub(m.last))
	}
	m.calls++
	m.last = start
	err := m.inner.ComputeField(sim, e)
	if m.tr != nil {
		m.tr.record(m.span, start, time.Now())
	}
	return err
}

// Close releases the wrapped method's backend (a batch-server client).
func (m *timedMethod) Close() error {
	if c, ok := m.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
