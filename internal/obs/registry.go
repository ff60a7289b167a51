// Package obs is a dependency-free observability layer: a metrics
// registry (counters, gauges, log-linear histograms) with Prometheus-text
// and JSON snapshot exporters, span-based tracing in Chrome trace_event
// JSONL format, and a progress ticker.
//
// Every entry point is nil-safe: a nil *Registry, *Counter, *Gauge,
// *Histogram, *Tracer or *Span turns the corresponding operation into a
// zero-allocation no-op, so instrumented code needs no "is observability
// on?" branches and disabled runs pay (almost) nothing. Nothing in this
// package touches any RNG stream — instrumented and uninstrumented runs
// of deterministic code remain bit-for-bit identical.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on nil).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d to the gauge (no-op on nil).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry holds named metrics. Metric handles are created on first use
// and cached, so hot paths should look their handles up once. Names
// should be Prometheus-compatible (snake_case, optionally with a baked-in
// label set such as `worker_busy_ns{worker="3"}`).
//
// A nil *Registry is the disabled state: every lookup returns a nil
// handle whose operations are zero-allocation no-ops.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string // family -> HELP text (see SetHelp)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return intern(&r.mu, r.counters, name, func() *Counter { return &Counter{} })
}

// intern returns the handle named name in m, which mu guards, creating
// it with newHandle on first use.
func intern[T any](mu *sync.RWMutex, m map[string]*T, name string, newHandle func() *T) *T {
	mu.RLock()
	h, ok := m[name]
	mu.RUnlock()
	if ok {
		return h
	}
	mu.Lock()
	defer mu.Unlock()
	if h, ok = m[name]; !ok {
		h = newHandle()
		m[name] = h
	}
	return h
}

// CounterOf returns r's named counter, or a private counter on a nil
// registry: a component whose counts must stay readable without a
// registry resolves each count once this way and adds to it at one
// site.
func CounterOf(r *Registry, name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	return r.Counter(name)
}

// Gauge returns (creating if needed) the named gauge; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return intern(&r.mu, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns (creating if needed) the named histogram; nil on a
// nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return intern(&r.mu, r.histograms, name, NewHistogram)
}

// Snapshot is a point-in-time JSON-serializable copy of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric (empty snapshot on nil).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
