// Package telemetry is the observability layer of the CLEAN reproduction:
// a low-overhead metrics registry (counters, gauges, bounded histograms),
// a timeline tracer that renders runs as Chrome trace-event / Perfetto
// JSON, and BENCH_*.json files of RunReports — the api/v1 document that
// unifies machine, detector, Kendo and hardware-simulator statistics per
// run.
//
// The paper's evaluation (§6) is built from exactly these quantities —
// shared-access frequency (Fig. 7), memory-access breakdowns (Fig. 10),
// clock rollovers (Table 1), Kendo wait time — so the substrate packages
// (internal/machine, internal/core, internal/kendo via the machine,
// internal/hwsim) thread their counters through a Registry, and the
// harness serializes the result instead of recomputing it ad hoc.
//
// Design constraints, in order:
//
//   - no-op when disabled: every handle method is safe on a nil receiver,
//     so instrumented code holds possibly-nil *Counter/*Histogram fields
//     and calls them unconditionally — a nil check plus return, nothing
//     else, on the disabled path;
//   - zero allocation on the hot path: Add/Set/Observe never allocate;
//     name lookup and bucket layout happen once, at registration;
//   - single-threaded by design: the simulated machine dispatches one
//     thread at a time (goroutine handoffs establish happens-before), so
//     handles use plain fields, not atomics. One Registry per run.
package telemetry

import (
	"sort"

	"repro/internal/stats"
)

// Counter is a monotonically increasing uint64 metric. The zero of its
// kind is a nil pointer, on which every method is a no-op — disabled
// telemetry costs one nil check per increment.
type Counter struct{ v uint64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins float64 metric; nil-safe like Counter.
type Gauge struct{ v float64 }

// Set records v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the last set value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a bounded fixed-bucket distribution metric with p50/p95/p99
// estimates; nil-safe like Counter. Observation is allocation-free.
type Histogram struct{ h *stats.Histogram }

// Observe counts one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.h.Observe(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.h.Count()
}

// Percentile estimates the p-th percentile (0 on nil).
func (h *Histogram) Percentile(p float64) float64 {
	if h == nil {
		return 0
	}
	return h.h.Percentile(p)
}

// Snapshot captures the histogram's current state (zero value on nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Count:  h.h.Count(),
		Sum:    h.h.Sum(),
		Min:    h.h.Min(),
		Max:    h.h.Max(),
		Mean:   h.h.Mean(),
		P50:    h.h.Percentile(50),
		P95:    h.h.Percentile(95),
		P99:    h.h.Percentile(99),
		Bounds: h.h.Bounds(),
		Counts: h.h.Counts(),
	}
}

// Registry holds one run's metrics under dotted names following the
// "<subsystem>.<metric>" convention (machine.shared_reads,
// core.epoch_loads, kendo.wait_ops, hwsim.l1_hits, …). A nil *Registry is
// the disabled state: registration returns nil handles and Snapshot
// returns an empty snapshot.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the named counter, or nil on
// a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge, or nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given ascending bucket bounds, or nil on a nil registry. The bounds
// of the first registration win.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{h: stats.NewHistogram(bounds...)}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric's current value in its serializable
// form.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// CounterNames returns the registered counter names in sorted order.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
