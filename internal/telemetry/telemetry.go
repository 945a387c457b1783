// Package telemetry is the simulator's run-observability layer: a
// thread-safe registry of live metrics (counters, gauges, log-bucketed
// histograms), a sim-time sampler that turns a running simulation into an
// append-only time series (see Sample and the emitters), and the
// canonical-JSON fingerprint that names a configuration (see Fingerprint).
//
// The paper's evaluation hinges on time-resolved internals — buffer
// occupancy over time (§4), end-to-end latency and adversary error (§5) —
// and the timing-side-channel literature quantifies leakage from exactly
// these queue-state time series, so the sampler doubles as the substrate
// for future adversary models.
//
// Telemetry is strictly opt-in and the disabled path is near-free: a nil
// *Registry hands out nil metric handles, and every handle method is a
// nil-guarded no-op that performs zero allocations (pinned by an
// AllocsPerRun regression test). The simulation hot path therefore calls
// handles unconditionally.
//
// The registry is safe for concurrent use: the simulation goroutine writes
// metrics while an HTTP scrape (Registry.ServeHTTP serves the Prometheus
// text format) or an expvar dump reads them.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. A nil *Counter is a valid
// no-op handle, so callers never branch on whether telemetry is enabled.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge is a valid no-op
// handle.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket layout: bucket i (1 ≤ i ≤ histBuckets−1) counts values in
// [2^(i−1+histMinExp), 2^(i+histMinExp)); bucket 0 holds zero, negative and
// sub-2^histMinExp values. With histMinExp = −16 and 64 buckets the range
// 1.5e−5 … 1.4e14 is covered, far beyond any simulated latency.
const (
	histBuckets = 64
	histMinExp  = -16
)

// Histogram counts observations in logarithmic (power-of-two) buckets — the
// standard latency-histogram layout: constant relative error, fixed memory,
// lock-free updates. A nil *Histogram is a valid no-op handle.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// histBucket maps a value onto its bucket index.
func histBucket(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	i := math.Ilogb(v) - histMinExp + 1
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histUpper returns the exclusive upper bound of bucket i (the Prometheus
// "le" edge).
func histUpper(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return math.Ldexp(1, i+histMinExp)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[histBucket(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from bucket geometric
// midpoints. It returns 0 for an empty or nil histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || q < 0 || q > 1 || math.IsNaN(q) {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	cum := 0.0
	for i := 0; i < histBuckets; i++ {
		cum += float64(h.buckets[i].Load())
		if cum >= target {
			if i == 0 {
				return 0
			}
			lo := math.Ldexp(1, i-1+histMinExp)
			return lo * math.Sqrt2 // geometric midpoint of [lo, 2lo)
		}
	}
	return histUpper(histBuckets - 2)
}

// Registry is a named collection of metrics. The zero value is not usable;
// create one with NewRegistry. A nil *Registry is the disabled state: every
// lookup returns a nil handle and every nil handle is a no-op, so code
// instrumented against a registry pays only a nil check when telemetry is
// off.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	infos    map[string]map[string]string
}

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		infos:    make(map[string]map[string]string),
	}
}

// Info publishes an info metric — the Prometheus idiom for identity data:
// a gauge with constant value 1 whose labels carry the facts (for example
// tempriv_build_info{version=...,go_version=...} 1). Re-registering a name
// replaces its labels. No-op on a nil registry.
func (r *Registry) Info(name string, labels map[string]string) {
	if r == nil {
		return
	}
	copied := make(map[string]string, len(labels))
	for k, v := range labels {
		copied[k] = v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.infos[name] = copied
}

// Counter returns the counter with the given name, creating it on first
// use. On a nil registry it returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use. On
// a nil registry it returns a nil (no-op) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it on first
// use. On a nil registry it returns a nil (no-op) handle.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteProm writes the registry's current state in the Prometheus text
// exposition format (the snapshot served by ServeHTTP). Metric names are
// emitted in sorted order so output is deterministic.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range sortedKeys(r.counters) {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, r.counters[name].Value())
	}
	for _, name := range sortedKeys(r.gauges) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", name, name, r.gauges[name].Value())
	}
	for _, name := range sortedKeys(r.infos) {
		labels := r.infos[name]
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s{", name, name)
		for i, k := range sortedKeys(labels) {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%q", k, labels[k])
		}
		b.WriteString("} 1\n")
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		cum := uint64(0)
		for i := 0; i < histBuckets; i++ {
			n := h.buckets[i].Load()
			if n == 0 {
				continue // elide empty buckets; cumulative counts stay exact
			}
			cum += n
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, formatLE(histUpper(i)), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", name, h.Sum(), name, h.Count())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatLE renders a histogram bucket edge for the "le" label.
func formatLE(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// ServeHTTP implements http.Handler, serving the Prometheus text snapshot —
// mount the registry at /metrics next to net/http/pprof for long runs.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WriteProm(w)
}

// Snapshot returns the registry's current values as a plain map — the shape
// published through expvar (histograms report count/sum/p50/p95/p99).
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists)+len(r.infos))
	for name, labels := range r.infos {
		copied := make(map[string]string, len(labels))
		for k, v := range labels {
			copied[k] = v
		}
		out[name] = copied
	}
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = map[string]any{
			"count": h.Count(),
			"sum":   h.Sum(),
			"p50":   h.Quantile(0.50),
			"p95":   h.Quantile(0.95),
			"p99":   h.Quantile(0.99),
		}
	}
	return out
}
