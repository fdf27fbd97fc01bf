// Package obs is the unified observability layer: a label-aware metrics
// registry with Prometheus text exposition, and the decision log, which
// projects the energy ledger's frame spans onto a structured per-decision
// event log (NDJSON).
//
// Design constraints, in order:
//
//  1. Byte-identical outputs. Observability must never change a report,
//     fault sweep, or NDJSON result row by one byte. Everything here is
//     therefore attached out-of-band: counters are process-local atomics
//     that no simulation code reads back, and the decision log is derived
//     from ledger spans the run already produced — it observes the
//     simulation, it never participates in it.
//  2. Lock-cheap hot path. Incrementing a counter is one atomic add.
//     Labeled instruments resolve their child once (callers cache the
//     returned *Counter) so per-frame code never touches a map or mutex.
//  3. Bounded memory. Label cardinality is capped per family (overflowing
//     children collapse into an "overflow" child).
//
// Nothing here is switched off: counters cost one atomic add each, and
// every run derives its decision log once, after its ledger closes. The
// one observability switch, greensrv -no-obs, turns off fleet tracing
// (package trace).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. One atomic add per Inc; safe
// for concurrent use from any number of goroutines.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (not atomic against concurrent Add; our gauges are either
// Set from one place or func-backed, so a CAS loop would buy nothing).
func (g *Gauge) Add(delta float64) { g.Set(g.Value() + delta) }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Instrument type names, as exposed in Prometheus TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// DefaultMaxCardinality bounds the distinct label-value children one family
// may hold; further With calls collapse into a single "overflow" child so a
// label drawn from unbounded input cannot grow memory without bound.
const DefaultMaxCardinality = 64

// child is one labeled sample of a family. fn, when set, makes the child
// func-backed: its value is read at scrape time (the bridge for subsystems
// that keep their own per-shard atomics, like the shard cluster). hist, when
// set, makes the child a per-label-set histogram (HistogramVec).
type child struct {
	values []string
	c      Counter
	g      Gauge
	fn     func() float64
	hist   *Histogram
}

// family is one named metric: its metadata plus either a single unlabeled
// instrument, a func-backed value, a histogram, or a set of labeled
// children.
type family struct {
	name   string
	help   string
	typ    string
	labels []string

	c    *Counter
	g    *Gauge
	fn   func() float64 // func-backed counter/gauge; nil otherwise
	hist *Histogram

	mu       sync.Mutex
	children map[string]*child
	maxCard  int
	overflow *child
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Instrument getters are idempotent: asking for the same
// name again returns the same instrument, so package-level adopters and
// tests can share the default registry safely. Re-registering a name with a
// different type or label set panics — that is a programming error, not
// input.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry. Package-level instruments across
// the repo register here; greensrv serves it at GET /metrics.
func Default() *Registry { return defaultRegistry }

// register resolves or creates a family, enforcing type/label agreement.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, maxCard: DefaultMaxCardinality}
	r.fams[name] = f
	return f
}

// Counter returns (creating on first use) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f.c == nil && f.fn == nil {
		f.c = new(Counter)
	}
	if f.c == nil {
		panic(fmt.Sprintf("obs: metric %q is func-backed", name))
	}
	return f.c
}

// Gauge returns (creating on first use) the unlabeled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f.g == nil && f.fn == nil {
		f.g = new(Gauge)
	}
	if f.g == nil {
		panic(fmt.Sprintf("obs: metric %q is func-backed", name))
	}
	return f.g
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for subsystems that already keep their own atomics
// (the fleet pool). Re-registering replaces fn (last wins), so a restarted
// server component can rebind its source.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeCounter, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.fn = fn
	f.c = nil
}

// GaugeFunc registers a gauge read from fn at scrape time. Re-registering
// replaces fn (last wins).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeGauge, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.fn = fn
	f.g = nil
}

// Histogram returns (creating on first use) a histogram over bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, typeHistogram, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f.hist == nil {
		f.hist = NewHistogram(bounds)
	}
	return f.hist
}

// AttachHistogram exposes an existing histogram under name — the adoption
// path for histograms owned elsewhere (the fleet's job-latency histogram).
// Re-attaching replaces the source (last wins).
func (r *Registry) AttachHistogram(name, help string, h *Histogram) {
	f := r.register(name, help, typeHistogram, nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.hist = h
}

// CounterVec is a counter family with labels. Resolve children once with
// With and cache the result: the child lookup takes the family mutex, the
// cached *Counter does not.
type CounterVec struct {
	f *family
}

// CounterVec returns (creating on first use) the labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label")
	}
	return &CounterVec{f: r.register(name, help, typeCounter, labels)}
}

// With resolves the child counter for the label values (one per declared
// label, positionally). Past the family's cardinality bound every new
// combination shares one "overflow" child.
func (v *CounterVec) With(values ...string) *Counter {
	return &v.f.childFor(values).c
}

// Func binds the child for the label values to fn, read at scrape time —
// the labeled analogue of CounterFunc. Re-binding replaces fn (last wins).
func (v *CounterVec) Func(fn func() float64, values ...string) {
	v.f.childFor(values).fn = fn
}

// GaugeVec is a gauge family with labels; resolve children once with With
// (or bind them to scrape-time funcs with Func) and cache the result.
type GaugeVec struct {
	f *family
}

// GaugeVec returns (creating on first use) the labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("obs: GaugeVec needs at least one label")
	}
	return &GaugeVec{f: r.register(name, help, typeGauge, labels)}
}

// With resolves the child gauge for the label values, subject to the same
// cardinality bound as CounterVec.With.
func (v *GaugeVec) With(values ...string) *Gauge {
	return &v.f.childFor(values).g
}

// Func binds the child for the label values to fn, read at scrape time —
// the labeled analogue of GaugeFunc. Re-binding replaces fn (last wins).
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	v.f.childFor(values).fn = fn
}

// HistogramVec is a histogram family with labels: one bucket ladder shared
// by every child, one histogram per label-value combination. Resolve
// children once with With and cache the result — the child lookup takes the
// family mutex, the cached *Histogram does not.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// HistogramVec returns (creating on first use) the labeled histogram family
// over the given ascending upper bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec needs at least one label")
	}
	f := r.register(name, help, typeHistogram, labels)
	return &HistogramVec{f: f, bounds: append([]float64(nil), bounds...)}
}

// With resolves the child histogram for the label values, subject to the
// same cardinality bound as CounterVec.With.
func (v *HistogramVec) With(values ...string) *Histogram {
	ch := v.f.childFor(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if ch.hist == nil {
		ch.hist = NewHistogram(v.bounds)
	}
	return ch.hist
}

// childFor resolves or creates the child for the label values. Past the
// family's cardinality bound every new combination shares one "overflow"
// child.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.children == nil {
		f.children = make(map[string]*child)
	}
	if ch, ok := f.children[key]; ok {
		return ch
	}
	if len(f.children) >= f.maxCard {
		if f.overflow == nil {
			over := make([]string, len(f.labels))
			for i := range over {
				over[i] = "overflow"
			}
			f.overflow = &child{values: over}
		}
		return f.overflow
	}
	ch := &child{values: append([]string(nil), values...)}
	f.children[key] = ch
	return ch
}

// sortedFamilies snapshots the registry's families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedChildren snapshots a family's labeled children in label-value order
// (the overflow child, if any, last).
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*child, 0, len(keys)+1)
	for _, k := range keys {
		out = append(out, f.children[k])
	}
	if f.overflow != nil {
		out = append(out, f.overflow)
	}
	return out
}
