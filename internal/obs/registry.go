// Package obs is the unified observability layer: a registry that renders
// state its owner already keeps in Prometheus text exposition, and the
// decision log, which projects the energy ledger's frame spans onto a
// structured per-decision event log (NDJSON).
//
// Design constraints, in order:
//
//  1. Byte-identical outputs. Observability must never change a report,
//     fault sweep, or NDJSON result row by one byte. Everything here is
//     therefore attached out-of-band: the registry only reads, at scrape
//     time, counters its owner (a cluster, a store, a worker) keeps for its
//     own work, and the decision log is derived from ledger spans the run
//     already produced — it observes the simulation, it never participates
//     in it. The simulation keeps no metrics of its own: a run's facts are
//     its result row and its decision log.
//  2. One registry per owner. Each server builds its own registry and
//     renders exactly it; there is no process-wide registry, so clusters
//     in one process (tests) never share or shadow each other's families.
//  3. One sample per child. A labeled family holds one func-backed child
//     per label-value set its owner binds (one per configured node), so its
//     size is the owner's, and every child renders as its own sample.
//
// Nothing here is switched off: every run derives its decision log once,
// after its ledger closes. The one observability switch, greensrv -no-obs,
// turns off fleet tracing (package trace).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Instrument type names, as exposed in Prometheus TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// child is one labeled sample of a family, read from fn at scrape time.
type child struct {
	values []string
	fn     func() float64
}

// family is one named metric: its metadata plus either an unlabeled
// func-backed value, an attached histogram, or a set of labeled func-backed
// children.
type family struct {
	name   string
	help   string
	typ    string
	labels []string

	mu       sync.Mutex
	fn       func() float64 // unlabeled counter/gauge; nil otherwise
	hist     *Histogram
	children map[string]*child
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registering a name again returns the same family, so
// a component can rebind its sources; re-registering a name with a
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
	f := &family{name: name, help: help, typ: typ, labels: labels}
	r.fams[name] = f
	return f
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for subsystems that already keep their own atomics
// (the fleet pool). Re-registering replaces fn (last wins), so a restarted
// server component can rebind its source.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, typeCounter, nil).setFn(fn)
}

// GaugeFunc registers a gauge read from fn at scrape time. Re-registering
// replaces fn (last wins).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, typeGauge, nil).setFn(fn)
}

func (f *family) setFn(fn func() float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fn = fn
}

// AttachHistogram exposes an existing histogram under name — the adoption
// path for histograms owned elsewhere (the fleet's job-latency histogram).
// Re-attaching replaces the source (last wins).
func (r *Registry) AttachHistogram(name, help string, h *Histogram) {
	f := r.register(name, help, typeHistogram, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hist = h
}

// Vec is a labeled counter or gauge family whose children each read their
// value from a func at scrape time.
type Vec struct {
	f *family
}

// CounterVec returns (creating on first use) the labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *Vec {
	return r.vec(name, help, typeCounter, labels)
}

// GaugeVec returns (creating on first use) the labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *Vec {
	return r.vec(name, help, typeGauge, labels)
}

func (r *Registry) vec(name, help, typ string, labels []string) *Vec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: labeled metric %q needs at least one label", name))
	}
	return &Vec{f: r.register(name, help, typ, labels)}
}

// Func binds the child for the label values (one per declared label,
// positionally) to fn, read at scrape time. Re-binding replaces fn (last
// wins).
func (v *Vec) Func(fn func() float64, values ...string) {
	f := v.f
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
	f.children[key] = &child{values: append([]string(nil), values...), fn: fn}
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

// sources snapshots a family's value sources: its unlabeled func, its
// histogram, and its labeled children in label-value order. Rendering
// calls the funcs after the family lock is released.
func (f *family) sources() (fn func() float64, hist *Histogram, children []*child) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children = make([]*child, 0, len(keys))
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	return f.fn, f.hist, children
}
