package trace

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wattwiseweb/greenweb/internal/obs"
)

// SweepTrace is one sweep's merged span buffer on the server: server-side
// phase spans (admission, queue-wait, dispatch, re-home, the job root) are
// recorded directly; worker spans are folded in as results arrive. The
// buffer is bounded; overflow increments the drop counter instead of
// growing.
type SweepTrace struct {
	sweep string

	mu      sync.Mutex
	spans   []Span
	budget  int
	dropped int64
}

// Sweep reports the sweep id the trace belongs to.
func (t *SweepTrace) Sweep() string { return t.sweep }

// NewID mints a span id (for pre-allocating a root id that a later
// RecordSpan will use).
func (t *SweepTrace) NewID() uint64 { return NewSpanID() }

// Record appends one completed server-side span and returns its id.
func (t *SweepTrace) Record(job int, parent uint64, name, cat string, start time.Time, dur time.Duration, attrs map[string]string) uint64 {
	sp := Span{
		ID:      NewSpanID(),
		Parent:  parent,
		Name:    name,
		Cat:     cat,
		Job:     job,
		PID:     pid,
		StartUS: start.UnixMicro(),
		DurUS:   int64(dur / time.Microsecond),
		Attrs:   attrs,
	}
	t.RecordSpan(sp)
	return sp.ID
}

// RecordSpan appends a fully formed span (the caller minted its id). Spans
// without a PID are stamped with this process's.
func (t *SweepTrace) RecordSpan(sp Span) {
	if sp.PID == 0 {
		sp.PID = pid
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.budget {
		t.dropped++
		droppedTotal.Add(1)
		return
	}
	t.spans = append(t.spans, sp)
	recordedTotal.Add(1)
}

// AddSpans folds worker-shipped spans (already clock-aligned by the
// transport) into the sweep, plus the worker-side drop count.
func (t *SweepTrace) AddSpans(spans []Span, dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropped += int64(dropped)
	for _, sp := range spans {
		if len(t.spans) >= t.budget {
			t.dropped++
			droppedTotal.Add(1)
			continue
		}
		t.spans = append(t.spans, sp)
		recordedTotal.Add(1)
	}
	if dropped > 0 {
		droppedTotal.Add(int64(dropped))
	}
}

// Snapshot copies the merged spans and the cumulative drop count.
func (t *SweepTrace) Snapshot() ([]Span, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...), t.dropped
}

var pid = os.Getpid()

// Collector is the process-wide registry of sweep traces, keyed by sweep
// id. Bounded: past maxSweeps the oldest registration is evicted, so a
// long-lived server's trace memory cannot grow without limit (sweep results
// themselves live in the fleet registry; this is only the span overlay).
type Collector struct {
	mu     sync.Mutex
	sweeps map[string]*SweepTrace
	order  []string
	max    int
}

// maxSweeps bounds how many sweeps' traces a process retains.
const maxSweeps = 1024

// perJobSpanBudget scales a sweep's buffer: enough for every phase of every
// job with retry headroom, while keeping one sweep's trace a few MB at most.
const perJobSpanBudget = 96

var defaultCollector = NewCollector()

// NewCollector builds an isolated collector. Production uses Default() (one
// process, one manager); tests inject fresh collectors so managers created
// in the same process cannot collide on their per-manager sequential sweep
// ids. The span counters stay process-global either way.
func NewCollector() *Collector {
	return &Collector{sweeps: map[string]*SweepTrace{}, max: maxSweeps}
}

// Counters surfaced on obs.Default: how many spans the process has merged
// and how many it has dropped to budget pressure.
var (
	recordedTotal atomic.Int64
	droppedTotal  atomic.Int64
	registerOnce  sync.Once
)

// Default returns the process-wide collector, registering its counters on
// obs.Default on first use.
func Default() *Collector {
	registerOnce.Do(func() {
		obs.Default().CounterFunc("greenweb_trace_spans_total",
			"Trace spans recorded or merged by this process",
			func() float64 { return float64(recordedTotal.Load()) })
		obs.Default().CounterFunc("greenweb_trace_span_drops_total",
			"Trace spans dropped to per-job or per-sweep budget pressure",
			func() float64 { return float64(droppedTotal.Load()) })
	})
	return defaultCollector
}

// Register creates (or returns) the sweep's trace buffer, sized from its
// job count. Evicts the oldest sweep past the collector's bound.
func (c *Collector) Register(sweep string, jobs int) *SweepTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.sweeps[sweep]; ok {
		return t
	}
	budget := perJobSpanBudget * jobs
	if budget < 512 {
		budget = 512
	}
	t := &SweepTrace{sweep: sweep, budget: budget}
	c.sweeps[sweep] = t
	c.order = append(c.order, sweep)
	for len(c.order) > c.max {
		delete(c.sweeps, c.order[0])
		c.order = c.order[1:]
	}
	return t
}

// Get resolves a sweep's trace buffer.
func (c *Collector) Get(sweep string) (*SweepTrace, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.sweeps[sweep]
	return t, ok
}
