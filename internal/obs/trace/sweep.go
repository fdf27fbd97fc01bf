package trace

import (
	"context"
	"os"
	"sync"
	"time"

	"github.com/wattwiseweb/greenweb/internal/obs"
)

// SweepTrace is one sweep's merged span buffer on the server: server-side
// phase spans (admission, queue-wait, dispatch, re-home, the job root) are
// recorded directly; worker spans are folded in as results arrive. The
// buffer is bounded; overflow increments the drop counter instead of
// growing.
type SweepTrace struct {
	mu      sync.Mutex
	spans   []Span
	budget  int
	dropped int64
}

// perJobSpanBudget scales a sweep's buffer: enough for every phase of every
// job with retry headroom, while keeping one sweep's trace a few MB at most.
const perJobSpanBudget = 96

// NewSweepTrace builds the span buffer of a sweep of the given job count.
func NewSweepTrace(jobs int) *SweepTrace {
	return &SweepTrace{budget: max(perJobSpanBudget*jobs, 512)}
}

// Counters surfaced on obs.Default: how many spans the process has merged
// and how many it has dropped to budget pressure.
var (
	spansTotal = obs.Default().Counter("greenweb_trace_spans_total",
		"Trace spans recorded or merged by this process")
	dropsTotal = obs.Default().Counter("greenweb_trace_span_drops_total",
		"Trace spans dropped to per-job or per-sweep budget pressure")
)

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
		dropsTotal.Inc()
		return
	}
	t.spans = append(t.spans, sp)
	spansTotal.Inc()
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
			dropsTotal.Inc()
			continue
		}
		t.spans = append(t.spans, sp)
		spansTotal.Inc()
	}
	dropsTotal.Add(int64(dropped))
}

// Snapshot copies the merged spans and the cumulative drop count.
func (t *SweepTrace) Snapshot() ([]Span, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...), t.dropped
}

var pid = os.Getpid()

// A sweep's trace rides the context its jobs are started with, the way
// harness.WithStageWorkers carries the stage count, so the cluster records
// its scheduling spans (dispatch, re-home) into the buffer of the sweep
// that submitted each job.
type sweepKey struct{}

// WithSweep returns a context carrying the sweep trace t.
func WithSweep(ctx context.Context, t *SweepTrace) context.Context {
	return context.WithValue(ctx, sweepKey{}, t)
}

// SweepIn returns the sweep trace ctx carries, nil when it carries none.
func SweepIn(ctx context.Context) *SweepTrace {
	t, _ := ctx.Value(sweepKey{}).(*SweepTrace)
	return t
}
