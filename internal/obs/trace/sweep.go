package trace

import (
	"context"
	"os"
	"sync"
	"time"
)

// SweepTrace is the one bounded span buffer: a traced sweep's, on the
// server that runs it. The manager records admission, queue-wait and each
// job's root span, the cluster dispatch and re-home, and the nodes each
// job's execute span, a remote node drawing it from the result its worker
// ships. Past its size a span is counted, not stored. A nil SweepTrace
// records nothing, so call sites stay unconditional.
type SweepTrace struct {
	mu      sync.Mutex
	spans   []Span
	budget  int
	dropped int64
}

// NewSweepTrace builds a buffer that keeps at most spans spans.
func NewSweepTrace(spans int) *SweepTrace {
	return &SweepTrace{budget: spans}
}

// Record appends one completed span of the job tc names, stamped with its
// coordinates and this process's pid under a fresh span id.
func (t *SweepTrace) Record(tc Context, name, cat string, start time.Time, dur time.Duration, attrs map[string]string) {
	if t == nil {
		return
	}
	t.Add(Span{
		ID:      NewSpanID(),
		Parent:  tc.Parent,
		Name:    name,
		Cat:     cat,
		Job:     tc.Job,
		Attempt: tc.Attempt,
		StartUS: start.UnixMicro(),
		DurUS:   int64(dur / time.Microsecond),
		Attrs:   attrs,
	})
}

// Add appends one fully formed span: a job root whose id was minted up
// front, or the execute span a node draws from a job's result. A span
// without a PID is stamped with this process's.
func (t *SweepTrace) Add(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.budget {
		t.dropped++
		return
	}
	if sp.PID == 0 {
		sp.PID = pid
	}
	t.spans = append(t.spans, sp)
}

// Snapshot copies the kept spans and the cumulative drop count.
func (t *SweepTrace) Snapshot() ([]Span, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...), t.dropped
}

var pid = os.Getpid()

// A span buffer rides the context its job runs with, the way
// harness.WithStageWorkers carries the stage count: the cluster and the
// node that run the job record into the buffer of the sweep that submitted
// it.
type sweepKey struct{}

// WithSweep returns a context carrying the span buffer t.
func WithSweep(ctx context.Context, t *SweepTrace) context.Context {
	return context.WithValue(ctx, sweepKey{}, t)
}

// SweepIn returns the span buffer ctx carries, nil when it carries none.
func SweepIn(ctx context.Context) *SweepTrace {
	t, _ := ctx.Value(sweepKey{}).(*SweepTrace)
	return t
}
