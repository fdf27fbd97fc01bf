package trace

import (
	"context"
	"os"
	"sync"
	"time"
)

// SweepTrace is the one bounded span buffer. On the server it is a sweep's:
// the manager records admission, queue-wait and each job's root span, the
// cluster dispatch and re-home, and the nodes each job's execute span, a
// remote node adding those its worker shipped. On a greennode it is
// one traced job's, which the worker ships in the job's result frame. Past
// its size a span is counted, not stored. A nil SweepTrace records nothing,
// so call sites stay unconditional.
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
	t.Add([]Span{{
		ID:      NewSpanID(),
		Parent:  tc.Parent,
		Name:    name,
		Cat:     cat,
		Job:     tc.Job,
		Attempt: tc.Attempt,
		StartUS: start.UnixMicro(),
		DurUS:   int64(dur / time.Microsecond),
		Attrs:   attrs,
	}}, 0)
}

// Add appends fully formed spans (a job root whose id was minted up front,
// or a worker's shipped spans, already clock-aligned) and counts dropped,
// the spans their recorder dropped before they got here. Spans without a
// PID are stamped with this process's.
func (t *SweepTrace) Add(spans []Span, dropped int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropped += int64(dropped)
	for _, sp := range spans {
		if len(t.spans) >= t.budget {
			t.dropped++
			continue
		}
		if sp.PID == 0 {
			sp.PID = pid
		}
		t.spans = append(t.spans, sp)
	}
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
// node that run the job record into the buffer of the sweep (or, on a
// worker, of the job) that submitted it.
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
