// Package trace is the fleet-wide distributed tracing layer: a compact
// span context propagated with every traced job — through fleet.Job, over
// the shard wire protocol, into greennode worker processes — and the span
// records that flow back, so one sweep's full story (HTTP admission, queue
// wait, dispatch, re-home, retry, backoff, execution) merges into a single
// Chrome trace_event artifact regardless of how many processes ran it.
//
// Design constraints, matching the rest of internal/obs:
//
//  1. Out-of-band. Tracing must never change a report, NDJSON row, ledger,
//     or fault-sweep byte. Contexts ride in fields every output path
//     ignores; spans are carried next to results, never inside them.
//  2. Bounded memory. Each job records into a fixed span budget with an
//     explicit dropped-span counter, and each sweep's merged buffer is
//     bounded the same way — a pathological cell cannot balloon the server.
//  3. Clock honesty. Worker spans are stamped on the worker's clock and
//     aligned at merge time using the offset estimated during the
//     hello/welcome handshake (see EstimateOffsetUS); the exporter then
//     normalizes all timestamps to the sweep's earliest span.
package trace

import (
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Context is the propagated trace context: enough to correlate any span,
// log line, or wire frame back to one job of one sweep. It rides in
// fleet.Job's Trace field (stripped before WAL persistence and before
// shipping to workers that did not negotiate tracing).
type Context struct {
	Sweep string `json:"sweep"`
	Job   int    `json:"job"`
	// Attempt counts placements: 0 for the first home, +1 per re-home, so a
	// worker's spans say which incarnation of the job they belong to.
	Attempt int `json:"attempt,omitempty"`
	// Parent is the job's root span id, allocated server-side at enqueue;
	// worker-recorded spans parent onto it.
	Parent uint64 `json:"parent,omitempty"`
}

// Span is one recorded phase of a traced job. Timestamps are unix
// microseconds on the recording process's clock; the merge aligns them.
type Span struct {
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"par,omitempty"`
	Name   string `json:"name"`
	// Cat groups spans into phases: admission, queue, sched (dispatch and
	// re-home), execute, backoff, job.
	Cat     string `json:"cat,omitempty"`
	Job     int    `json:"job"`
	Attempt int    `json:"att,omitempty"`
	// Node names the executing node ("" for the server process). Remote
	// spans arrive with Node unset and are stamped by the RemoteNode that
	// knows the handshake identity.
	Node string `json:"node,omitempty"`
	// PID is the recording process's os.Getpid() — the trace exporter's
	// process row key, and the CI smoke's proof that spans really came from
	// distinct worker processes.
	PID     int               `json:"pid,omitempty"`
	StartUS int64             `json:"ts"`
	DurUS   int64             `json:"dur"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// spanSeq feeds process-locally unique span ids. The pid is mixed into the
// high bits so ids minted by different processes of one sweep cannot
// collide (parent links must stay unambiguous after the merge).
var spanSeq atomic.Uint64

// NewSpanID mints a span id unique across the fleet's processes.
func NewSpanID() uint64 {
	return uint64(os.Getpid()&0xffff)<<48 | (spanSeq.Add(1) & (1<<48 - 1))
}

// DefaultJobBudget bounds one job's recorded spans (a traced job is a
// handful of phases; retries multiply them, so leave generous headroom).
const DefaultJobBudget = 64

// JobRecorder accumulates one job's spans under a fixed budget. A nil
// recorder is valid and records nothing — call sites stay unconditional.
type JobRecorder struct {
	mu      sync.Mutex
	ctx     Context
	pid     int
	spans   []Span
	dropped int
}

// NewJobRecorder builds a recorder for the job's context that keeps at most
// DefaultJobBudget spans, the count a remote result's decoder accepts.
func NewJobRecorder(ctx Context) *JobRecorder {
	return &JobRecorder{ctx: ctx, pid: os.Getpid()}
}

// Context returns the recorder's trace context.
func (r *JobRecorder) Context() Context {
	if r == nil {
		return Context{}
	}
	return r.ctx
}

// Record appends one completed span, stamped with the job's coordinates and
// this process's pid. Past the budget the span is counted, not stored.
func (r *JobRecorder) Record(name, cat string, start time.Time, dur time.Duration, attrs map[string]string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= DefaultJobBudget {
		r.dropped++
		return
	}
	r.spans = append(r.spans, Span{
		ID:      NewSpanID(),
		Parent:  r.ctx.Parent,
		Name:    name,
		Cat:     cat,
		Job:     r.ctx.Job,
		Attempt: r.ctx.Attempt,
		PID:     r.pid,
		StartUS: start.UnixMicro(),
		DurUS:   int64(dur / time.Microsecond),
		Attrs:   attrs,
	})
}

// Drain returns the recorded spans and the dropped count, resetting the
// recorder. Safe on nil.
func (r *JobRecorder) Drain() ([]Span, int) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	spans, dropped := r.spans, r.dropped
	r.spans, r.dropped = nil, 0
	return spans, dropped
}

// EstimateOffsetUS estimates a remote clock's offset from ours, in
// microseconds, from one handshake exchange: t0 is our clock when the hello
// was sent, t1 our clock when the welcome arrived, and remoteUS the remote
// clock read between the two (the welcome's now_us field). Assuming the
// network delay is symmetric, the remote read happened at the midpoint:
//
//	offset = remoteUS − (t0+t1)/2,  local ≈ remote − offset
//
// The error is bounded by half the round trip — microseconds on a LAN,
// which is all the alignment a merged sweep trace needs to stay readable.
func EstimateOffsetUS(t0, t1 time.Time, remoteUS int64) int64 {
	lo, hi := t0.UnixMicro(), t1.UnixMicro()
	return remoteUS - (lo + (hi-lo)/2)
}

// AlignSpans rebases spans recorded on a remote clock into the local
// timeline by subtracting the handshake-estimated offset, and stamps the
// node identity the transport knows. Pids recorded worker-side pass
// through untouched.
func AlignSpans(spans []Span, offsetUS int64, node string) {
	for i := range spans {
		spans[i].StartUS -= offsetUS
		if spans[i].Node == "" {
			spans[i].Node = node
		}
	}
}
