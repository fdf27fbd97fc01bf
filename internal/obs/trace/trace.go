// Package trace is the fleet-wide distributed tracing layer: a compact
// span context propagated with every traced job — through fleet.Job, over
// the shard wire protocol, into greennode worker processes — and the span
// records that flow back, so one sweep's full story (HTTP admission, queue
// wait, dispatch, re-home, execution) merges into a single
// Chrome trace_event artifact regardless of how many processes ran it.
//
// Design constraints, matching the rest of internal/obs:
//
//  1. Out-of-band. Tracing must never change a report, NDJSON row, ledger,
//     or fault-sweep byte. Contexts ride in fields every output path
//     ignores; spans are carried next to results, never inside them.
//  2. Bounded memory. Every span lands in a SweepTrace, a buffer of fixed
//     size with an explicit dropped-span counter: a sweep's on the server,
//     one job's on a worker — a pathological cell cannot balloon either.
//  3. Clock honesty. Worker spans are stamped on the worker's clock and
//     aligned at merge time using the offset estimated during the
//     hello/welcome handshake (see EstimateOffsetUS); the exporter then
//     normalizes all timestamps to the sweep's earliest span.
package trace

import (
	"os"
	"sync/atomic"
	"time"
)

// Context is the propagated trace context: enough to correlate any span,
// log line, or wire frame back to one job of one sweep. It rides in
// fleet.Job's Trace field, over the wire to remote workers too; the WAL
// never sees it, since the store persists result rows only.
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
	// re-home), execute, job.
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

// DefaultJobBudget bounds one traced job's spans on a worker: the buffer a
// greennode records each traced job into (a worker records one execute
// span per job; the rest is headroom), and so the span count a remote
// result's decoder accepts.
const DefaultJobBudget = 64

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
