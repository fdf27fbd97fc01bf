// Package trace is the fleet-wide distributed tracing layer: a compact
// span context stamped on every traced job, and the span records its
// server process draws from the job's life, so one sweep's full story (HTTP
// admission, queue wait, dispatch, re-home, execution) merges into a single
// Chrome trace_event artifact regardless of how many processes ran it.
//
// Design constraints, matching the rest of internal/obs:
//
//  1. Out-of-band. Tracing must never change a report, NDJSON row, ledger,
//     or fault-sweep byte. Contexts ride in fields every output path
//     ignores; spans are carried next to results, never inside them.
//  2. Bounded memory. Every span lands in a sweep's SweepTrace, a buffer of
//     fixed size with an explicit dropped-span counter, so a pathological
//     sweep cannot balloon it.
//  3. Clock honesty. One process records every span, on its own clock. A
//     job a worker process ran is drawn as long as its result says it ran,
//     inside the job's round trip to that worker; the exporter then
//     normalizes all timestamps to the sweep's earliest span.
package trace

import (
	"os"
	"sync/atomic"
)

// Context is a traced job's trace context: enough to correlate any span
// back to one job of its sweep, whose span buffer the job's context
// carries (SweepIn). It rides in fleet.Job's Trace field, which
// neither the wire to remote workers nor the WAL carries.
type Context struct {
	Job int `json:"job"`
	// Attempt counts placements: 0 for the first home, +1 per re-home, so a
	// node's spans say which incarnation of the job they belong to.
	Attempt int `json:"attempt,omitempty"`
	// Parent is the job's root span id, allocated at enqueue; the job's
	// scheduling and execute spans parent onto it.
	Parent uint64 `json:"parent,omitempty"`
}

// Span is one recorded phase of a traced job. Timestamps are unix
// microseconds on the recording process's clock.
type Span struct {
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"par,omitempty"`
	Name   string `json:"name"`
	// Cat groups spans into phases: admission, queue, sched (dispatch and
	// re-home), execute, job.
	Cat     string `json:"cat,omitempty"`
	Job     int    `json:"job"`
	Attempt int    `json:"att,omitempty"`
	// Node names the executing worker process ("" for the server process),
	// as its handshake advertised it.
	Node string `json:"node,omitempty"`
	// PID is the os.Getpid() of the process the span happened in: the
	// trace exporter's process row key, and the CI smoke's proof that jobs
	// really ran in distinct worker processes.
	PID     int               `json:"pid,omitempty"`
	StartUS int64             `json:"ts"`
	DurUS   int64             `json:"dur"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// spanSeq feeds process-locally unique span ids. One process records all
// of a sweep's spans (greensrv; bench records its own run's), so nothing
// merges ids minted elsewhere; the pid in the high bits only keeps two
// processes' trace files from sharing an id.
var spanSeq atomic.Uint64

// NewSpanID mints a span id unique within the process.
func NewSpanID() uint64 {
	return uint64(os.Getpid()&0xffff)<<48 | (spanSeq.Add(1) & (1<<48 - 1))
}
