package shard

import (
	"errors"
	"fmt"
	"time"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/ledger"
)

// errBadRun fails a result that does not decode, or that carries neither an
// error nor a row: the job gets this error instead of a partial row.
var errBadRun = errors.New("shard: malformed run")

// wireResult is a finished job on the wire: the row the worker's fleet
// projected for it (fleet.RowOf), which carries the run's columns and the
// error, plus what a row leaves out. The job itself is not
// carried: the client keyed the call by frame id and reattaches its own
// copy, so the wire never round-trips what both sides already know.
//
// A row field present in the frame allocates the embedded row, and a worker
// always ships one, so a nil row means the result carries neither an error
// nor a run.
type wireResult struct {
	*fleet.ResultRow
	Worker int `json:"worker"`
	// LatencyNS is how long the worker's node ran the job; the client
	// places that run inside the job's round trip, on its own clock.
	LatencyNS int64 `json:"latency_ns"`
	// Timeline is ledger.AppendTimeline's block of the run's spans, with
	// their frame decisions, and config marks, absent when both are empty;
	// JSON carries it as base64. The receiving side keeps the block as it
	// arrived and derives the decision log from it on request.
	Timeline []byte `json:"timeline,omitempty"`
}

// encodeResult puts a fleet.Result on the wire as the worker's LocalNode
// projected it: its row, through fleet.RowOf, its timeline block as it is,
// and how long it ran. The run's raw per-frame results never reach the
// wire: the node keeps only these two projections of a run.
func encodeResult(r fleet.Result) *wireResult {
	row := fleet.RowOf(0, r)
	return &wireResult{ResultRow: &row, Worker: r.Worker, LatencyNS: int64(r.Latency), Timeline: r.Timeline}
}

// decodeResult reconstructs a fleet.Result, reattaching the client's copy
// of the job, without a Start (RemoteNode.Run places it): a failed result carries
// the row's error, a finished one the row and the timeline block, which
// decodeResult only checks (ledger.CheckTimeline). A result that has no row
// (w is nil when the frame carried no result) or whose timeline does not
// decode fails with an error wrapping errBadRun and carries no row.
func decodeResult(w *wireResult, job fleet.Job) fleet.Result {
	if w == nil {
		w = new(wireResult)
	}
	r := fleet.Result{Job: job, Worker: w.Worker, Latency: time.Duration(w.LatencyNS)}
	row := w.ResultRow
	if row == nil {
		r.Err = fmt.Errorf("%w: a result with neither an error nor a row", errBadRun)
		return r
	}
	if row.Error != "" {
		r.Err = errors.New(row.Error)
		return r
	}
	if len(w.Timeline) > 0 {
		if err := ledger.CheckTimeline(w.Timeline); err != nil {
			r.Err = fmt.Errorf("%w: %w", errBadRun, err)
			return r
		}
	}
	r.Row, r.Timeline = row, w.Timeline
	return r
}
