package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// errBadRun fails a result that does not decode, or that carries neither an
// error nor a row: the job gets this error instead of a partial row.
var errBadRun = errors.New("shard: malformed run")

// errTooManySpans fails a result that carries more worker trace spans than a
// worker records for one job (trace.DefaultJobBudget).
var errTooManySpans = errors.New("shard: too many trace spans")

// wireResult is a finished job on the wire: the row the worker's fleet
// projected for it (fleet.RowOf), which carries the run's columns and the
// error and retry fields, plus what a row leaves out. The job itself is not
// carried: the client keyed the call by frame id and reattaches its own
// copy, so the wire never round-trips what both sides already know.
//
// A row field present in the frame allocates the embedded row, and a worker
// always ships one, so a nil row means the result carries neither an error
// nor a run.
type wireResult struct {
	*fleet.ResultRow
	// AttemptErrors shadows the row's: a JSON array of strings kept raw until
	// decodeResult has checked that every element is a string.
	AttemptErrors json.RawMessage `json:"attempt_errors,omitempty"`
	Worker        int             `json:"worker"`
	LatencyNS     int64           `json:"latency_ns"`
	// Timeline is ledger.AppendTimeline's block of the run's spans, with
	// their frame decisions, and config marks, absent when both are empty;
	// JSON carries it as base64. The receiving side keeps the block as it
	// arrived and derives the decision log from it on request.
	Timeline []byte `json:"timeline,omitempty"`
	// Spans piggybacks the worker's trace spans for a traced job (on the
	// worker's clock; the client aligns them) as a JSON array, with the
	// worker-side dropped-span count. Empty for untraced jobs, so the wire
	// cost is zero when tracing is off. It stays raw until decodeResult has
	// counted its elements.
	Spans     json.RawMessage `json:"spans,omitempty"`
	SpanDrops int             `json:"span_drops,omitempty"`
}

// encodeResult puts a fleet.Result on the wire as the worker's LocalNode
// projected it: its row, through fleet.RowOf, and its timeline block as it
// is. The run's raw per-frame results never reach the wire: the node keeps
// only these two projections of a run.
func encodeResult(r fleet.Result) *wireResult {
	row := fleet.RowOf(0, r)
	w := &wireResult{
		ResultRow: &row,
		Worker:    r.Worker,
		LatencyNS: int64(r.Latency),
		Timeline:  r.Timeline,
		SpanDrops: r.SpanDrops,
	}
	// Strings, and trace.Spans of plain fields and a string map, always
	// encode.
	if len(row.AttemptErrors) > 0 {
		w.AttemptErrors, _ = json.Marshal(row.AttemptErrors)
	}
	if len(r.Spans) > 0 {
		w.Spans, _ = json.Marshal(r.Spans)
	}
	return w
}

// decodeResult reconstructs a fleet.Result, reattaching the client's copy
// of the job: a failed result carries the row's error, a finished one the
// row and the timeline block, which decodeResult only checks
// (ledger.CheckTimeline). A result that has no row (w is nil when the frame
// carried no result) or whose attempt errors or timeline do not decode
// fails with an error wrapping errBadRun, and more worker trace spans than
// a job records fail it with errTooManySpans; either way the result carries
// no row.
func decodeResult(w *wireResult, job fleet.Job) fleet.Result {
	if w == nil {
		w = new(wireResult)
	}
	r := fleet.Result{
		Job:       job,
		Worker:    w.Worker,
		Latency:   time.Duration(w.LatencyNS),
		SpanDrops: w.SpanDrops,
	}
	row := w.ResultRow
	if row == nil {
		r.Err = fmt.Errorf("%w: a result with neither an error nor a row", errBadRun)
		return r
	}
	r.Attempts, r.Quarantined = row.Attempts, row.Quarantined
	if len(w.AttemptErrors) > 0 {
		// Elements are type-checked before any is decoded: encoding/json
		// would allocate an error for every one of the wrong type.
		if _, strs := countElements(w.AttemptErrors); !strs || json.Unmarshal(w.AttemptErrors, &r.History) != nil {
			r.Err = fmt.Errorf("%w: attempt errors are not an array of strings", errBadRun)
			return r
		}
	}
	var err error
	if r.Spans, err = decodeSpans(w.Spans); err != nil {
		r.Err = err
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

// decodeSpans decodes a result's worker trace spans. It counts the array's
// elements first and refuses more than trace.DefaultJobBudget before
// decoding any: a worker's recorder never ships more, and each 3-byte "{},"
// would otherwise cost a whole trace.Span.
func decodeSpans(raw json.RawMessage) ([]trace.Span, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	if n, _ := countElements(raw); n > trace.DefaultJobBudget {
		return nil, fmt.Errorf("%w: %d, more than %d", errTooManySpans, n, trace.DefaultJobBudget)
	}
	var spans []trace.Span
	if err := json.Unmarshal(raw, &spans); err != nil {
		return nil, fmt.Errorf("%w: trace spans: %v", errBadRun, err)
	}
	return spans, nil
}

// countElements counts the elements of raw, a JSON array, and reports
// whether every one is a string, without decoding or allocating anything.
// encoding/json validated raw with the frame, so each element starts at the
// first byte after the array's '[' or a comma at depth one outside a string.
func countElements(raw json.RawMessage) (n int, strs bool) {
	depth, start, inString, escaped := 0, false, false, false
	strs = true
	for _, c := range raw {
		if inString {
			switch {
			case escaped:
				escaped = false
			case c == '\\':
				escaped = true
			case c == '"':
				inString = false
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			continue
		}
		if start && c != ']' {
			n++
			strs = strs && c == '"'
		}
		start = false
		switch c {
		case '"':
			inString = true
		case '[', '{':
			depth++
			start = depth == 1 && c == '['
		case ']', '}':
			depth--
		case ',':
			start = depth == 1
		}
	}
	return n, strs
}
