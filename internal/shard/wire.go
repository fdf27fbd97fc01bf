package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// errBadRun fails a result whose run does not decode: the job gets this error
// instead of a partial run.
var errBadRun = errors.New("shard: malformed run")

// errTooManySpans fails a result that carries more worker trace spans than a
// worker records for one job (trace.DefaultJobBudget).
var errTooManySpans = errors.New("shard: too many trace spans")

// wireResult is fleet.Result in JSON-serializable form. The job itself is
// not carried: the client keyed the call by frame id and reattaches its own
// copy, so the wire never round-trips what both sides already know.
type wireResult struct {
	Run       *wireRun `json:"run,omitempty"`
	Err       string   `json:"err,omitempty"`
	Worker    int      `json:"worker"`
	LatencyNS int64    `json:"latency_ns"`
	Attempts  int      `json:"attempts,omitempty"`
	// History is the failed attempts' errors, a JSON array of strings kept
	// raw until decodeResult has checked that every element is a string.
	History     json.RawMessage `json:"history,omitempty"`
	Quarantined bool            `json:"quarantined,omitempty"`
	// Spans piggybacks the worker's trace spans for a traced job (on the
	// worker's clock; the client aligns them) as a JSON array, with the
	// worker-side dropped-span count. Empty for untraced jobs, so the wire
	// cost is zero when tracing is off. It stays raw until decodeResult has
	// counted its elements.
	Spans     json.RawMessage `json:"spans,omitempty"`
	SpanDrops int             `json:"span_drops,omitempty"`
}

// wireResidency is one entry of the per-configuration residency map,
// flattened because acmp.Config is a struct key JSON cannot express.
type wireResidency struct {
	Config int          `json:"config"` // acmp config index
	Dur    sim.Duration `json:"dur_us"`
}

// wireRun carries every harness.Run field greensrv's result, event, and
// trace endpoints read — the ResultRow scalars, and the ledger spans with
// their frame decisions and the config marks as one binary Timeline block
// (ledger.AppendTimeline) — plus the residency histogram. The decision log
// is a projection of the spans, so it is not shipped: Decided says the node
// recorded one (-no-obs nodes do not). The receiving side keeps the block
// as it arrived and derives the log from it on request. FrameResults (the
// raw per-frame timeline) is deliberately not shipped: nothing behind the
// fleet.Node seam reads it, and it dominates payload size.
type wireRun struct {
	Kind harness.Kind `json:"kind"`

	Energy   acmp.Joules      `json:"energy_j"`
	Frames   int              `json:"frames"`
	Switches acmp.SwitchStats `json:"switches"`
	// Residency is a JSON array of wireResidency, kept raw until decodeRun
	// has counted its elements.
	Residency  json.RawMessage `json:"residency,omitempty"`
	ViolationI float64         `json:"violation_i"`
	ViolationU float64         `json:"violation_u"`

	TotalEnergy acmp.Joules  `json:"total_energy_j"`
	LoadLatency sim.Duration `json:"load_latency_us"`

	FrameEnergy acmp.Joules `json:"frame_energy_j"`
	IdleEnergy  acmp.Joules `json:"idle_energy_j"`
	EventEnergy acmp.Joules `json:"event_energy_j"`
	StageEnergy acmp.Joules `json:"stage_energy_j,omitempty"`
	// Timeline is ledger.AppendTimeline's block of the run's spans and
	// config marks, absent when both are empty; JSON carries it as base64.
	Timeline []byte `json:"timeline,omitempty"`
	Decided  bool   `json:"decided,omitempty"`

	ThermalTrips  int         `json:"thermal_trips,omitempty"`
	DVFSDenied    int         `json:"dvfs_denied,omitempty"`
	DVFSDelayed   int         `json:"dvfs_delayed,omitempty"`
	DAQSamples    int         `json:"daq_samples,omitempty"`
	DAQDropped    int         `json:"daq_dropped,omitempty"`
	MeteredEnergy acmp.Joules `json:"metered_energy_j,omitempty"`
	CapClamps     int         `json:"cap_clamps,omitempty"`
	Degradations  int         `json:"degradations,omitempty"`
	Recoveries    int         `json:"recoveries,omitempty"`
}

// encodeResult projects a fleet.Result onto the wire.
func encodeResult(r fleet.Result) *wireResult {
	w := &wireResult{
		Worker:      r.Worker,
		LatencyNS:   int64(r.Latency),
		Attempts:    r.Attempts,
		Quarantined: r.Quarantined,
		SpanDrops:   r.SpanDrops,
	}
	// Strings, and trace.Spans of plain fields and a string map, always
	// encode.
	if len(r.History) > 0 {
		w.History, _ = json.Marshal(r.History)
	}
	if len(r.Spans) > 0 {
		w.Spans, _ = json.Marshal(r.Spans)
	}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	if r.Run != nil {
		w.Run = encodeRun(r.Run)
	}
	return w
}

// decodeResult reconstructs a fleet.Result, reattaching the client's copy
// of the job. The run arrives without its timeline: the result carries the
// validated block in Timeline. A run or attempt history that does not
// decode fails the result with an error wrapping errBadRun, and more worker
// trace spans than a job records fail it with errTooManySpans; either way
// the result carries no run.
func decodeResult(w *wireResult, job fleet.Job) fleet.Result {
	r := fleet.Result{
		Job:         job,
		Worker:      w.Worker,
		Latency:     time.Duration(w.LatencyNS),
		Attempts:    w.Attempts,
		Quarantined: w.Quarantined,
		SpanDrops:   w.SpanDrops,
	}
	if w.Err != "" {
		r.Err = errors.New(w.Err)
	}
	if len(w.History) > 0 {
		// Elements are type-checked before any is decoded: encoding/json
		// would allocate an error for every one of the wrong type.
		if _, strs := countElements(w.History); !strs || json.Unmarshal(w.History, &r.History) != nil {
			r.Err = fmt.Errorf("%w: attempt history is not an array of strings", errBadRun)
			return r
		}
	}
	var err error
	if r.Spans, err = decodeSpans(w.Spans); err != nil {
		r.Err = err
		return r
	}
	if w.Run != nil {
		if r.Run, err = decodeRun(w.Run, job); err != nil {
			r.Err = err
			return r
		}
		r.Timeline, r.Decided = w.Run.Timeline, w.Run.Decided
	}
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

func encodeRun(run *harness.Run) *wireRun {
	w := &wireRun{
		Kind:          run.Kind,
		Energy:        run.Energy,
		Frames:        run.Frames,
		Switches:      run.Switches,
		ViolationI:    run.ViolationI,
		ViolationU:    run.ViolationU,
		TotalEnergy:   run.TotalEnergy,
		LoadLatency:   run.LoadLatency,
		FrameEnergy:   run.FrameEnergy,
		IdleEnergy:    run.IdleEnergy,
		EventEnergy:   run.EventEnergy,
		StageEnergy:   run.StageEnergy,
		Decided:       run.Decisions != nil,
		ThermalTrips:  run.ThermalTrips,
		DVFSDenied:    run.DVFSDenied,
		DVFSDelayed:   run.DVFSDelayed,
		DAQSamples:    run.DAQSamples,
		DAQDropped:    run.DAQDropped,
		MeteredEnergy: run.MeteredEnergy,
		CapClamps:     run.CapClamps,
		Degradations:  run.Degradations,
		Recoveries:    run.Recoveries,
	}
	if len(run.Spans) > 0 || len(run.ConfigMarks) > 0 {
		w.Timeline = ledger.AppendTimeline(nil, run.Spans, run.ConfigMarks)
	}
	// Residency flattens to (config index, duration) pairs sorted by index,
	// so the wire form of one run is itself deterministic.
	var res []wireResidency
	for cfg, d := range run.Residency {
		res = append(res, wireResidency{Config: cfg.Index(), Dur: d})
	}
	sort.Slice(res, func(i, j int) bool { return res[i].Config < res[j].Config })
	if len(res) > 0 {
		w.Residency, _ = json.Marshal(res) // plain ints always encode
	}
	return w
}

// decodeRun rebuilds a run from everything but its timeline, which it only
// checks (ledger.CheckTimeline): the block must decode.
func decodeRun(w *wireRun, job fleet.Job) (*harness.Run, error) {
	run := &harness.Run{
		Kind:          w.Kind,
		Energy:        w.Energy,
		Frames:        w.Frames,
		Switches:      w.Switches,
		ViolationI:    w.ViolationI,
		ViolationU:    w.ViolationU,
		TotalEnergy:   w.TotalEnergy,
		LoadLatency:   w.LoadLatency,
		FrameEnergy:   w.FrameEnergy,
		IdleEnergy:    w.IdleEnergy,
		EventEnergy:   w.EventEnergy,
		StageEnergy:   w.StageEnergy,
		ThermalTrips:  w.ThermalTrips,
		DVFSDenied:    w.DVFSDenied,
		DVFSDelayed:   w.DVFSDelayed,
		DAQSamples:    w.DAQSamples,
		DAQDropped:    w.DAQDropped,
		MeteredEnergy: w.MeteredEnergy,
		CapClamps:     w.CapClamps,
		Degradations:  w.Degradations,
		Recoveries:    w.Recoveries,
	}
	if len(w.Residency) > 0 {
		// One entry per configuration at most: counted before decoding, since
		// encoding/json would allocate an error for every wrong-typed one.
		if n, _ := countElements(w.Residency); n > acmp.NumConfigs() {
			return nil, fmt.Errorf("%w: %d residency entries for %d configs", errBadRun, n, acmp.NumConfigs())
		}
		var res []wireResidency
		if err := json.Unmarshal(w.Residency, &res); err != nil {
			return nil, fmt.Errorf("%w: residency: %v", errBadRun, err)
		}
		run.Residency = make(map[acmp.Config]sim.Duration, len(res))
		for _, r := range res {
			if r.Config < 0 || r.Config >= acmp.NumConfigs() {
				return nil, fmt.Errorf("%w: residency config index %d out of range", errBadRun, r.Config)
			}
			run.Residency[acmp.ConfigAt(r.Config)] = r.Dur
		}
	}
	if len(w.Timeline) > 0 {
		if err := ledger.CheckTimeline(w.Timeline); err != nil {
			return nil, fmt.Errorf("%w: %w", errBadRun, err)
		}
	}
	if app, ok := apps.ByName(job.App); ok {
		run.App = app
	}
	return run, nil
}
