package shard

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// wireResult is fleet.Result in JSON-serializable form. The job itself is
// not carried: the client keyed the call by frame id and reattaches its own
// copy, so the wire never round-trips what both sides already know.
type wireResult struct {
	Run         *wireRun `json:"run,omitempty"`
	Err         string   `json:"err,omitempty"`
	Worker      int      `json:"worker"`
	LatencyNS   int64    `json:"latency_ns"`
	Attempts    int      `json:"attempts,omitempty"`
	History     []string `json:"history,omitempty"`
	Quarantined bool     `json:"quarantined,omitempty"`
	// Spans piggybacks the worker's trace spans for a traced job (on the
	// worker's clock; the client aligns them), with the worker-side
	// dropped-span count. Empty for untraced jobs, so the wire cost is zero
	// when tracing is off.
	Spans     []trace.Span `json:"spans,omitempty"`
	SpanDrops int          `json:"span_drops,omitempty"`
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
// (timeline.go) — plus the residency histogram. The decision log is a
// projection of the spans, so it is not shipped: Decided says the node
// recorded one (-no-obs nodes do not), and the receiving side derives it
// again. FrameResults (the raw per-frame timeline) is deliberately not
// shipped: nothing behind the fleet.Runner seam reads it, and it dominates
// payload size.
type wireRun struct {
	Kind harness.Kind `json:"kind"`

	Energy     acmp.Joules      `json:"energy_j"`
	Frames     int              `json:"frames"`
	Switches   acmp.SwitchStats `json:"switches"`
	Residency  []wireResidency  `json:"residency,omitempty"`
	ViolationI float64          `json:"violation_i"`
	ViolationU float64          `json:"violation_u"`

	TotalEnergy acmp.Joules  `json:"total_energy_j"`
	LoadLatency sim.Duration `json:"load_latency_us"`

	FrameEnergy acmp.Joules `json:"frame_energy_j"`
	IdleEnergy  acmp.Joules `json:"idle_energy_j"`
	EventEnergy acmp.Joules `json:"event_energy_j"`
	StageEnergy acmp.Joules `json:"stage_energy_j,omitempty"`
	// Timeline is appendTimeline's block of the run's spans and config
	// marks, absent when both are empty; JSON carries it as base64.
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
		History:     r.History,
		Quarantined: r.Quarantined,
		Spans:       r.Spans,
		SpanDrops:   r.SpanDrops,
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
// of the job. A run that does not decode fails the result with an error
// wrapping errBadRun, and the result carries no run.
func decodeResult(w *wireResult, job fleet.Job) fleet.Result {
	r := fleet.Result{
		Job:         job,
		Worker:      w.Worker,
		Latency:     time.Duration(w.LatencyNS),
		Attempts:    w.Attempts,
		History:     w.History,
		Quarantined: w.Quarantined,
		Spans:       w.Spans,
		SpanDrops:   w.SpanDrops,
	}
	if w.Err != "" {
		r.Err = errors.New(w.Err)
	}
	if w.Run != nil {
		var err error
		if r.Run, err = decodeRun(w.Run, job); err != nil {
			r.Err = err
		}
	}
	return r
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
		w.Timeline = appendTimeline(nil, run.Spans, run.ConfigMarks)
	}
	// Residency flattens to (config index, duration) pairs sorted by index,
	// so the wire form of one run is itself deterministic.
	for cfg, d := range run.Residency {
		w.Residency = append(w.Residency, wireResidency{Config: cfg.Index(), Dur: d})
	}
	sort.Slice(w.Residency, func(i, j int) bool { return w.Residency[i].Config < w.Residency[j].Config })
	return w
}

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
		run.Residency = make(map[acmp.Config]sim.Duration, len(w.Residency))
		for _, r := range w.Residency {
			if r.Config < 0 || r.Config >= acmp.NumConfigs() {
				return nil, fmt.Errorf("%w: residency config index %d out of range", errBadRun, r.Config)
			}
			run.Residency[acmp.ConfigAt(r.Config)] = r.Dur
		}
	}
	if len(w.Timeline) > 0 {
		var err error
		if run.Spans, run.ConfigMarks, err = decodeTimeline(w.Timeline); err != nil {
			return nil, err
		}
	}
	if w.Decided {
		run.Decisions = obs.DecisionsOf(run.Spans)
	}
	if app, ok := apps.ByName(job.App); ok {
		run.App = app
	}
	return run, nil
}
