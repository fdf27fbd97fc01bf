// Package harness drives the paper's experiments end to end: it loads each
// Table 3 application into the simulated browser under a chosen governor,
// replays the interaction trace, and extracts the quantities each table and
// figure reports. Every figure/table of the evaluation section has a
// generator here (see experiments.go); cmd/greenbench and the repository's
// benchmark suite call them.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/core"
	"github.com/wattwiseweb/greenweb/internal/device"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/governor"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/metrics"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/replay"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// Kind names the schedulers under evaluation.
type Kind string

// The evaluated governors: the paper's two baselines, the two GreenWeb
// scenarios, and extra reference points used by the ablation benches.
const (
	Perf        Kind = "Perf"
	Interactive Kind = "Interactive"
	Ondemand    Kind = "Ondemand"
	Powersave   Kind = "Powersave"
	GreenWebI   Kind = "GreenWeb-I"
	GreenWebU   Kind = "GreenWeb-U"
	// GreenWebIStaged is GreenWeb-I with the per-stage configuration
	// dimension enabled: on a staged engine the runtime assigns each render
	// phase its own configuration (core.StageVector), spending DVFS-ladder
	// quantization slack phase by phase. On a serial engine it degenerates
	// to GreenWeb-I scheduling.
	GreenWebIStaged Kind = "GreenWeb-I-staged"
	// Single-cluster ablation variants (paper Sec. 10's alternative).
	GreenWebUBigOnly    Kind = "GreenWeb-U-bigonly"
	GreenWebULittleOnly Kind = "GreenWeb-U-littleonly"
	GreenWebILittleOnly Kind = "GreenWeb-I-littleonly"
	// EBS is the annotation-free event-based scheduler the paper contrasts
	// with in Sec. 9 (related work).
	EBSKind Kind = "EBS"
)

// Kinds returns every governor kind NewGovernor accepts, in evaluation order.
func Kinds() []Kind {
	return []Kind{
		Perf, Interactive, Ondemand, Powersave,
		GreenWebI, GreenWebU, GreenWebIStaged,
		GreenWebUBigOnly, GreenWebULittleOnly, GreenWebILittleOnly,
		EBSKind,
	}
}

// ParseKind resolves a kind name case-insensitively, so callers accepting
// external input (the job server, CLI flags) can validate before
// NewGovernor — which panics on unknown kinds — ever runs.
func ParseKind(name string) (Kind, error) {
	for _, k := range Kinds() {
		if strings.EqualFold(name, string(k)) {
			return k, nil
		}
	}
	return "", fmt.Errorf("harness: unknown governor kind %q", name)
}

// NewGovernor builds a fresh governor of the given kind; an unknown kind
// panics (validate external input with ParseKind). It is the one place a
// kind becomes a governor.
func NewGovernor(kind Kind) browser.Governor {
	switch kind {
	case Perf:
		return governor.NewPerf()
	case Interactive:
		return governor.NewInteractive(governor.DefaultInteractiveParams())
	case Ondemand:
		return governor.NewOndemand()
	case Powersave:
		return governor.NewPowersave()
	case GreenWebI:
		return core.New(core.Options{Scenario: qos.Imperceptible})
	case GreenWebU:
		return core.New(core.Options{Scenario: qos.Usable})
	case GreenWebIStaged:
		return core.New(core.Options{Scenario: qos.Imperceptible, StageAware: true})
	case GreenWebUBigOnly:
		return core.New(core.Options{Scenario: qos.Usable, BigOnly: true})
	case GreenWebULittleOnly:
		return core.New(core.Options{Scenario: qos.Usable, LittleOnly: true})
	case GreenWebILittleOnly:
		return core.New(core.Options{Scenario: qos.Imperceptible, LittleOnly: true})
	case EBSKind:
		return governor.NewEBS()
	default:
		panic(fmt.Sprintf("harness: unknown governor kind %q", kind))
	}
}

// Run is one measured (application, governor, trace) execution.
type Run struct {
	App  *apps.App
	Kind Kind

	// Interaction-phase measurements (excluding page load, except for
	// loading microbenchmarks where the load IS the interaction).
	Energy    acmp.Joules
	Frames    int
	Switches  acmp.SwitchStats
	Residency map[acmp.Config]sim.Duration
	// ViolationI/U are geomean violation percentages judged against the
	// imperceptible and usable deadlines respectively.
	ViolationI float64
	ViolationU float64

	// Whole-run totals (including load), for reference.
	TotalEnergy acmp.Joules

	// LoadLatency is the first-meaningful-frame latency.
	LoadLatency sim.Duration

	// FrameResults is the full frame timeline (including the load frame),
	// for timeline export and detailed inspection.
	FrameResults []browser.FrameResult

	// Energy attribution from the per-frame/per-event ledger, over the whole
	// run including load. FrameEnergy + IdleEnergy equals TotalEnergy within
	// ledger.ConservationTolerance — the harness verifies this after every
	// run. EventEnergy sums the input→completion overlays, which may
	// double-count overlapping events.
	FrameEnergy acmp.Joules
	IdleEnergy  acmp.Joules
	EventEnergy acmp.Joules
	// StageEnergy sums the per-stage overlay spans of staged frame
	// production (zero on a serial run). Stage windows nest inside frame
	// windows, so StageEnergy ≤ FrameEnergy always.
	StageEnergy acmp.Joules
	// Spans is the full attribution timeline, for trace export.
	Spans []ledger.Span
	// ConfigMarks is the configuration-change history, for trace export.
	ConfigMarks []ledger.ConfigMark

	// Decisions is the per-frame decision log, obs.DecisionsOf(Spans): one
	// entry per frame span, in production order.
	Decisions []obs.Decision

	// Fault-adversity observability, all zero on an unfaulted run: injected
	// hardware faults the device absorbed (thermal trips, denied/delayed
	// DVFS transitions, dropped DAQ samples) and the runtime's degradation
	// decisions in response (sweep results clamped to the thermal ceiling,
	// Perf-within-cap fallbacks, recoveries back to model control).
	ThermalTrips int
	DVFSDenied   int
	DVFSDelayed  int
	DAQSamples   int
	DAQDropped   int
	// MeteredEnergy is the (lossy) DAQ integral over the whole run; only
	// populated when the fault spec samples the DAQ. Compare against
	// TotalEnergy to see what dropout cost the measurement.
	MeteredEnergy acmp.Joules
	CapClamps     int
	Degradations  int
	Recoveries    int

	// models are the GreenWeb runtime's trained per-class models at the end
	// of the run (nil under baseline governors), which can seed a later run
	// (the repeated protocol, AblationPredictor). They stay in this process.
	models map[string]*core.Model
}

// subtractResidency computes the per-config residency accrued between two
// snapshots.
func subtractResidency(after, before map[acmp.Config]sim.Duration) map[acmp.Config]sim.Duration {
	out := make(map[acmp.Config]sim.Duration, len(after))
	for cfg, d := range after {
		if delta := d - before[cfg]; delta > 0 {
			out[cfg] = delta
		}
	}
	return out
}

// ExecuteFaultedRepeatedContext runs one (app, governor, trace) experiment
// under the paper's measurement protocol ("we repeat every experiment 3
// times ... the results we report are the median"): n runs on a runtime
// whose per-class models persist across repetitions, as they do on a
// device. Energy is the median run's; violations are averaged across
// repetitions, so the profiling runs' violations (the paper's
// MSN/LZMA-JS/BBC story) remain visible. A nil or empty trace measures the
// loading phase itself (the loading microbenchmark).
//
// A non-nil spec runs every repetition on a faulted device (thermal
// throttling, DVFS transition failures, DAQ dropout) with the identical
// fault pattern: the injector is a pure function of (spec seed, trace seed,
// virtual time), and each repetition restarts virtual time. Once ctx is done
// the simulation is abandoned at the next scheduling chunk and the ctx error
// is returned wrapped (errors.Is-able against context.Canceled /
// DeadlineExceeded).
func ExecuteFaultedRepeatedContext(ctx context.Context, app *apps.App, kind Kind, trace *replay.Trace, n int, spec *faults.Spec) (*Run, error) {
	if n < 1 {
		n = 1
	}
	var runs []*Run
	var models map[string]*core.Model
	for i := 0; i < n; i++ {
		run, err := execute(ctx, app, app.HTML(), kind, trace, models, spec, false)
		if err != nil {
			return nil, err
		}
		if run.models != nil {
			models = run.models
		}
		runs = append(runs, run)
	}
	byEnergy := append([]*Run(nil), runs...)
	sort.Slice(byEnergy, func(i, j int) bool { return byEnergy[i].Energy < byEnergy[j].Energy })
	med := byEnergy[len(byEnergy)/2]
	var vi, vu []float64
	for _, r := range runs {
		vi = append(vi, r.ViolationI)
		vu = append(vu, r.ViolationU)
	}
	med.ViolationI = metrics.Mean(vi)
	med.ViolationU = metrics.Mean(vu)
	return med, nil
}

// execute is the one measured run every experiment comes down to. It loads
// html (the app's page, or a variant of it such as AUTOGREEN's output) on a
// fresh device under kind, whose runtime starts from the seed models, with
// spec's faults injected; settles the load; replays trace from 100 ms after
// the load settles and settles again; then closes the device's ledger,
// failing the run if conservation does not hold. With background set, a
// background application shares the SoC from the page load on, and the run
// ends 2 s after the trace instead of settling, because the background pump
// never quiesces. ctx carries the stage-worker count (WithStageWorkers) and
// cancels the run.
func execute(ctx context.Context, app *apps.App, html string, kind Kind, trace *replay.Trace, seed map[string]*core.Model, spec *faults.Spec, background bool) (*Run, error) {
	fail := func(err error) (*Run, error) {
		return nil, fmt.Errorf("harness: %s/%s: %w", app.Name, kind, err)
	}
	gov := NewGovernor(kind)
	rt, _ := gov.(*core.Runtime)
	if rt != nil && seed != nil {
		rt.ImportModels(seed)
	}
	var traceSeed int64
	if trace != nil {
		traceSeed = trace.Seed()
	}
	dev, err := device.New(gov, StageWorkersIn(ctx), spec, traceSeed)
	if err != nil {
		return fail(err)
	}
	// The measured path closes the ledger itself; this closes it on the
	// early returns.
	defer dev.Close()
	s, cpu, e := dev.Sim, dev.CPU, dev.Engine
	if _, err := e.LoadPage(html); err != nil {
		return fail(err)
	}
	cols := metrics.NewCollectors(e, qos.Imperceptible, qos.Usable)
	colI, colU := cols[0], cols[1]
	stopBackground := func() {}
	if background {
		stopBackground = startBackground(s, cpu)
	}

	run := &Run{App: app, Kind: kind}

	// Phase 1: load.
	if err := dev.Settle(ctx, 60*sim.Second); err != nil {
		return fail(err)
	}
	if frames := e.Results(); len(frames) > 0 && len(frames[0].Inputs) > 0 {
		run.LoadLatency = frames[0].Inputs[0].Latency
	}

	loadOnly := trace == nil || trace.Events() == 0
	e0, res0, sw0, f0 := cpu.Energy(), cpu.Residency(), cpu.Stats(), len(e.Results())
	t0 := s.Now().Add(100 * sim.Millisecond)

	// Phase 2: interaction.
	if !loadOnly {
		trace.Replay(e, t0)
		end := t0.Add(trace.Duration())
		if background {
			end = end.Add(2 * sim.Second)
		}
		if err := dev.RunUntil(ctx, end); err != nil {
			return fail(err)
		}
		if !background {
			if err := dev.Settle(ctx, 60*sim.Second); err != nil {
				return fail(err)
			}
		}
	}

	stopBackground()
	dev.Stop()

	// Fault storm: a cell whose DVFS denial count reached the threshold is a
	// failed job, deterministically: the pattern is a pure function of the
	// seeds, so a re-run would fail the same way.
	if lim, denied := dev.Faults.StormAbort(), cpu.FaultStats().Denied; lim > 0 && denied >= lim {
		return fail(fmt.Errorf("%w (%d DVFS transitions denied)", faults.ErrStorm, denied))
	}

	if loadOnly {
		// The loading microbenchmark: the whole run is the measurement.
		run.Energy = cpu.Energy()
		run.Residency = cpu.Residency()
		run.Switches = cpu.Stats()
		run.Frames = len(e.Results())
		run.ViolationI = metrics.GeoMeanPct(violationsOf(colI, 0))
		run.ViolationU = metrics.GeoMeanPct(violationsOf(colU, 0))
	} else {
		run.Energy = cpu.Energy() - e0
		run.Residency = subtractResidency(cpu.Residency(), res0)
		st := cpu.Stats()
		run.Switches = acmp.SwitchStats{
			FreqSwitches: st.FreqSwitches - sw0.FreqSwitches,
			Migrations:   st.Migrations - sw0.Migrations,
		}
		run.Frames = len(e.Results()) - f0
		run.ViolationI = metrics.GeoMeanPct(violationsOf(colI, t0))
		run.ViolationU = metrics.GeoMeanPct(violationsOf(colU, t0))
	}
	run.TotalEnergy = cpu.Energy()
	run.FrameResults = e.Results()
	// Every joule the meter integrated must appear in exactly one frame/idle
	// span, so an attribution bug fails the run instead of silently skewing
	// the numbers. The totals and the exported timeline come from one span
	// snapshot.
	spans, t, err := dev.Close()
	if err != nil {
		return fail(err)
	}
	run.FrameEnergy, run.IdleEnergy, run.EventEnergy, run.StageEnergy = t.Frame, t.Idle, t.Event, t.Stage
	run.Spans = spans
	run.ConfigMarks = dev.Ledger.Marks()
	// The decision log is a projection of the closed frame spans, derived
	// once per run.
	run.Decisions = obs.DecisionsOf(run.Spans)
	if daq := dev.DAQ; daq != nil {
		daq.Stop()
		run.DAQSamples, run.DAQDropped, run.MeteredEnergy = daq.Samples(), daq.Dropped(), daq.Energy()
	}
	if dev.Faults != nil {
		fs := cpu.FaultStats()
		run.ThermalTrips, run.DVFSDenied, run.DVFSDelayed = fs.Trips, fs.Denied, fs.Delayed
	}
	if rt != nil {
		st := rt.Stats()
		run.CapClamps, run.Degradations, run.Recoveries = st.CapClamps, st.Degradations, st.Recoveries
		run.models = rt.ExportModels()
	}
	if errs := e.ScriptErrors(); len(errs) > 0 {
		return fail(fmt.Errorf("script errors: %v", errs[0]))
	}
	return run, nil
}

// violationsOf extracts violation percentages for frames completing at or
// after start.
func violationsOf(c *metrics.Collector, start sim.Time) []float64 {
	out := make([]float64, 0, len(c.Frames))
	for _, f := range c.Frames {
		if f.End >= start {
			out = append(out, f.Pct)
		}
	}
	return out
}

// Suite memoizes runs so the figure generators can share them (Fig. 10a/b/c,
// 11, and 12 all consume the same full-interaction executions). Its cells
// are the paper's one grid of applications × governors × phases, and every
// generator reads its slice of the grid with one grid call.
type Suite struct {
	runs         map[Cell]*Run // keyed by app, kind and phase, at stageWorkers
	pre          Prefetcher
	stageWorkers int
	workers      int
}

// NewSuite returns an empty result cache that runs one execution at a time.
func NewSuite() *Suite {
	return &Suite{runs: make(map[Cell]*Run), workers: 1}
}

// SetWorkers sets how many executions the suite runs at once: the cells its
// generators compute and the per-app runs they make themselves. n < 1 means
// GOMAXPROCS. The report's bytes are the same at every width.
func (s *Suite) SetWorkers(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	s.workers = n
}

// SetStageWorkers makes every execution the suite runs itself or asks its
// prefetcher for use n render-pipeline stage threads (0 or 1 = serial, the
// default). Call it before the first generator; n outside
// [0, browser.MaxStageWorkers] panics (see WithStageWorkers).
func (s *Suite) SetStageWorkers(n int) {
	if !ValidStageWorkers(n) {
		panic("harness: stage workers out of range")
	}
	s.stageWorkers = n
}

// ctx is the context of the suite's own executions: it carries the suite's
// stage-worker count.
func (s *Suite) ctx() context.Context {
	return WithStageWorkers(context.Background(), s.stageWorkers)
}

// Cell names one execution of the paper's protocol: an application under a
// governor, either the full interaction or the repeated microbenchmark.
// Repeats > 0 overrides the phase's repetition count. Faults, when set,
// runs it on a faulted device. StageWorkers > 0 renders it with that many
// stage threads (1 = serial); 0 leaves the count to the execution context
// (see WithStageWorkers). The suite's own cells leave Repeats and Faults
// zero.
type Cell struct {
	App          *apps.App
	Kind         Kind
	Full         bool
	Repeats      int
	Faults       *faults.Spec
	StageWorkers int
}

// ExecuteCell runs the cell under the paper's measurement protocol: a full
// interaction is one cold run, a microbenchmark MicroRepeats runs on
// persisting models (see ExecuteFaultedRepeatedContext). Every suite and
// fleet execution of a cell comes through here, so they are interchangeable
// bit for bit.
func ExecuteCell(ctx context.Context, c Cell) (*Run, error) {
	if c.StageWorkers > 0 {
		ctx = WithStageWorkers(ctx, c.StageWorkers)
	}
	trace, repeats := c.App.Micro, MicroRepeats
	if c.Full {
		trace, repeats = c.App.Full, 1
	}
	if c.Repeats > 0 {
		repeats = c.Repeats
	}
	return ExecuteFaultedRepeatedContext(ctx, c.App, c.Kind, trace, repeats, c.Faults)
}

// Prefetcher bulk-computes cells in place of the suite's own workers.
// Implementations must compute each cell with ExecuteCell semantics and
// return a run for every cell they are handed: a generator whose
// prefetcher omits a cell fails, naming its app and kind.
type Prefetcher interface {
	Prefetch(cells []Cell) (map[Cell]*Run, error)
}

// SetPrefetcher installs a bulk executor that computes every generator's
// missing cells instead of the suite's own workers.
func (s *Suite) SetPrefetcher(p Prefetcher) { s.pre = p }

// grid returns the runs of every app in as under each kind, in the full
// interaction or the microbenchmark: g[k][i] is app i under kinds[k]. It
// first computes the cells the suite has not run yet, app-major, through
// the installed prefetcher or else with ExecuteCell on the suite's
// workers. Generators read their whole slice before fanning out, so
// fan-out bodies never touch the suite's map.
func (s *Suite) grid(as []*apps.App, full bool, kinds ...Kind) ([][]*Run, error) {
	cell := func(a *apps.App, k Kind) Cell {
		return Cell{App: a, Kind: k, Full: full, StageWorkers: s.stageWorkers}
	}
	var missing []Cell
	for _, a := range as {
		for _, k := range kinds {
			if c := cell(a, k); s.runs[c] == nil {
				missing = append(missing, c)
			}
		}
	}
	runs := make([]*Run, len(missing))
	if s.pre != nil && len(missing) > 0 {
		got, err := s.pre.Prefetch(missing)
		if err != nil {
			return nil, err
		}
		for i, c := range missing {
			if runs[i] = got[c]; runs[i] == nil {
				return nil, fmt.Errorf("harness: %s/%s: prefetcher returned no run", c.App.Name, c.Kind)
			}
		}
	} else if err := s.fanOut(len(missing), func(i int) (err error) {
		runs[i], err = ExecuteCell(s.ctx(), missing[i])
		return err
	}); err != nil {
		return nil, err
	}
	for i, c := range missing {
		s.runs[c] = runs[i]
	}
	g := make([][]*Run, len(kinds))
	for k, kind := range kinds {
		g[k] = make([]*Run, len(as))
		for i, a := range as {
			g[k][i] = s.runs[cell(a, kind)]
		}
	}
	return g, nil
}

// fanOut runs body(i) for every i in [0, n) on the suite's workers. Each
// body must be a pure function of i that writes only its own slot of an
// index-addressed result. Workers take indices in ascending order and stop
// taking them once a body fails; every lower index has started by then, so
// the error returned, the lowest-index one, is the same at any width.
func (s *Suite) fanOut(n int, body func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(s.workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = body(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MicroRepeats is the paper's repetition count per experiment.
const MicroRepeats = 3
