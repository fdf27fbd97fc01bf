package harness

import (
	"context"
	"fmt"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/metrics"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// BackgroundLoad describes a concurrent application occupying CPU
// resources, the multi-application environment of paper Sec. 8: a sync
// service or music player periodically burning cycles on its own core
// while the foreground Web application runs.
type BackgroundLoad struct {
	Period sim.Duration
	Work   acmp.Work
}

// DefaultBackgroundLoad models a moderate background service: ~2M big-core
// cycles every 50 ms (≈2% utilization at peak, ≈20% at the little floor).
func DefaultBackgroundLoad() BackgroundLoad {
	return BackgroundLoad{
		Period: 50 * sim.Millisecond,
		Work:   acmp.CPUWork(2_000_000),
	}
}

// startBackground drives the load on its own thread until stop is called.
func startBackground(s *sim.Simulator, cpu *acmp.CPU, load BackgroundLoad) (stop func()) {
	th := cpu.NewThread("background-app")
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		th.Submit(load.Work, nil)
		s.After(load.Period, "background:tick", tick)
	}
	s.After(load.Period, "background:tick", tick)
	return func() { stopped = true }
}

// ExecuteWithBackground runs a full interaction with a background
// application sharing the SoC. Like every measured run, it closes out an
// attribution ledger and fails on a conservation violation; the background
// app's energy lands in the frame/idle slice it was drawn in. ctx carries
// the render stage-worker count (WithStageWorkers) and cancels the run.
func ExecuteWithBackground(ctx context.Context, app *apps.App, kind Kind, load BackgroundLoad) (*Run, error) {
	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())
	e := browser.New(s, cpu, nil)
	if n := StageWorkersIn(ctx); n > 0 {
		e.SetStageWorkers(n)
	}
	led := ledger.New(cpu)
	e.SetLedger(led)
	gov := newGovernor(kind)
	e.SetGovernor(gov)
	if _, err := e.LoadPage(app.HTML()); err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", app.Name, kind, err)
	}
	cols := metrics.NewCollectors(e, qos.Imperceptible, qos.Usable)
	colI, colU := cols[0], cols[1]
	stopBg := startBackground(s, cpu, load)

	run := &Run{App: app, Kind: kind}
	if err := settle(ctx, s, e, 60*sim.Second); err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", app.Name, kind, err)
	}
	e0 := cpu.Energy()
	f0 := len(e.Results())
	t0 := s.Now().Add(100 * sim.Millisecond)
	app.Full.Replay(e, t0)
	// The background pump never quiesces; run a fixed post-trace tail.
	if err := runUntil(ctx, s, t0.Add(app.Full.Duration()).Add(2*sim.Second)); err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", app.Name, kind, err)
	}
	stopBg()
	if st, ok := gov.(interface{ Stop() }); ok {
		st.Stop()
	}
	run.Energy = cpu.Energy() - e0
	run.Frames = len(e.Results()) - f0
	run.Switches = cpu.Stats()
	run.Residency = cpu.Residency()
	run.ViolationI = metrics.GeoMeanPct(violationsOf(colI, t0))
	run.ViolationU = metrics.GeoMeanPct(violationsOf(colU, t0))
	run.TotalEnergy = cpu.Energy()
	if err := run.closeLedger(led); err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", app.Name, kind, err)
	}
	if errs := e.ScriptErrors(); len(errs) > 0 {
		return nil, fmt.Errorf("harness: %s/%s: script errors: %v", app.Name, kind, errs[0])
	}
	return run, nil
}

// BackgroundRow compares a GreenWeb run with and without the background
// application.
type BackgroundRow struct {
	App          string
	SoloViolI    float64
	LoadedViolI  float64
	SoloEnergy   float64 // joules
	LoadedEnergy float64
}

// ExperimentVariation reproduces the paper's measurement-noise statement
// ("we find the run-to-run variations are usually about 5%, and do not
// affect our conclusions"): the simulation itself is exact, so the noise
// source is reintroduced by jittering input timings (finger timing is the
// dominant variability under record/replay). It returns each jittered
// run's energy and the maximum relative deviation from their mean.
func ExperimentVariation(appName string, kind Kind, runs int, jitter sim.Duration) (energies []float64, maxDevPct float64, err error) {
	app, ok := apps.ByName(appName)
	if !ok {
		return nil, 0, fmt.Errorf("harness: unknown app %q", appName)
	}
	for i := 0; i < runs; i++ {
		// The repetition index seeds the jitter; Jitter mixes in the
		// trace's intrinsic seed, so each app gets its own noise stream.
		trace := app.Full.Jitter(int64(i)+1, jitter)
		run, err := Execute(app, kind, trace)
		if err != nil {
			return nil, 0, err
		}
		energies = append(energies, float64(run.Energy))
	}
	mean := 0.0
	for _, e := range energies {
		mean += e
	}
	mean /= float64(len(energies))
	for _, e := range energies {
		dev := (e - mean) / mean * 100
		if dev < 0 {
			dev = -dev
		}
		if dev > maxDevPct {
			maxDevPct = dev
		}
	}
	return energies, maxDevPct, nil
}

// ExperimentBackground exercises the paper's Sec. 8 claim that the
// ACMP-based runtime remains applicable when other applications consume
// CPU: the foreground's QoS must hold (ample cores; only the shared DVFS
// domain couples them), with the background's energy added on top.
func (s *Suite) ExperimentBackground(appNames ...string) ([]BackgroundRow, error) {
	fg := make([]*apps.App, len(appNames))
	cells := make([]Cell, len(appNames))
	for i, name := range appNames {
		app, ok := apps.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown app %q", name)
		}
		fg[i] = app
		cells[i] = Cell{App: app, Kind: GreenWebI, Full: true}
	}
	if err := s.prefetch(cells); err != nil {
		return nil, err
	}
	solo, err := s.fullRuns(fg, GreenWebI)
	if err != nil {
		return nil, err
	}
	rows := make([]BackgroundRow, len(fg))
	err = s.fanOut(len(fg), func(i int) error {
		loaded, err := ExecuteWithBackground(s.ctx(), fg[i], GreenWebI, DefaultBackgroundLoad())
		if err != nil {
			return err
		}
		rows[i] = BackgroundRow{
			App:          fg[i].Name,
			SoloViolI:    solo[i].ViolationI,
			LoadedViolI:  loaded.ViolationI,
			SoloEnergy:   float64(solo[i].Energy),
			LoadedEnergy: float64(loaded.Energy),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
