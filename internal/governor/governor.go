// Package governor implements the baseline CPU governors the paper
// compares against (Sec. 7.1): Perf, which pins the system at peak
// performance, and Interactive, a model of Android's default interactive
// cpufreq governor, which boosts on input and then tracks CPU utilization.
// Ondemand and Powersave are included as additional reference points.
//
// All governors drive the same ACMP configuration space the GreenWeb
// runtime uses, so energy and QoS comparisons are apples-to-apples.
package governor

import (
	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/dom"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// perfScale ranks configurations by effective throughput: frequency times
// the big cluster's IPC advantage.
func perfScale(c acmp.Config) float64 {
	f := float64(c.MHz)
	if c.Cluster == acmp.Big {
		return f * acmp.DefaultMicroArchRatio
	}
	return f
}

// configFor returns the lowest-energy configuration whose throughput is at
// least want.
func configFor(want float64) acmp.Config {
	for i, n := 0, acmp.NumConfigs(); i < n; i++ {
		if c := acmp.ConfigAt(i); perfScale(c) >= want {
			return c
		}
	}
	return acmp.PeakConfig()
}

// Perf pins the highest-performance configuration for the whole run — the
// paper's upper-bound baseline with best QoS and worst energy.
type Perf struct{}

// NewPerf returns the Perf governor.
func NewPerf() *Perf { return &Perf{} }

// Attach implements browser.Governor.
func (*Perf) Attach(e *browser.Engine) { e.CPU().SetConfig(acmp.PeakConfig()) }

// OnInput implements browser.Governor.
func (*Perf) OnInput(browser.InputRecord, *dom.Node) {}

// OnFrameStart implements browser.Governor.
func (*Perf) OnFrameStart(int, browser.Provenance) {}

// OnFrameEnd implements browser.Governor.
func (*Perf) OnFrameEnd(*browser.FrameResult) {}

// OnEventComplete implements browser.Governor.
func (*Perf) OnEventComplete(browser.UID) {}

// Powersave pins the lowest-power configuration — the energy lower bound
// with unbounded QoS violations.
type Powersave struct{}

// NewPowersave returns the Powersave governor.
func NewPowersave() *Powersave { return &Powersave{} }

// Attach implements browser.Governor.
func (*Powersave) Attach(e *browser.Engine) { e.CPU().SetConfig(acmp.LowestConfig()) }

// OnInput implements browser.Governor.
func (*Powersave) OnInput(browser.InputRecord, *dom.Node) {}

// OnFrameStart implements browser.Governor.
func (*Powersave) OnFrameStart(int, browser.Provenance) {}

// OnFrameEnd implements browser.Governor.
func (*Powersave) OnFrameEnd(*browser.FrameResult) {}

// OnEventComplete implements browser.Governor.
func (*Powersave) OnEventComplete(browser.UID) {}

// InteractiveParams are the tunables of the Interactive model, named after
// their Android cpufreq counterparts.
type InteractiveParams struct {
	TimerRate      sim.Duration // utilization sampling period
	GoHispeedLoad  float64      // load that triggers the hispeed jump
	TargetLoad     float64      // steady-state utilization target
	MinSampleTime  sim.Duration // dwell time before stepping down
	HispeedConfig  acmp.Config  // jump target on input or high load
	InputBoostTime sim.Duration // boost hold after an input event
}

// DefaultInteractiveParams mirror Android's stock interactive tuning
// (20 ms timer, 85/90 loads, 80 ms min sample time) mapped onto the
// Exynos 5410 configuration space. The input boost jumps to the peak
// configuration, as vendor touch-boost policies of the era did — which is
// why the paper finds Interactive "almost always operating at the peak
// performance" during interaction.
func DefaultInteractiveParams() InteractiveParams {
	return InteractiveParams{
		TimerRate:      20 * sim.Millisecond,
		GoHispeedLoad:  0.85,
		TargetLoad:     0.90,
		MinSampleTime:  80 * sim.Millisecond,
		HispeedConfig:  acmp.PeakConfig(),
		InputBoostTime: 100 * sim.Millisecond,
	}
}

// Interactive models Android's default interactive governor: on input it
// boosts to the hispeed configuration; on its sampling timer it raises
// performance immediately when utilization is high and lowers it only
// after a dwell period of low utilization. Because interaction frames keep
// utilization high, it ends up near peak for most of an interaction —
// which is exactly the behaviour the paper measures (Interactive ≈ Perf).
type Interactive struct {
	P InteractiveParams

	e   *browser.Engine
	cpu *acmp.CPU

	lastBusy    sim.Duration
	lastSample  sim.Time
	lowSince    sim.Time
	boostUntil  sim.Time
	stopped     bool
	stopAtQuiet bool
}

// NewInteractive returns an Interactive governor with the given parameters.
func NewInteractive(p InteractiveParams) *Interactive { return &Interactive{P: p} }

// Attach implements browser.Governor.
func (g *Interactive) Attach(e *browser.Engine) {
	g.e = e
	g.cpu = e.CPU()
	g.cpu.SetConfig(acmp.LowestConfig())
	g.lastSample = e.Sim().Now()
	g.lowSince = e.Sim().Now()
	g.scheduleTimer()
}

// Stop cancels the sampling timer (the harness calls this at the end of a
// run so the simulation can drain).
func (g *Interactive) Stop() { g.stopped = true }

func (g *Interactive) scheduleTimer() {
	g.e.Sim().After(g.P.TimerRate, "interactive:timer", func() {
		if g.stopped {
			return
		}
		g.sample()
		g.scheduleTimer()
	})
}

func (g *Interactive) sample() {
	now := g.e.Sim().Now()
	busy := g.cpu.UnionBusyTime()
	window := now.Sub(g.lastSample)
	if window <= 0 {
		return
	}
	util := float64(busy-g.lastBusy) / float64(window)
	g.lastBusy = busy
	g.lastSample = now

	cur := g.cpu.Config()
	boosted := now < g.boostUntil

	switch {
	case util >= g.P.GoHispeedLoad:
		g.lowSince = now
		// Jump to hispeed, then climb toward the load target.
		target := cur
		if perfScale(cur) < perfScale(g.P.HispeedConfig) {
			target = g.P.HispeedConfig
		} else {
			want := perfScale(cur) * util / g.P.TargetLoad
			target = configFor(want)
		}
		g.cpu.SetConfig(target)
	case util >= g.P.TargetLoad:
		g.lowSince = now
		want := perfScale(cur) * util / g.P.TargetLoad
		g.cpu.SetConfig(configFor(want))
	default:
		if boosted {
			return
		}
		// Only step down after MinSampleTime of sustained low load.
		if now.Sub(g.lowSince) < g.P.MinSampleTime {
			return
		}
		want := perfScale(cur) * util / g.P.TargetLoad
		target := configFor(want)
		if perfScale(target) < perfScale(cur) {
			g.cpu.SetConfig(target)
		}
	}
}

// OnInput implements browser.Governor: the input boost.
func (g *Interactive) OnInput(in browser.InputRecord, _ *dom.Node) {
	now := g.e.Sim().Now()
	g.boostUntil = now.Add(g.P.InputBoostTime)
	g.lowSince = now
	if perfScale(g.cpu.Config()) < perfScale(g.P.HispeedConfig) {
		g.cpu.SetConfig(g.P.HispeedConfig)
	}
}

// OnFrameStart implements browser.Governor.
func (g *Interactive) OnFrameStart(int, browser.Provenance) {}

// OnFrameEnd implements browser.Governor.
func (g *Interactive) OnFrameEnd(*browser.FrameResult) {}

// OnEventComplete implements browser.Governor.
func (g *Interactive) OnEventComplete(browser.UID) {}

// Ondemand is the classic Linux ondemand policy: sample at a slower rate,
// jump straight to peak above the up-threshold, otherwise scale down
// proportionally.
type Ondemand struct {
	SamplePeriod sim.Duration
	UpThreshold  float64

	e        *browser.Engine
	cpu      *acmp.CPU
	lastBusy sim.Duration
	lastAt   sim.Time
	stopped  bool
}

// NewOndemand returns an Ondemand governor with stock tuning.
func NewOndemand() *Ondemand {
	return &Ondemand{SamplePeriod: 100 * sim.Millisecond, UpThreshold: 0.80}
}

// Attach implements browser.Governor.
func (g *Ondemand) Attach(e *browser.Engine) {
	g.e = e
	g.cpu = e.CPU()
	g.cpu.SetConfig(acmp.LowestConfig())
	g.lastAt = e.Sim().Now()
	g.tick()
}

// Stop cancels the sampling timer.
func (g *Ondemand) Stop() { g.stopped = true }

func (g *Ondemand) tick() {
	g.e.Sim().After(g.SamplePeriod, "ondemand:timer", func() {
		if g.stopped {
			return
		}
		now := g.e.Sim().Now()
		busy := g.cpu.UnionBusyTime()
		util := float64(busy-g.lastBusy) / float64(now.Sub(g.lastAt))
		g.lastBusy, g.lastAt = busy, now
		if util >= g.UpThreshold {
			g.cpu.SetConfig(acmp.PeakConfig())
		} else {
			want := perfScale(g.cpu.Config()) * util / g.UpThreshold
			g.cpu.SetConfig(configFor(want))
		}
		g.tick()
	})
}

// OnInput implements browser.Governor.
func (g *Ondemand) OnInput(browser.InputRecord, *dom.Node) {}

// OnFrameStart implements browser.Governor.
func (g *Ondemand) OnFrameStart(int, browser.Provenance) {}

// OnFrameEnd implements browser.Governor.
func (g *Ondemand) OnFrameEnd(*browser.FrameResult) {}

// OnEventComplete implements browser.Governor.
func (g *Ondemand) OnEventComplete(browser.UID) {}
