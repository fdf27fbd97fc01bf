package harness

import (
	"fmt"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// The background application of the multi-application environment of paper
// Sec. 8: a sync service or music player burning ~2M big-core cycles every
// 50 ms on its own thread (≈2% utilization at peak, ≈20% at the little
// floor) while the foreground Web application runs.
const (
	backgroundPeriod = 50 * sim.Millisecond
	backgroundCycles = 2_000_000
)

// startBackground drives the background application until stop is called.
func startBackground(s *sim.Simulator, cpu *acmp.CPU) (stop func()) {
	th := cpu.NewThread("background-app")
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		th.Submit(acmp.CPUWork(backgroundCycles), nil)
		s.After(backgroundPeriod, "background:tick", tick)
	}
	s.After(backgroundPeriod, "background:tick", tick)
	return func() { stopped = true }
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

// ExperimentBackground exercises the paper's Sec. 8 claim that the
// ACMP-based runtime remains applicable when other applications consume
// CPU: the foreground's QoS must hold (ample cores; only the shared DVFS
// domain couples them), with the background's energy added on top. Like
// every measured run, each loaded run closes its ledger and fails on a
// conservation violation; the background's energy lands in the frame/idle
// slice it was drawn in.
func (s *Suite) ExperimentBackground(appNames ...string) ([]BackgroundRow, error) {
	fg := make([]*apps.App, len(appNames))
	for i, name := range appNames {
		app, ok := apps.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown app %q", name)
		}
		fg[i] = app
	}
	g, err := s.grid(fg, true, GreenWebI)
	if err != nil {
		return nil, err
	}
	solo := g[0]
	rows := make([]BackgroundRow, len(fg))
	err = s.fanOut(len(fg), func(i int) error {
		loaded, err := execute(s.ctx(), fg[i], fg[i].HTML(), GreenWebI, fg[i].Full, nil, nil, true)
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
