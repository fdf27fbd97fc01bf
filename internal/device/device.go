// Package device assembles one simulated phone: the discrete-event clock,
// the Exynos 5410-class asymmetric CPU and its energy meter, optional
// injected hardware faults and DAQ sampler, the browser engine, and an
// energy-attribution ledger, with the CPU governor attached last. Every
// simulated run builds its device here and ends it with Close, so every run
// checks energy conservation (ledger.Close), not only the measured ones.
package device

import (
	"context"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// Device is one simulated phone. Its parts are live: callers load pages into
// the engine, drive the clock, and read the CPU directly.
type Device struct {
	Sim    *sim.Simulator
	CPU    *acmp.CPU
	Engine *browser.Engine
	// Ledger attributes the meter's energy to frame, idle, event and stage
	// spans until Close.
	Ledger *ledger.Ledger
	// Faults injects the fault spec's adversities (nil on an unfaulted
	// device).
	Faults *faults.Injector
	// DAQ samples the rail power when the spec models DAQ dropout (else
	// nil).
	DAQ *acmp.DAQ
}

// New builds a device in the order its outputs depend on: clock, CPU, fault
// injector and DAQ, engine, stage threads, ledger, then the governor's
// attach. stageWorkers ≥ 2 renders with that many stage threads (0 or 1 is
// serial). A faulted device draws its fault pattern from spec's seed mixed
// with seed, the replayed trace's intrinsic seed; an invalid spec is an
// error. A governor that starts from trained models must import them before
// New attaches it.
func New(gov browser.Governor, stageWorkers int, spec *faults.Spec, seed int64) (*Device, error) {
	s := sim.New()
	d := &Device{Sim: s, CPU: acmp.NewCPU(s, acmp.DefaultPower())}
	if spec.Enabled() || (spec != nil && spec.StormAbort > 0) {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		d.Faults = spec.NewInjector(seed)
		d.Faults.Attach(d.CPU)
		if spec.DAQ != nil {
			d.DAQ = acmp.NewDAQ(s, sim.Millisecond, d.CPU.Power)
			d.Faults.AttachDAQ(d.DAQ)
		}
	}
	d.Engine = browser.New(s, d.CPU, nil)
	d.Engine.SetStageWorkers(stageWorkers)
	d.Ledger = ledger.New(d.CPU)
	d.Engine.SetLedger(d.Ledger)
	d.Engine.SetGovernor(gov)
	return d, nil
}

// Settle advances the simulation until the engine is quiescent, limit
// elapses, or ctx is done. Governor timers may keep the event queue
// non-empty forever, so quiescence is polled every 20 ms, not inferred from
// the queue draining.
func (d *Device) Settle(ctx context.Context, limit sim.Duration) error {
	deadline := d.Sim.Now().Add(limit)
	for d.Sim.Now() < deadline {
		if err := ctx.Err(); err != nil {
			return err
		}
		d.Sim.RunUntil(d.Sim.Now().Add(20 * sim.Millisecond))
		if d.Engine.Quiescent() && !d.CPU.Busy() {
			return nil
		}
	}
	return ctx.Err()
}

// RunUntil advances the simulation to t in 100 ms chunks, checking ctx
// between chunks so a runaway run can be abandoned mid-replay.
func (d *Device) RunUntil(ctx context.Context, t sim.Time) error {
	const chunk = 100 * sim.Millisecond
	for d.Sim.Now() < t {
		if err := ctx.Err(); err != nil {
			return err
		}
		d.Sim.RunUntil(min(d.Sim.Now().Add(chunk), t))
	}
	return ctx.Err()
}

// Stop stops the governor's timers (governors without timers ignore it), so
// the simulation can drain.
func (d *Device) Stop() {
	if st, ok := d.Engine.Governor().(interface{ Stop() }); ok {
		st.Stop()
	}
}

// Close ends the device's energy attribution: it stops the governor,
// detaches the ledger from the engine and closes it, returning its spans,
// their per-kind totals, and the conservation check's error (see
// ledger.Close). The device stays usable afterwards, metered but no longer
// attributed. Closing again returns nothing.
func (d *Device) Close() ([]ledger.Span, ledger.Totals, error) {
	d.Stop()
	d.Engine.SetLedger(nil)
	return d.Ledger.Close()
}
