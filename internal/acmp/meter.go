package acmp

import "github.com/wattwiseweb/greenweb/internal/sim"

// Meter integrates CPU-rail power over virtual time, exactly (piecewise-
// constant integration at every power transition) and split per cluster.
// It is the model counterpart of the paper's sense-resistor measurement on
// the ODroid XU+E's big and little rails.
type Meter struct {
	sim   *sim.Simulator
	pm    *PowerModel
	last  sim.Time
	power Watts
	rail  Cluster

	total     Joules
	byCluster [2]Joules

	onTransition []func(from, to sim.Time, rail Cluster, e Joules)
}

func newMeter(s *sim.Simulator, pm *PowerModel) *Meter {
	return &Meter{sim: s, pm: pm, last: s.Now(), rail: Little}
}

// set integrates up to now at the previous power level, then switches to the
// new level on the given rail.
func (m *Meter) set(p Watts, rail Cluster) {
	m.integrate()
	m.power = p
	m.rail = rail
}

func (m *Meter) integrate() {
	now := m.sim.Now()
	if now > m.last {
		from := m.last
		e := Joules(float64(m.power) * now.Sub(m.last).Seconds())
		m.total += e
		m.byCluster[m.rail] += e
		m.last = now
		for _, fn := range m.onTransition {
			fn(from, now, m.rail, e)
		}
	}
}

// OnTransition registers an observer of integration intervals: each call
// reports one piecewise-constant interval [from, to) on the given rail and
// the energy it contributed to the integral. The energy ledger subscribes
// here to attribute every joule the meter counts.
func (m *Meter) OnTransition(fn func(from, to sim.Time, rail Cluster, e Joules)) {
	m.onTransition = append(m.onTransition, fn)
}

// Sync forces integration up to the current instant, flushing the pending
// interval through OnTransition observers. Attribution boundaries (span
// open/close) call this so the interval on each side of the boundary is
// charged to the right span.
func (m *Meter) Sync() { m.integrate() }

// Power reports the instantaneous power level.
func (m *Meter) Power() Watts { return m.power }

// Energy reports the total energy consumed up to the current instant.
func (m *Meter) Energy() Joules {
	m.integrate()
	return m.total
}

// EnergyByCluster reports energy split across the little and big rails.
func (m *Meter) EnergyByCluster() (little, big Joules) {
	m.integrate()
	return m.byCluster[Little], m.byCluster[Big]
}

// DAQ simulates the National Instruments data-acquisition unit the paper
// uses: it samples the rail power at a fixed rate (1,000 samples per second
// in the paper) and estimates energy as the sum of sample × period. Useful
// for validating that sampled measurement tracks the exact integral.
type DAQ struct {
	sim     *sim.Simulator
	src     func() Watts
	period  sim.Duration
	samples int
	dropped int
	energy  Joules
	stopped bool
	last    sim.Time  // time the last completed sampling period ended
	ev      sim.Event // pending sample, so Stop can cancel it

	// drop, when set, is consulted per sample instant; a true return loses
	// that sampling period from the estimate (modelling DAQ dropout).
	drop func(now sim.Time) bool
}

// NewDAQ attaches a sampler to a power source at the given sampling period
// and starts sampling immediately.
func NewDAQ(s *sim.Simulator, period sim.Duration, src func() Watts) *DAQ {
	if period <= 0 {
		panic("acmp: DAQ period must be positive")
	}
	d := &DAQ{sim: s, src: src, period: period, last: s.Now()}
	d.schedule()
	return d
}

// SetDropout attaches a sample-dropout predicate: each sampling instant the
// predicate returns true for is lost, undercounting the estimate by that
// period (the exact meter is unaffected). Must be deterministic in virtual
// time for reproducible runs; internal/faults provides a seed-driven one.
// Pass nil to detach.
func (d *DAQ) SetDropout(f func(now sim.Time) bool) { d.drop = f }

func (d *DAQ) schedule() {
	d.ev = d.sim.After(d.period, "daq:sample", func() {
		if d.stopped {
			return
		}
		if d.drop != nil && d.drop(d.sim.Now()) {
			// The sample never arrived: its period's energy is lost, not
			// deferred (Stop must not re-count it as a partial period).
			d.dropped++
			d.last = d.sim.Now()
			d.schedule()
			return
		}
		d.samples++
		d.energy += Joules(float64(d.src()) * d.period.Seconds())
		d.last = d.sim.Now()
		d.schedule()
	})
}

// Stop ends sampling: the pending sample event is cancelled (so it does not
// linger in the simulator queue) and the final partial sampling period is
// flushed into the estimate, which would otherwise undercount by up to one
// period. Stopping twice is a no-op.
func (d *DAQ) Stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.ev.Cancel()
	if now := d.sim.Now(); now > d.last {
		d.energy += Joules(float64(d.src()) * now.Sub(d.last).Seconds())
		d.last = now
	}
}

// Samples reports how many samples were taken.
func (d *DAQ) Samples() int { return d.samples }

// Dropped reports how many samples were lost to injected dropout.
func (d *DAQ) Dropped() int { return d.dropped }

// Energy reports the sampled energy estimate.
func (d *DAQ) Energy() Joules { return d.energy }
