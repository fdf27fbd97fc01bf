package acmp

import (
	"fmt"

	"github.com/wattwiseweb/greenweb/internal/sim"
)

// ThermalParams configures the simulated thermal governor. The Exynos 5410's
// A15 cluster cannot sustain its peak frequencies: sustained residency above
// HeatAboveMHz heats the die at HeatCPerSec; crossing TripC caps the legal
// big-cluster ceiling at CapMHz until the die cools below ClearC, at which
// point the last requested configuration is restored. The temperature is a
// pure function of the configuration-residency history, so faulted runs stay
// exactly reproducible.
type ThermalParams struct {
	AmbientC float64 `json:"ambient_c"` // floor the die cools toward
	TripC    float64 `json:"trip_c"`    // throttling trip point
	ClearC   float64 `json:"clear_c"`   // cool-down point restoring the ceiling

	HeatCPerSec  float64 `json:"heat_c_per_sec"` // heating rate above HeatAboveMHz
	CoolCPerSec  float64 `json:"cool_c_per_sec"` // cooling rate at or below it
	HeatAboveMHz int     `json:"heat_above_mhz"` // big-cluster frequencies above this heat the die
	CapMHz       int     `json:"cap_mhz"`        // big-cluster ceiling while tripped
}

// DefaultThermalParams models a modest passive heatsink: one second of
// sustained near-peak A15 residency trips the governor; the capped system
// needs 1.5 s to cool back down.
func DefaultThermalParams() ThermalParams {
	return ThermalParams{
		AmbientC:     30,
		TripC:        70,
		ClearC:       55,
		HeatCPerSec:  40,
		CoolCPerSec:  10,
		HeatAboveMHz: 1400,
		CapMHz:       1100,
	}
}

// Validate rejects parameter sets that cannot produce a well-formed
// trip/cool cycle.
func (p ThermalParams) Validate() error {
	if !(p.AmbientC < p.ClearC && p.ClearC < p.TripC) {
		return fmt.Errorf("acmp: thermal temperatures must order ambient < clear < trip, got %g/%g/%g",
			p.AmbientC, p.ClearC, p.TripC)
	}
	if p.HeatCPerSec <= 0 || p.CoolCPerSec <= 0 {
		return fmt.Errorf("acmp: thermal rates must be positive, got heat %g cool %g", p.HeatCPerSec, p.CoolCPerSec)
	}
	if !(Config{Big, p.CapMHz}).Valid() {
		return fmt.Errorf("acmp: thermal cap %d MHz is not a big-cluster operating point", p.CapMHz)
	}
	if !(Config{Big, p.HeatAboveMHz}).Valid() {
		return fmt.Errorf("acmp: thermal heat threshold %d MHz is not a big-cluster operating point", p.HeatAboveMHz)
	}
	if p.CapMHz > p.HeatAboveMHz {
		return fmt.Errorf("acmp: thermal cap %d MHz must not exceed the heat threshold %d MHz (a tripped system must cool)",
			p.CapMHz, p.HeatAboveMHz)
	}
	return nil
}

// Thermal is the thermal-governor state attached to a CPU. It integrates a
// simulated die temperature over configuration residency and enforces the
// frequency cap through the simulator's event queue, so throttling composes
// with every other scheduled behavior deterministically.
type Thermal struct {
	cpu *CPU
	p   ThermalParams

	tempC   float64
	at      sim.Time // instant tempC was last integrated to
	tripped bool
	trips   int
	ev      sim.Event // pending trip or clear transition
}

// Params reports the parameter set in effect.
func (t *Thermal) Params() ThermalParams { return t.p }

// Tripped reports whether the frequency cap is currently in force.
func (t *Thermal) Tripped() bool { return t.tripped }

// Trips reports how many times the governor has tripped so far.
func (t *Thermal) Trips() int { return t.trips }

// Temp reports the simulated die temperature at the current instant.
func (t *Thermal) Temp() float64 {
	t.advance()
	return t.tempC
}

// rate reports the temperature slope under a configuration: heating above
// the threshold, cooling otherwise.
func (t *Thermal) rate(cfg Config) float64 {
	if cfg.Cluster == Big && cfg.MHz > t.p.HeatAboveMHz {
		return t.p.HeatCPerSec
	}
	return -t.p.CoolCPerSec
}

// advance integrates the temperature up to now under the configuration that
// was live since the last integration point. Callers must advance before
// changing the configuration.
func (t *Thermal) advance() {
	now := t.cpu.sim.Now()
	if now <= t.at {
		return
	}
	t.tempC += t.rate(t.cpu.cfg) * now.Sub(t.at).Seconds()
	if t.tempC < t.p.AmbientC {
		t.tempC = t.p.AmbientC
	}
	t.at = now
}

// replan schedules the next thermal transition (trip while heating, clear
// while tripped and cooling) from the current temperature and configuration.
// Called after every configuration change.
func (t *Thermal) replan() {
	t.advance()
	t.ev.Cancel()
	r := t.rate(t.cpu.cfg)
	switch {
	case !t.tripped && r > 0:
		secs := (t.p.TripC - t.tempC) / r
		if secs <= 0 {
			t.trip()
			return
		}
		t.ev = t.cpu.sim.After(sim.Duration(secs*1e6+0.5), "thermal:trip", t.trip)
	case t.tripped && r < 0:
		if t.tempC <= t.p.ClearC {
			t.clear()
			return
		}
		secs := (t.tempC - t.p.ClearC) / -r
		t.ev = t.cpu.sim.After(sim.Duration(secs*1e6+0.5), "thermal:clear", t.clear)
	}
}

// trip enforces the cap: the legal ceiling drops to CapMHz and the live
// configuration, if above it, is forced down. Enforcement bypasses injected
// DVFS faults — hardware thermal protection cannot be denied.
func (t *Thermal) trip() {
	t.advance()
	if t.tripped {
		return
	}
	t.tripped = true
	t.trips++
	t.tempC = t.p.TripC // pin, absorbing sub-microsecond rounding
	capped := t.cpu.ClampToCeiling(t.cpu.cfg)
	if capped != t.cpu.cfg {
		t.cpu.applyConfig(capped) // applyConfig replans the cool-down
		t.cpu.granted = capped
	} else {
		t.replan()
	}
}

// clear lifts the cap once cooled and restores the last configuration the
// governor asked for (cpufreq re-evaluates its policy when the thermal limit
// is removed). The restore is an ordinary request, so injected DVFS faults
// apply to it.
func (t *Thermal) clear() {
	t.advance()
	if !t.tripped {
		return
	}
	t.tripped = false
	if t.tempC > t.p.ClearC {
		t.tempC = t.p.ClearC // pin
	}
	want := t.cpu.lastRequested
	if want.Valid() && want != t.cpu.cfg {
		t.cpu.granted = t.cpu.requestConfig(want)
	} else {
		t.replan()
	}
}
