// Package faults is the deterministic fault-injection layer for the
// simulated device. A Spec names the adversities one run faces — thermal
// throttling of the A15 cluster, DVFS transitions that are delayed or
// denied, DAQ sample dropout — and an Injector realizes them as pure
// functions of (seed, virtual time): the same spec and seed produce the
// same fault timeline on every machine and at any fleet worker count, so
// faulted experiments stay byte-reproducible.
//
// The seed that matters is the mix of the spec's own seed and the replayed
// trace's intrinsic seed (replay.Trace.Seed), so distinct experiment cells
// sharing one spec do not share a fault pattern, yet each cell's pattern is
// stable across repetitions and machines.
package faults

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// Process-wide injection counters, labeled by fault kind. Observability
// only: the injector's decisions are a pure function of (seed, time) and
// never read these back.
var obsInjections = obs.Default().CounterVec("greenweb_faults_injections_total",
	"Injected faults by kind across all runs", "kind")

// ErrStorm marks a run aborted because its DVFS denial count reached the
// spec's StormAbort threshold — the deterministic "unlucky cell": the same
// cell aborts the same way on every run, so the fleet delivers it as a
// failed job and never runs it again. Callers detect it with errors.Is.
var ErrStorm = errors.New("faults: fault storm")

// DVFSSpec injects configuration-transition failures: each effective
// SetConfig request may be denied outright (old configuration stays live)
// or land only after an extra transition latency.
type DVFSSpec struct {
	DenyProb  float64      `json:"deny_prob,omitempty"`
	DelayProb float64      `json:"delay_prob,omitempty"`
	Delay     sim.Duration `json:"delay_us,omitempty"` // injected transition latency
}

// DAQSpec injects sample dropout into the DAQ power sampler.
type DAQSpec struct {
	DropProb float64 `json:"drop_prob,omitempty"`
}

// Spec is the full fault-injection plan for one run. A nil Spec (or a zero
// one) injects nothing and leaves every subsystem byte-identical to an
// unfaulted run.
type Spec struct {
	// Seed drives every probabilistic decision; mixed with the replayed
	// trace's intrinsic seed by the harness.
	Seed int64 `json:"seed"`

	Thermal *acmp.ThermalParams `json:"thermal,omitempty"`
	DVFS    *DVFSSpec           `json:"dvfs,omitempty"`
	DAQ     *DAQSpec            `json:"daq,omitempty"`

	// StormAbort, when positive, aborts a run whose DVFS denial count
	// reaches it — the "fault storm" that turns an experiment cell into a
	// failed job.
	StormAbort int `json:"storm_abort,omitempty"`
}

// Default returns a moderate all-subsystem spec for the fault sweep:
// thermal trips under sustained near-peak A15 residency, occasional DVFS
// delays and rare denials, and 1% DAQ dropout.
func Default(seed int64) *Spec {
	thermal := acmp.DefaultThermalParams()
	return &Spec{
		Seed:    seed,
		Thermal: &thermal,
		DVFS:    &DVFSSpec{DenyProb: 0.05, DelayProb: 0.2, Delay: 400 * sim.Microsecond},
		DAQ:     &DAQSpec{DropProb: 0.01},
	}
}

// Enabled reports whether the spec injects anything at all.
func (s *Spec) Enabled() bool {
	return s != nil && (s.Thermal != nil || s.DVFS != nil || s.DAQ != nil)
}

func probValid(p float64) bool { return p >= 0 && p <= 1 }

// Validate rejects malformed specs with request-shaped errors, so external
// input (the job server, CLI flags) fails fast before any job runs.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.Thermal != nil {
		if err := s.Thermal.Validate(); err != nil {
			return fmt.Errorf("faults: thermal: %w", err)
		}
	}
	if d := s.DVFS; d != nil {
		if !probValid(d.DenyProb) || !probValid(d.DelayProb) {
			return fmt.Errorf("faults: dvfs probabilities must be in [0,1], got deny %g delay %g", d.DenyProb, d.DelayProb)
		}
		if d.Delay < 0 {
			return fmt.Errorf("faults: negative dvfs delay %v", d.Delay)
		}
		if d.DelayProb > 0 && d.Delay == 0 {
			return fmt.Errorf("faults: dvfs delay_prob %g set with zero delay_us", d.DelayProb)
		}
	}
	if q := s.DAQ; q != nil && !probValid(q.DropProb) {
		return fmt.Errorf("faults: daq drop_prob must be in [0,1], got %g", q.DropProb)
	}
	if s.StormAbort < 0 {
		return fmt.Errorf("faults: negative storm_abort %d", s.StormAbort)
	}
	return nil
}

// Injector realizes a Spec against one simulated device. It is
// single-goroutine, like the simulator whose callbacks drive it.
type Injector struct {
	spec Spec
	seed int64
	seq  map[string]uint64

	// Cached obs counter children, resolved once per injector.
	cDeny, cDelay, cDrop *obs.Counter
}

// NewInjector builds the injector for one run. extraSeed is mixed into the
// spec seed — pass the replayed trace's intrinsic seed so each experiment
// cell gets its own fault pattern.
func (s *Spec) NewInjector(extraSeed int64) *Injector {
	if s == nil {
		return nil
	}
	return &Injector{
		spec: *s, seed: s.Seed ^ extraSeed, seq: make(map[string]uint64),
		cDeny:  obsInjections.With("dvfs_deny"),
		cDelay: obsInjections.With("dvfs_delay"),
		cDrop:  obsInjections.With("daq_drop"),
	}
}

// Attach wires the injector's fault models into the CPU: the thermal
// governor and the DVFS transition faults. DAQ dropout attaches separately
// (AttachDAQ), since most runs never construct a sampler.
func (in *Injector) Attach(cpu *acmp.CPU) {
	if in == nil {
		return
	}
	if in.spec.Thermal != nil {
		cpu.EnableThermal(*in.spec.Thermal)
	}
	if in.spec.DVFS != nil {
		cpu.SetDVFSFaults(in)
	}
}

// AttachDAQ wires sample dropout into a DAQ sampler.
func (in *Injector) AttachDAQ(d *acmp.DAQ) {
	if in == nil || in.spec.DAQ == nil || in.spec.DAQ.DropProb <= 0 {
		return
	}
	d.SetDropout(in.DropSample)
}

// draw produces a uniform [0,1) variate for one named decision stream at a
// virtual instant. The value is an FNV-1a hash of (seed, stream, time,
// per-stream sequence number) — deterministic across runs and machines, and
// distinct for repeated decisions at the same instant.
func (in *Injector) draw(stream string, now sim.Time) float64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(in.seed))
	h.Write(buf[:])
	io.WriteString(h, stream)
	binary.LittleEndian.PutUint64(buf[:], uint64(now))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], in.seq[stream])
	h.Write(buf[:])
	in.seq[stream]++
	return float64(h.Sum64()>>11) / (1 << 53)
}

// Transition implements acmp.DVFSFaults.
func (in *Injector) Transition(now sim.Time) (deny bool, delay sim.Duration) {
	d := in.spec.DVFS
	if d == nil {
		return false, 0
	}
	if d.DenyProb > 0 && in.draw("dvfs-deny", now) < d.DenyProb {
		in.cDeny.Inc()
		return true, 0
	}
	if d.DelayProb > 0 && in.draw("dvfs-delay", now) < d.DelayProb {
		in.cDelay.Inc()
		return false, d.Delay
	}
	return false, 0
}

// DropSample reports whether the DAQ sample at now is lost.
func (in *Injector) DropSample(now sim.Time) bool {
	q := in.spec.DAQ
	if q != nil && q.DropProb > 0 && in.draw("daq-drop", now) < q.DropProb {
		in.cDrop.Inc()
		return true
	}
	return false
}

// StormAbort reports the configured fault-storm threshold (0 = disabled).
func (in *Injector) StormAbort() int {
	if in == nil {
		return 0
	}
	return in.spec.StormAbort
}
