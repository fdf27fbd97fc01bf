// Package core implements the GreenWeb runtime (paper Sec. 6): the browser
// component that consumes QoS annotations and chooses, per frame, the ACMP
// execution configuration that meets the QoS target with minimal energy.
//
// Pieces, mapped to the paper:
//
//   - model.go — the DVFS analytical performance model
//     T = T_independent + N_nonoverlap/f (Equ. 1), solved online from two
//     profiling runs (one at the overall peak configuration, one at the
//     overall minimum), plus a static power model for energy prediction
//     (Sec. 6.2);
//   - runtime.go — the governor: annotation lookup on input, per-frame
//     configuration prediction, measured-latency feedback with step
//     adjustments and re-profiling, and event-closure handling (Sec. 6.2,
//     6.4);
//   - uai.go — the user-agent-intervention defense against mis-annotation
//     sketched in Sec. 8: an energy budget past which overly aggressive
//     annotations are ignored.
package core

import (
	"fmt"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// AssumedMicroArchRatio is the runtime's built-in estimate of how many
// little-core cycles correspond to one big-core cycle. The paper's runtime
// hard-codes statically profiled hardware characteristics (Sec. 6.2); this
// plays that role for the cycle ratio, letting two profiling runs identify
// a three-parameter model.
const AssumedMicroArchRatio = 1.8

// modelPhase tracks how far a per-event-class model has been identified.
type modelPhase int

const (
	// needPeakProfile: next frame runs at the peak configuration.
	needPeakProfile modelPhase = iota
	// needMinProfile: next frame runs at the minimum configuration.
	needMinProfile
	// ready: the model predicts and adapts.
	ready
)

// Model is the per-event-class performance/energy model. An event class is
// one (element, event) pair: repeated occurrences of the same interaction
// share and refine one model, and a continuous event's frames train it
// frame over frame.
type Model struct {
	Key string
	Ann qos.Annotation

	phase modelPhase
	s1    profileSample // first profiling measurement

	// Identified parameters (Equ. 1), in seconds / big-core cycles.
	tIndep float64
	nBig   float64

	// bias shifts the selected configuration up the performance order when
	// feedback observed violations (+1 per step).
	bias int
	// consecutive mispredictions; reaching the runtime's limit triggers
	// re-profiling.
	mispredicts int
	ratio       float64

	// Frame accounting for frameless-class detection: an annotated event
	// whose dispatches complete without ever producing a frame (a
	// touchend listener that only updates bookkeeping state, say) has no
	// frame latency to optimize, so scheduling for it would pin high
	// configurations for nothing.
	framesSeen  int
	completions int

	// version counts every mutation that can change what SelectWithin
	// returns: re-identification (RecordProfile), Reset, and bias steps
	// from Feedback. The memoized sweep below is keyed on it.
	version int
	sel     selMemo

	// Per-stage critical-path and total cycle observations from staged
	// frame production (stage.go). stageVersion counts their mutations so
	// the stage-vector memo can key on them without invalidating the
	// uniform sweep memo above.
	stageValid   bool
	stageCrit    [NumStages]float64
	stageTotal   [NumStages]float64
	stageVersion int
	stageSel     stageSelMemo
}

// selMemo caches the last SelectWithin result. The runtime issues the same
// sweep on every steady-state frame of a continuous event — same model
// state, deadline, safety, ceiling, power model — so a single entry keyed on
// those inputs collapses the per-frame sweep of the whole configuration
// space to a comparison.
type selMemo struct {
	valid    bool
	version  int
	deadline sim.Duration
	safety   float64
	ceiling  acmp.Config
	pm       *acmp.PowerModel
	result   acmp.Config
}

// SawFrame records that a frame was attributed to this class.
func (m *Model) SawFrame() { m.framesSeen++ }

// SawCompletion records that an event of this class completed.
func (m *Model) SawCompletion() { m.completions++ }

// Frameless reports whether the class has completed at least once without
// any frame ever being attributed to it.
func (m *Model) Frameless() bool { return m.completions >= 1 && m.framesSeen == 0 }

// NewModel returns an unidentified model for an annotation.
func NewModel(key string, ann qos.Annotation) *Model {
	return &Model{Key: key, Ann: ann, ratio: AssumedMicroArchRatio}
}

// Ready reports whether the model has been identified.
func (m *Model) Ready() bool { return m.phase == ready }

// profileSample is one measured (configuration, latency) pair.
type profileSample struct {
	latency sim.Duration
	cfg     acmp.Config
}

// ProfilingConfig returns the configuration the next profiling frame should
// run at, and ok=false if profiling is complete. The runtime requests the
// overall peak then the overall minimum — the best-conditioned pair for
// solving Equ. 1 — but concurrent in-flight events may override the actual
// executed configuration, so identification accepts samples from whatever
// really ran (see RecordProfile).
func (m *Model) ProfilingConfig() (acmp.Config, bool) {
	switch m.phase {
	case needPeakProfile:
		return acmp.PeakConfig(), true
	case needMinProfile:
		return acmp.LowestConfig(), true
	default:
		return acmp.Config{}, false
	}
}

// kOf is the per-cycle slowdown of a configuration relative to big-core
// cycles: T = T_ind + N_big · k(cfg).
func (m *Model) kOf(cfg acmp.Config) float64 {
	k := 1.0 / cfg.HzF()
	if cfg.Cluster == acmp.Little {
		k *= m.ratio
	}
	return k
}

// RecordProfile feeds a profiling measurement taken at the configuration
// the frame actually executed at. Once two samples at distinct speeds
// exist, the model solves Equ. 1:
//
//	T1 = T_ind + N_big·k(cfg1)
//	T2 = T_ind + N_big·k(cfg2)
//
// If the second sample ran at the same speed as the first (a concurrent
// event pinned the configuration), the fresher measurement replaces the
// first and identification keeps waiting.
func (m *Model) RecordProfile(latency sim.Duration, cfg acmp.Config) {
	m.Invalidate()
	switch m.phase {
	case needPeakProfile:
		m.s1 = profileSample{latency, cfg}
		m.phase = needMinProfile
	case needMinProfile:
		if m.kOf(cfg) == m.kOf(m.s1.cfg) {
			m.s1 = profileSample{latency, cfg}
			return
		}
		m.solve(profileSample{latency, cfg})
		m.phase = ready
	}
}

func (m *Model) solve(s2 profileSample) {
	k1, k2 := m.kOf(m.s1.cfg), m.kOf(s2.cfg)
	t1, t2 := m.s1.latency.Seconds(), s2.latency.Seconds()
	n := (t2 - t1) / (k2 - k1)
	if n < 0 {
		n = 0
	}
	m.nBig = n
	m.tIndep = t1 - n*k1
	if m.tIndep < 0 {
		m.tIndep = 0
	}
}

// Params exposes the identified (T_independent, N_nonoverlap-big) pair for
// inspection and tests.
func (m *Model) Params() (tIndepSec float64, nBigCycles float64) {
	return m.tIndep, m.nBig
}

// cycles reports the model's cycle estimate on a cluster.
func (m *Model) cycles(c acmp.Cluster) float64 {
	if c == acmp.Big {
		return m.nBig
	}
	return m.nBig * m.ratio
}

// Predict estimates the frame latency at a configuration (Equ. 1).
func (m *Model) Predict(cfg acmp.Config) sim.Duration {
	t := m.tIndep + m.cycles(cfg.Cluster)/cfg.HzF()
	return sim.Duration(t*1e6 + 0.5)
}

// PredictEnergy estimates the frame's CPU energy at a configuration over a
// horizon (the QoS deadline): active power while computing, idle power for
// the remainder (race-to-idle accounting).
func (m *Model) PredictEnergy(cfg acmp.Config, pm *acmp.PowerModel, horizon sim.Duration) acmp.Joules {
	tCPU := m.cycles(cfg.Cluster) / cfg.HzF()
	busy := acmp.Joules(float64(pm.CoreActive(cfg)+pm.ClusterStatic(cfg)) * tCPU)
	rest := horizon.Seconds() - tCPU
	if rest < 0 {
		rest = 0
	}
	idle := acmp.Joules(float64(pm.Sleep(cfg.Cluster)) * rest)
	return busy + idle
}

// Select sweeps every execution configuration (Sec. 6.2: "the GreenWeb
// runtime sweeps all possible core and frequency combinations") and returns
// the minimum-energy configuration whose predicted latency meets the
// deadline scaled by safety (< 1 leaves headroom). If none meets it, the
// peak configuration is returned. Feedback bias shifts the result up the
// performance order.
func (m *Model) Select(deadline sim.Duration, pm *acmp.PowerModel, safety float64) acmp.Config {
	return m.SelectWithin(deadline, pm, safety, acmp.PeakConfig())
}

// SelectWithin is Select restricted to configurations at or below ceiling —
// the legal operating range while the thermal governor caps the frequency.
// When no legal configuration meets the deadline, the ceiling itself (the
// best QoS available under the cap) is returned, and the feedback bias
// never steps past it.
func (m *Model) SelectWithin(deadline sim.Duration, pm *acmp.PowerModel, safety float64, ceiling acmp.Config) acmp.Config {
	if m.sel.valid && m.sel.version == m.version &&
		m.sel.deadline == deadline && m.sel.safety == safety &&
		m.sel.ceiling == ceiling && m.sel.pm == pm {
		return m.sel.result
	}
	bound := sim.Duration(float64(deadline) * safety)
	ceilIdx := ceiling.Index()
	best := ceiling
	bestE := acmp.Joules(-1)
	for i := 0; i <= ceilIdx; i++ {
		cfg := acmp.ConfigAt(i)
		if m.Predict(cfg) > bound {
			continue
		}
		e := m.PredictEnergy(cfg, pm, deadline)
		if bestE < 0 || e < bestE {
			best, bestE = cfg, e
		}
	}
	for i := 0; i < m.bias; i++ {
		up, ok := best.StepUp()
		if !ok || up.Index() > ceilIdx {
			break
		}
		best = up
	}
	m.sel = selMemo{true, m.version, deadline, safety, ceiling, pm, best}
	return best
}

// Invalidate drops the memoized sweep result and marks the model mutated.
// Every state change that can alter selection calls it; external callers
// that import models wholesale (Runtime.ImportModels) call it defensively.
func (m *Model) Invalidate() {
	m.version++
	m.sel.valid = false
}

// Feedback digests a measured frame latency against the deadline and the
// model's last prediction for the executed configuration. Under-prediction
// (a QoS violation) steps the bias up; comfortable over-prediction steps it
// back down. It reports needReprofile=true when consecutive mispredictions
// exceed limit, at which point the caller resets the model (Sec. 6.2:
// "initiates new profilings to recalibrate").
func (m *Model) Feedback(measured, deadline sim.Duration, executed acmp.Config, limit int) (violated, needReprofile bool) {
	if m.phase != ready {
		return false, false
	}
	predicted := m.Predict(executed)
	switch {
	case measured > deadline:
		m.bias++
		m.Invalidate()
		m.mispredicts++
	case predicted > 0 && measured*2 < predicted:
		// Model grossly over-predicts: also a misprediction, opposite sign.
		if m.bias > 0 {
			m.bias--
			m.Invalidate()
		}
		m.mispredicts++
	case measured*2 < deadline && m.bias > 0:
		m.bias--
		m.Invalidate()
		m.mispredicts = 0
	default:
		m.mispredicts = 0
	}
	if m.mispredicts > limit {
		return measured > deadline, true
	}
	return measured > deadline, false
}

// Reset discards identification and returns the model to profiling.
func (m *Model) Reset() {
	m.Invalidate()
	m.phase = needPeakProfile
	m.bias = 0
	m.mispredicts = 0
	m.tIndep = 0
	m.nBig = 0
}

func (m *Model) String() string {
	return fmt.Sprintf("model{%s phase=%d tind=%.3fms nbig=%.0f bias=%d}",
		m.Key, m.phase, m.tIndep*1e3, m.nBig, m.bias)
}
