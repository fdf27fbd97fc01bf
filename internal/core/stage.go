package core

// Per-stage configuration vectors (the PR 9 scheduling dimension). When the
// browser produces frames through the staged pipeline (internal/browser's
// stage graph), the runtime no longer has to pick ONE configuration for the
// whole frame: each render phase — style, layout, paint — starts at a phase
// barrier where every stage core is momentarily idle, so the configuration
// can change there, paying exactly the hardware's frequency-switch (and
// migration) stall. A config therefore generalizes from a scalar to a
// per-stage assignment vector.
//
// Why a vector can beat the best scalar at equal QoS: SelectWithin's uniform
// answer is quantized to the DVFS ladder, so the chosen rung typically leaves
// slack between the predicted latency and the deadline bound — slack the
// whole frame pays peak power for. A vector can spend that slack on ONE
// phase (step just the style phase down a rung, say) while the others stay
// put, recovering energy the scalar ladder cannot express. The selector
// below is a deterministic greedy descent from the uniform answer that
// accepts only feasible, strictly energy-decreasing single-stage step-downs,
// with the boundary switch stalls priced into both latency and energy.

import (
	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// NumStages is the number of staged render phases a vector assigns.
const NumStages = browser.NumRenderStages

// StageVector assigns one execution configuration to each staged render
// phase, indexed by browser.RenderStage. It is the ledger's type, so a frame's
// decision record carries it as is.
type StageVector = ledger.StageVector

// stageSelMemo caches the last SelectStageVector result, keyed on everything
// the greedy descent reads. stageVersion isolates it from the uniform memo:
// new stage observations invalidate only this entry, and bias/profile
// mutations (version) invalidate both.
type stageSelMemo struct {
	valid        bool
	version      int
	stageVersion int
	deadline     sim.Duration
	safety       float64
	ceiling      acmp.Config
	pm           *acmp.PowerModel
	result       StageVector
}

// RecordStages feeds one staged frame's per-phase timings into the model.
// Cycle counts are work, not time — config-independent, like nBig — so a
// single observation suffices and repeats are cheap no-ops. Only a changed
// observation bumps stageVersion (the stage memo's key); the uniform sweep
// memo is untouched either way.
func (m *Model) RecordStages(stages []browser.StageTiming) {
	var crit, total [NumStages]float64
	seen := 0
	for _, st := range stages {
		s := int(st.Stage)
		if s < 0 || s >= NumStages {
			return
		}
		crit[s] = float64(st.CritCycles)
		total[s] = float64(st.TotalCycles)
		seen++
	}
	if seen != NumStages {
		return
	}
	if m.stageValid && crit == m.stageCrit && total == m.stageTotal {
		return
	}
	m.stageCrit, m.stageTotal = crit, total
	m.stageValid = true
	m.stageVersion++
	m.stageSel.valid = false
}

// StageParams exposes the recorded per-stage (critical-path, total) cycle
// observations for inspection and tests.
func (m *Model) StageParams() (crit, total [NumStages]float64, ok bool) {
	return m.stageCrit, m.stageTotal, m.stageValid
}

// stagePredictSeconds estimates the frame latency (seconds) of a staged
// frame under vec, as a relative adjustment from the calibrated uniform
// prediction at base: each stage's critical-path cycles move from k(base) to
// k(vec[s]), and every configuration change at a phase boundary — including
// the entry switch base→vec[style] — stalls the pipeline for the hardware
// switch penalty (plus the migration penalty across clusters).
func (m *Model) stagePredictSeconds(base acmp.Config, vec StageVector) float64 {
	t := m.tIndep + m.nBig*m.kOf(base)
	kb := m.kOf(base)
	prev := base
	for s := 0; s < NumStages; s++ {
		t += m.stageCrit[s] * (m.kOf(vec[s]) - kb)
		if vec[s] != prev {
			t += acmp.FreqSwitchPenalty.Seconds()
			if vec[s].Cluster != prev.Cluster {
				t += acmp.MigrationPenalty.Seconds()
			}
		}
		prev = vec[s]
	}
	return t
}

// stageEnergyScore ranks candidate vectors: per-stage active energy (total
// cycles across shards at the stage's configuration) plus cluster-static
// energy over the stage window (the critical path), plus the stall energy of
// each boundary switch, plus race-to-idle sleep for the rest of the horizon.
// Work outside the staged phases runs at base in every candidate and is a
// constant, so it is omitted — only differences matter to the descent.
func (m *Model) stageEnergyScore(base acmp.Config, vec StageVector, pm *acmp.PowerModel, horizon sim.Duration) float64 {
	e := 0.0
	prev := base
	for s := 0; s < NumStages; s++ {
		cfg := vec[s]
		k := m.kOf(cfg)
		e += float64(pm.CoreActive(cfg))*m.stageTotal[s]*k +
			float64(pm.ClusterStatic(cfg))*m.stageCrit[s]*k
		if cfg != prev {
			stall := acmp.FreqSwitchPenalty.Seconds()
			if cfg.Cluster != prev.Cluster {
				stall += acmp.MigrationPenalty.Seconds()
			}
			e += stall * float64(pm.CoreActive(prev)+pm.ClusterStatic(prev))
		}
		prev = cfg
	}
	rest := horizon.Seconds() - m.stagePredictSeconds(base, vec)
	if rest < 0 {
		rest = 0
	}
	e += float64(pm.Sleep(base.Cluster)) * rest
	return e
}

// SelectStageVector picks the per-stage configuration vector for a frame:
// the uniform SelectWithin answer as the base, then a deterministic greedy
// descent that repeatedly applies the single-stage step-down with the lowest
// predicted energy among those whose predicted latency still meets
// deadline×safety (switch stalls included). Ties break toward the lowest
// stage index; only strict energy improvements are taken, so the descent
// terminates and never does worse than uniform in the model's own terms.
//
// ok=false means the model is not ready (the caller should leave scheduling
// to the scalar path). Before any staged frame has been observed — or while
// feedback bias indicates the class is struggling — the uniform vector is
// returned: per-stage slack-spending is an optimization for healthy,
// calibrated classes only.
func (m *Model) SelectStageVector(deadline sim.Duration, pm *acmp.PowerModel, safety float64, ceiling acmp.Config) (StageVector, bool) {
	if m.phase != ready {
		return StageVector{}, false
	}
	base := m.SelectWithin(deadline, pm, safety, ceiling)
	var uniform StageVector
	for s := range uniform {
		uniform[s] = base
	}
	if !m.stageValid || m.bias > 0 {
		return uniform, true
	}
	if m.stageSel.valid && m.stageSel.version == m.version &&
		m.stageSel.stageVersion == m.stageVersion &&
		m.stageSel.deadline == deadline && m.stageSel.safety == safety &&
		m.stageSel.ceiling == ceiling && m.stageSel.pm == pm {
		return m.stageSel.result, true
	}
	boundSec := sim.Duration(float64(deadline) * safety).Seconds()
	vec := uniform
	curE := m.stageEnergyScore(base, vec, pm, deadline)
	for {
		bestS := -1
		var bestVec StageVector
		bestE := curE
		for s := 0; s < NumStages; s++ {
			down, ok := vec[s].StepDown()
			if !ok {
				continue
			}
			cand := vec
			cand[s] = down
			if m.stagePredictSeconds(base, cand) > boundSec {
				continue
			}
			if e := m.stageEnergyScore(base, cand, pm, deadline); e < bestE {
				bestS, bestVec, bestE = s, cand, e
			}
		}
		if bestS < 0 {
			break
		}
		vec, curE = bestVec, bestE
	}
	m.stageSel = stageSelMemo{true, m.version, m.stageVersion, deadline, safety, ceiling, pm, vec}
	return vec, true
}

// prepareStageVector computes (or clears) the per-stage vector the engine's
// OnRenderStage hooks will apply during the frame that is starting. The
// stage dimension follows the degradation ladder exactly like the scalar
// path: a degraded class is pinned to Perf-within-cap (no vector), and a
// profiling class must run its profiling point undisturbed.
func (r *Runtime) prepareStageVector(m *Model) {
	r.curStageOK = false
	if !r.opts.StageAware || m == nil || !m.Ready() || r.degraded[m.Key] {
		return
	}
	vec, ok := m.SelectStageVector(r.deadline(m.Ann), r.pm, safety, r.cpu.Ceiling())
	if !ok {
		return
	}
	r.curStageVec = vec
	r.curStageOK = true
	if d := r.decision(); d != nil && !vec.Uniform() {
		d.Stages = vec
		d.Set |= ledger.FieldStages
	}
}

// OnRenderStage implements browser.StageGovernor: at each phase barrier of a
// staged frame, apply that stage's configuration from the prepared vector.
// The re-clamp to the live ceiling is per stage — a thermal trip mid-frame
// caps the remaining stages just as SelectWithin's results are re-clamped
// per frame (counted in Stats.CapClamps).
func (r *Runtime) OnRenderStage(seq int, stage browser.RenderStage) {
	if !r.curStageOK || int(stage) < 0 || int(stage) >= NumStages {
		return
	}
	r.cpu.SetConfig(r.clamp(r.capTo(r.curStageVec[stage], r.cpu.Ceiling())))
}
