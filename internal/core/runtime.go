package core

import (
	"fmt"
	"strings"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/dom"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// The runtime's tuning, as used in the evaluation.
const (
	// safety scales deadlines during selection to leave headroom.
	safety = 0.9
	// mispredictLimit is the consecutive-misprediction count that triggers
	// re-profiling.
	mispredictLimit = 3
	// idleGrace delays the first demotion (to the current cluster's
	// frequency floor) after the last annotated event completes.
	// Interaction events arrive in bursts (a tap is touchstart/touchend/
	// click within ~100 ms); demoting instantly between them would thrash
	// configurations (and pay the switch stalls) for no energy benefit,
	// since an idle CPU sleeps regardless of the programmed frequency.
	idleGrace = 120 * sim.Millisecond
	// deepIdleAfter is the sustained-idle delay before the second-stage
	// demotion to idleConfig (migrating off the big cluster), so that
	// unannotated activity arriving much later runs at the low-power
	// default rather than the parked big floor.
	deepIdleAfter = 800 * sim.Millisecond
	// degradeAfter is the consecutive-violation count at which a class
	// stops trusting its model and falls back to the best configuration
	// the hardware currently allows (Perf-within-cap) — the last rung of
	// the degradation ladder under thermal throttling or DVFS faults. The
	// class recovers (and reprofiles) after the same count of clean frames.
	degradeAfter = 4
)

// idleConfig is used when no annotated event is active: the overall
// lowest-power configuration.
var idleConfig = acmp.LowestConfig()

// Options tune the runtime.
type Options struct {
	// Scenario selects TI (imperceptible) or TU (usable) as the deadline.
	Scenario qos.Scenario
	// UAI optionally enables the Sec. 8 mis-annotation defense.
	UAI *UAIPolicy
	// BigOnly/LittleOnly restrict the configuration space to one cluster,
	// modelling the paper's single-cluster DVFS alternative (Sec. 10).
	BigOnly, LittleOnly bool
	// StageAware enables the per-stage configuration dimension (stage.go):
	// when the browser produces frames through the staged pipeline, the
	// runtime prepares a StageVector per frame and re-asserts it at each
	// phase barrier via OnRenderStage. Off, the runtime behaves exactly as
	// before — OnRenderStage becomes a no-op even on a staged engine.
	StageAware bool
}

// Stats counts runtime activity for reports and tests.
type Stats struct {
	AnnotatedInputs   int
	UnannotatedInputs int
	ProfilingFrames   int
	PredictedFrames   int
	Violations        int
	Reprofiles        int
	UAISuppressed     int

	// Fault-adversity counters (all zero on an unfaulted device).
	// CapClamps counts sweep results lowered to the thermal ceiling;
	// Degradations counts classes falling back to Perf-within-cap;
	// Recoveries counts degraded classes returning to model control.
	CapClamps    int
	Degradations int
	Recoveries   int
	// Ungranted counts configuration requests the CPU did not grant as
	// asked: denied by an injected DVFS fault, or clamped to a thermal
	// ceiling the request exceeded, which the runtime never asks for.
	Ungranted int
}

// Runtime is the GreenWeb runtime: a browser.Governor that consumes the
// page's QoS annotations and schedules the ACMP per frame.
type Runtime struct {
	opts Options

	e   *browser.Engine
	cpu *acmp.CPU
	pm  *acmp.PowerModel

	models map[string]*Model
	// active maps in-flight annotated input UIDs to their model key.
	active map[browser.UID]string

	idleTimer sim.Event

	// Degradation-ladder state, per class: consecutive violated frames,
	// consecutive clean frames while degraded, and the degraded flag
	// itself (class pinned to Perf-within-cap).
	violStreak  map[string]int
	cleanStreak map[string]int
	degraded    map[string]bool
	// capDiverge counts consecutive predicted frames whose measured latency
	// drifted far from the model while a thermal cap was active: under a
	// cap the executed configuration may differ from the one the model was
	// trained against (delayed or denied transitions), so sustained drift
	// triggers reprofiling even when no deadline is missed.
	capDiverge map[string]int

	// Per-stage vector for the frame in flight (StageAware only): computed
	// at OnFrameStart, applied at each OnRenderStage barrier. curStageOK
	// gates application so unannotated and profiling frames stay untouched.
	curStageVec StageVector
	curStageOK  bool

	stats Stats
}

// New returns a runtime with the given options.
func New(opts Options) *Runtime {
	return &Runtime{
		opts:        opts,
		models:      make(map[string]*Model),
		active:      make(map[browser.UID]string),
		violStreak:  make(map[string]int),
		cleanStreak: make(map[string]int),
		degraded:    make(map[string]bool),
		capDiverge:  make(map[string]int),
	}
}

// Name is the runtime's kind name ("GreenWeb-U", "GreenWeb-I-staged", …),
// which every frame decision it records carries as its governor.
func (r *Runtime) Name() string {
	usable := r.opts.Scenario == qos.Usable
	switch {
	case usable && r.opts.StageAware:
		return "GreenWeb-U-staged"
	case usable:
		return "GreenWeb-U"
	case r.opts.StageAware:
		return "GreenWeb-I-staged"
	}
	return "GreenWeb-I"
}

// Stats returns runtime activity counters.
func (r *Runtime) Stats() Stats { return r.stats }

// Attach implements browser.Governor.
func (r *Runtime) Attach(e *browser.Engine) {
	r.e = e
	r.cpu = e.CPU()
	r.pm = e.CPU().PowerModel()
	r.cpu.SetConfig(r.clamp(idleConfig))
	if r.opts.UAI != nil {
		r.opts.UAI.attach(e)
	}
}

// deadline applies the scenario to an annotation's target.
func (r *Runtime) deadline(ann qos.Annotation) sim.Duration {
	return r.opts.Scenario.Deadline(ann.Target)
}

func classKey(target *dom.Node, event string) string {
	path := "#document"
	if target != nil {
		path = target.Path()
	}
	return path + "@" + strings.ToLower(event)
}

// OnInput implements browser.Governor: look up the annotation for the
// event; annotated events get a configuration immediately (profiling or
// predicted) so the callback and frame run at the chosen operating point.
func (r *Runtime) OnInput(in browser.InputRecord, target *dom.Node) {
	node := target
	if node == nil && r.e.Doc() != nil {
		if els := r.e.Doc().GetElementsByTag("body"); len(els) > 0 {
			node = els[0]
		}
	}
	var ann qos.Annotation
	found := false
	if r.e.Annotations() != nil && node != nil {
		ann, found = r.e.Annotations().Lookup(node, in.Event)
	}
	if !found {
		r.stats.UnannotatedInputs++
		return
	}
	if r.opts.UAI != nil && r.opts.UAI.Suppressed(classKey(node, in.Event)) {
		r.stats.UAISuppressed++
		r.stats.UnannotatedInputs++
		return
	}
	r.stats.AnnotatedInputs++

	key := classKey(node, in.Event)
	m, ok := r.models[key]
	if !ok {
		m = NewModel(key, ann)
		r.models[key] = m
	}
	m.Ann = ann
	r.active[in.UID] = key
	r.reschedule()
}

// desired returns the configuration a model currently wants: its next
// profiling point while identifying, the energy-minimal feasible
// configuration once ready — always within the hardware's currently legal
// ceiling, and pinned at that ceiling (Perf-within-cap) while the class is
// degraded.
func (r *Runtime) desired(m *Model) acmp.Config {
	ceiling := r.cpu.Ceiling()
	if r.degraded[m.Key] {
		return ceiling
	}
	if cfg, profiling := m.ProfilingConfig(); profiling {
		return r.capTo(cfg, ceiling)
	}
	return m.SelectWithin(r.deadline(m.Ann), r.pm, safety, ceiling)
}

// capTo re-clamps a configuration to the legal ceiling, counting the clamp
// so reports can show how often the thermal cap bent the schedule.
func (r *Runtime) capTo(cfg, ceiling acmp.Config) acmp.Config {
	if cfg.Index() > ceiling.Index() {
		r.stats.CapClamps++
		return ceiling
	}
	return cfg
}

// reschedule sets the CPU to satisfy every in-flight annotated event: the
// highest-performance configuration any active model wants. A completed
// frame of a lax event must not drag the system below what a concurrent
// stricter event needs (e.g. a tap's touchstart settling on a little
// configuration while its click's heavyweight callback is still running).
func (r *Runtime) reschedule() {
	if len(r.active) == 0 {
		// Demote to the idle configuration only after a grace period:
		// interaction bursts would otherwise thrash the configuration.
		r.idleTimer.Cancel()
		r.idleTimer = r.e.Sim().After(idleGrace, "greenweb:idle", func() {
			if len(r.active) != 0 {
				return
			}
			// Stage 1: park at the current cluster's floor rather than
			// hopping clusters — sleep power is cluster-independent
			// (cpuidle), so migrating immediately would pay switch stalls
			// for nothing and inflate the migration count (cf. Fig. 12,
			// where frequency switches dwarf migrations).
			idle := acmp.MinConfig(r.cpu.Config().Cluster)
			r.cpu.SetConfig(r.clamp(idle))
			if idle.Cluster == idleConfig.Cluster {
				return
			}
			// Stage 2: after sustained idleness, fall back to the default
			// low-power configuration so late unannotated activity runs
			// cheaply.
			r.idleTimer = r.e.Sim().After(deepIdleAfter, "greenweb:deep-idle", func() {
				if len(r.active) == 0 {
					r.cpu.SetConfig(r.clamp(idleConfig))
				}
			})
		})
		return
	}
	r.idleTimer.Cancel()
	var best acmp.Config
	have := false
	for _, key := range r.active {
		m := r.models[key]
		if m == nil || m.Frameless() {
			continue
		}
		cfg := r.desired(m)
		if !have || cfg.Index() > best.Index() {
			best, have = cfg, true
		}
	}
	if !have {
		best = idleConfig
	}
	want := r.clamp(best)
	r.cpu.SetConfig(want)
	if r.cpu.Granted() != want {
		// An injected DVFS fault denied the transition; the feedback loop
		// will observe the stale configuration on the next frame.
		r.stats.Ungranted++
	}
}

// clamp restricts configurations to one cluster for the single-cluster
// ablation variants.
func (r *Runtime) clamp(cfg acmp.Config) acmp.Config {
	switch {
	case r.opts.BigOnly && cfg.Cluster == acmp.Little:
		return acmp.MinConfig(acmp.Big)
	case r.opts.LittleOnly && cfg.Cluster == acmp.Big:
		return acmp.MaxConfig(acmp.Little)
	default:
		return cfg
	}
}

// driving returns the model governing a frame: among the frame's
// provenance, the active annotated event with the tightest deadline (when
// several events batch into one frame, the strictest constraint must hold).
func (r *Runtime) driving(prov browser.Provenance) *Model {
	var best *Model
	var bestD sim.Duration
	// Ascending UID order resolves deadline ties deterministically.
	for _, uid := range prov.IDs() {
		key, ok := r.active[uid]
		if !ok {
			continue
		}
		m := r.models[key]
		if m == nil {
			continue
		}
		d := r.deadline(m.Ann)
		if best == nil || d < bestD {
			best, bestD = m, d
		}
	}
	return best
}

// OnFrameStart implements browser.Governor: re-assert the scheduling
// decision for this frame (the runtime operates per frame, Sec. 6.1).
func (r *Runtime) OnFrameStart(seq int, prov browser.Provenance) {
	m := r.driving(prov)
	if m != nil {
		r.reschedule()
	}
	r.annotateFrameStart(m)
	r.prepareStageVector(m)
}

// decision returns the open frame span's decision record, or nil when the
// engine keeps no ledger or no frame is open.
func (r *Runtime) decision() *ledger.FrameDecision {
	if led := r.e.Ledger(); led != nil {
		return led.Decision()
	}
	return nil
}

// annotateFrameStart records the scheduling decision on the frame's energy
// span: which class drives the frame, its deadline, and whether the chosen
// configuration is a profiling point or a model prediction.
func (r *Runtime) annotateFrameStart(m *Model) {
	d := r.decision()
	if d == nil {
		return
	}
	d.Governor = r.Name()
	d.Set |= ledger.FieldGovernor | ledger.FieldVerdict
	if ceil := r.cpu.Ceiling(); ceil != acmp.PeakConfig() {
		d.ThermalCap = ceil
		d.Set |= ledger.FieldThermalCap
	}
	if m == nil {
		d.Verdict = ledger.Unannotated
		return
	}
	d.Class, d.Deadline, d.Chosen = m.Key, r.deadline(m.Ann), r.cpu.Config()
	d.Set |= ledger.FieldClass | ledger.FieldDeadline
	if r.degraded[m.Key] {
		d.Verdict = ledger.Degraded
	} else if _, profiling := m.ProfilingConfig(); profiling {
		d.Verdict = ledger.Profile
	} else {
		d.Verdict = ledger.Predict
		d.Predicted = m.Predict(d.Chosen)
		d.Set |= ledger.FieldPredicted
	}
}

// OnFrameEnd implements browser.Governor: feed measured latencies back into
// the driving model — profiling samples while identifying, prediction
// feedback once ready (Sec. 6.2).
func (r *Runtime) OnFrameEnd(fr *browser.FrameResult) {
	// Frame accounting for every active class in the provenance, not just
	// the driving one, so frameless detection stays accurate.
	for _, uid := range fr.Provenance {
		if key, ok := r.active[uid]; ok {
			if m := r.models[key]; m != nil {
				m.SawFrame()
			}
		}
	}
	m := r.driving(fr.Provenance)
	if m == nil {
		return
	}
	if r.opts.StageAware && len(fr.Stages) > 0 {
		m.RecordStages(fr.Stages)
	}
	measured := r.measuredLatency(m, fr)
	if measured < 0 {
		return
	}
	if r.opts.UAI != nil {
		r.opts.UAI.chargeFrame(m.Key, fr)
		if r.opts.UAI.Suppressed(m.Key) {
			// Mid-event suppression: stop scheduling for this class — its
			// in-flight events are deactivated and the system returns to
			// the idle configuration.
			for uid, key := range r.active {
				if key == m.Key {
					delete(r.active, uid)
				}
			}
			r.stats.UAISuppressed++
			if len(r.active) == 0 {
				r.cpu.SetConfig(r.clamp(idleConfig))
			}
			return
		}
	}
	if r.degraded[m.Key] {
		// Perf-within-cap fallback: the model is out of the loop; only the
		// outcome streak matters (enough clean frames recover the class).
		violated := measured > r.deadline(m.Ann)
		if violated {
			r.stats.Violations++
		}
		r.noteOutcome(m, violated)
		r.annotateFeedback(measured, violated, false, ledger.ModeDegraded)
		r.reschedule()
		return
	}
	if !m.Ready() {
		m.RecordProfile(measured, fr.Config)
		r.stats.ProfilingFrames++
		violated := measured > r.deadline(m.Ann)
		if violated {
			r.stats.Violations++
		}
		r.annotateFeedback(measured, violated, false, ledger.ModeProfiled)
		// Move to the next profiling point (or first prediction) for any
		// follow-on frames of the same event.
		r.reschedule()
		return
	}
	r.stats.PredictedFrames++
	violated, reprofile := m.Feedback(measured, r.deadline(m.Ann), fr.Config, mispredictLimit)
	if violated {
		r.stats.Violations++
	}
	if !reprofile && r.divergedUnderCap(m, measured, fr.Config) {
		reprofile = true
	}
	if reprofile {
		m.Reset()
		r.stats.Reprofiles++
		r.capDiverge[m.Key] = 0
	}
	r.noteOutcome(m, violated)
	r.annotateFeedback(measured, violated, reprofile, ledger.ModePredicted)
	r.reschedule()
}

// divergedUnderCap reports whether a thermal cap is active and the measured
// latency has drifted beyond half the model's prediction at the executed
// configuration for more than mispredictLimit consecutive frames. Feedback's
// own misprediction counter only reacts to deadline misses and gross
// over-prediction; under a cap, delayed and denied DVFS transitions make
// frames run partly at a configuration the model never chose, producing
// drift that misses neither trigger yet still means the fit is stale.
func (r *Runtime) divergedUnderCap(m *Model, measured sim.Duration, executed acmp.Config) bool {
	if r.cpu.Ceiling() == acmp.PeakConfig() {
		r.capDiverge[m.Key] = 0
		return false
	}
	pred := m.Predict(executed)
	if pred <= 0 {
		return false
	}
	diff := measured - pred
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) <= 0.5*float64(pred) {
		r.capDiverge[m.Key] = 0
		return false
	}
	r.capDiverge[m.Key]++
	if r.capDiverge[m.Key] <= mispredictLimit {
		return false
	}
	return true
}

// noteOutcome advances the degradation ladder for a class: degradeAfter
// consecutive violated frames pin it to Perf-within-cap; degradeAfter
// consecutive clean frames while degraded hand control back to the model
// (with a fresh profile — the regime that broke the old fit has passed).
// Both transitions are annotated onto the still-open frame span.
func (r *Runtime) noteOutcome(m *Model, violated bool) {
	key := m.Key
	if violated {
		r.cleanStreak[key] = 0
		// Degradation is the response to a capped machine: while the full
		// configuration space is available, violations are the model's to fix
		// (profiling, reprofiling), not grounds for abandoning it. A class
		// already degraded keeps counting so a cleared cap can still recover.
		if !r.degraded[key] && r.cpu.Ceiling() == acmp.PeakConfig() {
			r.violStreak[key] = 0
			return
		}
		r.violStreak[key]++
		if !r.degraded[key] && r.violStreak[key] >= degradeAfter {
			r.degraded[key] = true
			r.violStreak[key] = 0
			r.stats.Degradations++
			if d := r.decision(); d != nil {
				d.Degrade = degradeAfter
				d.Set |= ledger.FieldDegrade
			}
		}
		return
	}
	r.violStreak[key] = 0
	if !r.degraded[key] {
		return
	}
	r.cleanStreak[key]++
	if r.cleanStreak[key] >= degradeAfter {
		r.degraded[key] = false
		r.cleanStreak[key] = 0
		r.stats.Recoveries++
		r.stats.Reprofiles++
		m.Reset()
		if d := r.decision(); d != nil {
			d.Recover = degradeAfter
			d.Set |= ledger.FieldRecover
		}
	}
}

// annotateFeedback records the measured-latency feedback outcome on the
// frame's energy span (the frame is still open: the engine closes it after
// OnFrameEnd returns).
func (r *Runtime) annotateFeedback(measured sim.Duration, violated, reprofile bool, mode ledger.Mode) {
	if d := r.decision(); d != nil {
		d.Measured, d.Mode, d.Violated, d.Reprofile = measured, mode, violated, reprofile
		d.Set |= ledger.FieldMeasured | ledger.FieldOutcome
	}
}

// measuredLatency extracts the latency the annotation's QoS type is judged
// by: end-to-end input latency for single (the one response frame),
// per-frame production latency for continuous (every frame in the
// sequence) — paper Sec. 3.2/3.3.
func (r *Runtime) measuredLatency(m *Model, fr *browser.FrameResult) sim.Duration {
	if m.Ann.Type == qos.Continuous {
		return fr.ProductionLatency
	}
	for _, il := range fr.Inputs {
		if key, ok := r.active[il.Input.UID]; ok && key == m.Key {
			return il.Latency
		}
	}
	return -1
}

// OnEventComplete implements browser.Governor: once an event's transitive
// closure is exhausted the system conserves energy ("allocate just enough
// energy to produce the single response frame and conserve energy
// afterwards", Sec. 3.2).
func (r *Runtime) OnEventComplete(uid browser.UID) {
	key, ok := r.active[uid]
	if !ok {
		return
	}
	if m := r.models[key]; m != nil {
		m.SawCompletion()
	}
	delete(r.active, uid)
	r.reschedule()
}

// Models exposes the per-class models (for tests and the ablation bench).
func (r *Runtime) Models() map[string]*Model { return r.models }

// ExportModels returns the trained per-class models so they can seed a
// later run (the paper repeats each experiment three times on a device
// whose runtime retains its models; see ImportModels).
func (r *Runtime) ExportModels() map[string]*Model {
	out := make(map[string]*Model, len(r.models))
	for k, m := range r.models {
		out[k] = m
	}
	return out
}

// ImportModels seeds the runtime with copies of previously trained models,
// so the runtime's training never mutates the originals: one set can seed
// any number of runs. Each copy's memoized sweep is invalidated: the
// importing runtime may pass a different power model or thermal ceiling
// than the one the cache was filled under.
func (r *Runtime) ImportModels(ms map[string]*Model) {
	for k, m := range ms {
		c := *m
		c.Invalidate()
		r.models[k] = &c
	}
}

func (r *Runtime) String() string {
	return fmt.Sprintf("%s{models=%d active=%d}", r.Name(), len(r.models), len(r.active))
}
