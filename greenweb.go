// Package greenweb is the public API of the GreenWeb reproduction: CSS
// language extensions for expressing user quality-of-service expectations
// (QoS type and QoS target) in mobile Web applications, a browser runtime
// that schedules an ARM big.LITTLE processor per frame to meet those
// expectations with minimal energy, and the AUTOGREEN automatic annotator —
// per "GreenWeb: Language Extensions for Energy-Efficient Mobile Web
// Computing" (Zhu & Reddi, PLDI 2016).
//
// A Session loads an HTML application (whose style sheets may carry
// GreenWeb `:QoS` rules) into a simulated browser engine over a simulated
// Exynos 5410-class asymmetric CPU, drives user interactions against it,
// and measures frame latencies, QoS violations, and CPU energy:
//
//	s, _ := greenweb.Open(pageHTML, greenweb.GreenWebPolicy(greenweb.Imperceptible))
//	s.Tap("menu")
//	s.Settle()
//	fmt.Println(s.Energy(), s.Violation(greenweb.Imperceptible))
//
// Policies select the CPU governor: the GreenWeb runtime under either
// usage scenario, the Perf/Interactive/Ondemand/Powersave baselines, EBS,
// or any other governor of the evaluation by name (ParsePolicy).
package greenweb

import (
	"context"
	"fmt"

	"github.com/wattwiseweb/greenweb/internal/autogreen"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/css"
	"github.com/wattwiseweb/greenweb/internal/device"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/metrics"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// Scenario selects which QoS target the runtime optimizes for, following
// the paper's battery-driven usage scenarios.
type Scenario = qos.Scenario

// The two usage scenarios (paper Sec. 7.1).
const (
	// Imperceptible: battery is abundant; deliver the TI target.
	Imperceptible = qos.Imperceptible
	// Usable: battery is tight; deliver the TU target.
	Usable = qos.Usable
)

// Policy names a CPU scheduling policy for a Session: one of the governors
// the evaluation runs (the GreenWeb runtime, its baselines and variants).
type Policy struct{ kind harness.Kind }

// Name reports the policy's display name.
func (p Policy) Name() string { return string(p.kind) }

// ParsePolicy resolves a policy by display name, in any case: "GreenWeb-I",
// "greenweb-u", "perf", "EBS", and the evaluation's other governors (the
// single-cluster variants). It refuses "GreenWeb-I-staged": a Session
// renders every frame serially, so the staged runtime would have no stages
// to schedule and would run as GreenWeb-I.
func ParsePolicy(name string) (Policy, error) {
	k, err := harness.ParseKind(name)
	if err != nil {
		return Policy{}, fmt.Errorf("greenweb: unknown policy %q", name)
	}
	if k == harness.GreenWebIStaged {
		return Policy{}, fmt.Errorf("greenweb: policy %s needs a staged render pipeline, and a session renders serially; "+
			"run it with greenbench -stage-workers or a greensrv sweep's stage_workers", k)
	}
	return Policy{k}, nil
}

// GreenWebPolicy is the paper's contribution: the annotation-driven runtime
// under the given scenario.
func GreenWebPolicy(s Scenario) Policy {
	if s == Usable {
		return Policy{harness.GreenWebU}
	}
	return Policy{harness.GreenWebI}
}

// PerfPolicy pins peak performance (best QoS, worst energy).
func PerfPolicy() Policy { return Policy{harness.Perf} }

// InteractivePolicy models Android's default interactive governor.
func InteractivePolicy() Policy { return Policy{harness.Interactive} }

// OndemandPolicy models the classic Linux ondemand governor.
func OndemandPolicy() Policy { return Policy{harness.Ondemand} }

// PowersavePolicy pins the lowest-power configuration.
func PowersavePolicy() Policy { return Policy{harness.Powersave} }

// EBSPolicy models annotation-free event-based scheduling (the related-work
// system of paper Sec. 9), which guesses user tolerance from measured event
// latency instead of reading annotations.
func EBSPolicy() Policy { return Policy{harness.EBSKind} }

// Session is one loaded application on one simulated device.
type Session struct {
	dev        *device.Device
	colI, colU *metrics.Collector
}

// Open loads the HTML application under the policy and runs the loading
// phase to completion (through the first meaningful frame).
func Open(html string, policy Policy) (*Session, error) {
	if policy.kind == "" {
		return nil, fmt.Errorf("greenweb: zero Policy; use GreenWebPolicy, a baseline constructor or ParsePolicy")
	}
	dev, err := device.New(harness.NewGovernor(policy.kind), 0, nil, 0)
	if err != nil {
		return nil, err
	}
	if _, err := dev.Engine.LoadPage(html); err != nil {
		dev.Close()
		return nil, err
	}
	s := &Session{dev: dev}
	cols := metrics.NewCollectors(dev.Engine, Imperceptible, Usable)
	s.colI, s.colU = cols[0], cols[1]
	s.Settle()
	return s, nil
}

// Now reports the session's virtual time.
func (s *Session) Now() sim.Time { return s.dev.Sim.Now() }

// Tap performs a tapping interaction (touchstart, touchend, click) on the
// element with the given id, starting a small delay from now.
func (s *Session) Tap(targetID string) {
	e, at := s.dev.Engine, s.Now().Add(10*sim.Millisecond)
	e.Inject(at, "touchstart", targetID, nil)
	e.Inject(at.Add(80*sim.Millisecond), "touchend", targetID, nil)
	e.Inject(at.Add(85*sim.Millisecond), "click", targetID, nil)
	s.dev.Sim.RunUntil(at.Add(86 * sim.Millisecond))
}

// Swipe performs a moving interaction: touchstart, n touchmove samples gap
// apart, touchend.
func (s *Session) Swipe(targetID string, n int, gap sim.Duration) {
	e, at := s.dev.Engine, s.Now().Add(10*sim.Millisecond)
	e.Inject(at, "touchstart", targetID, nil)
	for i := 0; i < n; i++ {
		e.Inject(at.Add(sim.Duration(i+1)*gap), "touchmove", targetID,
			map[string]float64{"deltaY": 24})
	}
	e.Inject(at.Add(sim.Duration(n+1)*gap), "touchend", targetID, nil)
	s.dev.Sim.RunUntil(at.Add(sim.Duration(n+1) * gap))
}

// RunFor advances virtual time by d, processing whatever is scheduled.
func (s *Session) RunFor(d sim.Duration) { s.dev.Sim.RunFor(d) }

// Settle runs until the engine is quiescent (all frames produced, no
// pending animation), bounded at 60 virtual seconds. It cannot fail: nothing
// cancels a session's context.
func (s *Session) Settle() { _ = s.dev.Settle(context.Background(), 60*sim.Second) }

// Energy reports total CPU energy consumed so far, in joules.
func (s *Session) Energy() float64 { return float64(s.dev.CPU.Energy()) }

// Frames reports the frames produced so far.
func (s *Session) Frames() []browser.FrameResult { return s.dev.Engine.Results() }

// Violation reports the run's QoS violation percentage (geometric mean
// over annotated frames) judged under the given scenario.
func (s *Session) Violation(sc Scenario) float64 {
	if sc == Usable {
		return s.colU.Violation()
	}
	return s.colI.Violation()
}

// LoadLatency reports the first-meaningful-frame latency of the load.
func (s *Session) LoadLatency() sim.Duration {
	frames := s.dev.Engine.Results()
	if len(frames) == 0 || len(frames[0].Inputs) == 0 {
		return 0
	}
	return frames[0].Inputs[0].Latency
}

// Config reports the current CPU execution configuration as a string
// (e.g. "big@1800MHz").
func (s *Session) Config() string { return s.dev.CPU.Config().String() }

// Residency reports the fraction of time spent per configuration.
func (s *Session) Residency() map[string]float64 {
	out := map[string]float64{}
	var total float64
	res := s.dev.CPU.Residency()
	for _, d := range res {
		total += d.Seconds()
	}
	if total == 0 {
		return out
	}
	for cfg, d := range res {
		out[cfg.String()] = d.Seconds() / total
	}
	return out
}

// Switches reports configuration changes so far (frequency switches and
// cluster migrations).
func (s *Session) Switches() (freqSwitches, migrations int) {
	st := s.dev.CPU.Stats()
	return st.FreqSwitches, st.Migrations
}

// ConsoleLines returns the application's console output.
func (s *Session) ConsoleLines() []string { return s.dev.Engine.ConsoleLines() }

// ScriptErrors returns any script failures (logged, not fatal).
func (s *Session) ScriptErrors() []error { return s.dev.Engine.ScriptErrors() }

// Stop ends the session's measurement: it releases governor timers so the
// simulation can drain, and closes the session's energy ledger, returning
// its conservation check (every joule the meter counted must be attributed
// to exactly one frame or idle span). The session stays readable and can
// still be driven; energy drawn afterwards is metered but not attributed.
// Stopping again returns nil.
func (s *Session) Stop() error {
	_, _, err := s.dev.Close()
	return err
}

// Annotations lists the GreenWeb annotations that resolve against the
// loaded document, as human-readable strings.
func (s *Session) Annotations() []string {
	var out []string
	e := s.dev.Engine
	for _, na := range e.Annotations().Annotations(e.Doc()) {
		out = append(out, na.Node.Path()+" { "+na.Annotation.String()+" }")
	}
	return out
}

// ---- Annotation tooling ----

// AutoAnnotate runs AUTOGREEN on an application: it discovers every
// (element, event) listener pair, profiles each callback to classify its
// QoS type, and returns the HTML with generated GreenWeb rules injected.
func AutoAnnotate(html string) (annotated string, report *autogreen.Report, err error) {
	return autogreen.Annotate(html)
}

// Analyze runs AUTOGREEN's discovery and profiling phases without
// modifying the source.
func Analyze(html string) (*autogreen.Report, error) { return autogreen.Analyze(html) }

// CheckAnnotations parses CSS text and returns the GreenWeb annotations it
// declares, reporting malformed QoS values as errors. Useful for linting
// hand-written rules.
func CheckAnnotations(cssText string) ([]string, []error) {
	sheet, errs := css.Parse(cssText)
	var out []string
	for _, rule := range sheet.Rules {
		for _, d := range rule.Decls {
			ev, ok := css.IsQoSProperty(d.Property)
			if !ok {
				continue
			}
			ann, err := css.ParseQoSValue(ev, d.Value)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			for _, sel := range rule.Selectors {
				if !sel.HasQoS() {
					errs = append(errs, fmt.Errorf("greenweb: rule %q declares %s but its selector lacks :QoS", sel.String(), d.Property))
					continue
				}
				out = append(out, sel.String()+" { "+ann.String()+" }")
			}
		}
	}
	return out, errs
}
