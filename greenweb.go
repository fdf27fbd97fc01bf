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
// usage scenario, or the Perf/Interactive/Ondemand/Powersave baselines.
package greenweb

import (
	"fmt"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/autogreen"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/core"
	"github.com/wattwiseweb/greenweb/internal/css"
	"github.com/wattwiseweb/greenweb/internal/governor"
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

// Policy names a CPU scheduling policy for a Session.
type Policy struct {
	name     string
	scenario Scenario
	build    func(p Policy) browser.Governor
}

// Name reports the policy's display name.
func (p Policy) Name() string { return p.name }

// GreenWebPolicy is the paper's contribution: the annotation-driven runtime
// under the given scenario.
func GreenWebPolicy(s Scenario) Policy {
	suffix := "I"
	if s == Usable {
		suffix = "U"
	}
	return Policy{
		name:     "GreenWeb-" + suffix,
		scenario: s,
		build: func(p Policy) browser.Governor {
			return core.New(core.DefaultOptions(p.scenario))
		},
	}
}

// PerfPolicy pins peak performance (best QoS, worst energy).
func PerfPolicy() Policy {
	return Policy{name: "Perf", build: func(Policy) browser.Governor { return governor.NewPerf() }}
}

// InteractivePolicy models Android's default interactive governor.
func InteractivePolicy() Policy {
	return Policy{name: "Interactive", build: func(Policy) browser.Governor {
		return governor.NewInteractive(governor.DefaultInteractiveParams())
	}}
}

// OndemandPolicy models the classic Linux ondemand governor.
func OndemandPolicy() Policy {
	return Policy{name: "Ondemand", build: func(Policy) browser.Governor { return governor.NewOndemand() }}
}

// PowersavePolicy pins the lowest-power configuration.
func PowersavePolicy() Policy {
	return Policy{name: "Powersave", build: func(Policy) browser.Governor { return governor.NewPowersave() }}
}

// EBSPolicy models annotation-free event-based scheduling (the related-work
// system of paper Sec. 9), which guesses user tolerance from measured event
// latency instead of reading annotations.
func EBSPolicy() Policy {
	return Policy{name: "EBS", build: func(Policy) browser.Governor { return governor.NewEBS() }}
}

// Session is one loaded application on one simulated device.
type Session struct {
	simu   *sim.Simulator
	cpu    *acmp.CPU
	engine *browser.Engine
	gov    browser.Governor
	colI   *metrics.Collector
	colU   *metrics.Collector
	policy Policy
}

// Open loads the HTML application under the policy and runs the loading
// phase to completion (through the first meaningful frame).
func Open(html string, policy Policy) (*Session, error) {
	if policy.build == nil {
		return nil, fmt.Errorf("greenweb: zero Policy; use GreenWebPolicy or a baseline constructor")
	}
	s := &Session{simu: sim.New(), policy: policy}
	s.cpu = acmp.NewCPU(s.simu, acmp.DefaultPower())
	s.engine = browser.New(s.simu, s.cpu, nil)
	s.gov = policy.build(policy)
	s.engine.SetGovernor(s.gov)
	if _, err := s.engine.LoadPage(html); err != nil {
		return nil, err
	}
	cols := metrics.NewCollectors(s.engine, Imperceptible, Usable)
	s.colI, s.colU = cols[0], cols[1]
	s.Settle()
	return s, nil
}

// Now reports the session's virtual time.
func (s *Session) Now() sim.Time { return s.simu.Now() }

// Tap performs a tapping interaction (touchstart, touchend, click) on the
// element with the given id, starting a small delay from now.
func (s *Session) Tap(targetID string) {
	at := s.simu.Now().Add(10 * sim.Millisecond)
	s.engine.Inject(at, "touchstart", targetID, nil)
	s.engine.Inject(at.Add(80*sim.Millisecond), "touchend", targetID, nil)
	s.engine.Inject(at.Add(85*sim.Millisecond), "click", targetID, nil)
	s.simu.RunUntil(at.Add(86 * sim.Millisecond))
}

// Swipe performs a moving interaction: touchstart, n touchmove samples gap
// apart, touchend.
func (s *Session) Swipe(targetID string, n int, gap sim.Duration) {
	at := s.simu.Now().Add(10 * sim.Millisecond)
	s.engine.Inject(at, "touchstart", targetID, nil)
	for i := 0; i < n; i++ {
		s.engine.Inject(at.Add(sim.Duration(i+1)*gap), "touchmove", targetID,
			map[string]float64{"deltaY": 24})
	}
	s.engine.Inject(at.Add(sim.Duration(n+1)*gap), "touchend", targetID, nil)
	s.simu.RunUntil(at.Add(sim.Duration(n+1) * gap))
}

// RunFor advances virtual time by d, processing whatever is scheduled.
func (s *Session) RunFor(d sim.Duration) { s.simu.RunFor(d) }

// Settle runs until the engine is quiescent (all frames produced, no
// pending animation), bounded at 60 virtual seconds.
func (s *Session) Settle() {
	deadline := s.simu.Now().Add(60 * sim.Second)
	for s.simu.Now() < deadline {
		s.simu.RunUntil(s.simu.Now().Add(20 * sim.Millisecond))
		if s.engine.Quiescent() && !s.cpu.Busy() {
			return
		}
	}
}

// Energy reports total CPU energy consumed so far, in joules.
func (s *Session) Energy() float64 { return float64(s.cpu.Energy()) }

// Frames reports the frames produced so far.
func (s *Session) Frames() []browser.FrameResult { return s.engine.Results() }

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
	frames := s.engine.Results()
	if len(frames) == 0 || len(frames[0].Inputs) == 0 {
		return 0
	}
	return frames[0].Inputs[0].Latency
}

// Config reports the current CPU execution configuration as a string
// (e.g. "big@1800MHz").
func (s *Session) Config() string { return s.cpu.Config().String() }

// Residency reports the fraction of time spent per configuration.
func (s *Session) Residency() map[string]float64 {
	out := map[string]float64{}
	var total float64
	res := s.cpu.Residency()
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
	st := s.cpu.Stats()
	return st.FreqSwitches, st.Migrations
}

// ConsoleLines returns the application's console output.
func (s *Session) ConsoleLines() []string { return s.engine.ConsoleLines() }

// ScriptErrors returns any script failures (logged, not fatal).
func (s *Session) ScriptErrors() []error { return s.engine.ScriptErrors() }

// Stop releases governor timers so the simulation can drain; the session
// remains readable.
func (s *Session) Stop() {
	if st, ok := s.gov.(interface{ Stop() }); ok {
		st.Stop()
	}
}

// Annotations lists the GreenWeb annotations that resolve against the
// loaded document, as human-readable strings.
func (s *Session) Annotations() []string {
	var out []string
	for _, na := range s.engine.Annotations().Annotations(s.engine.Doc()) {
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
