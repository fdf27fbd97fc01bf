// Package autogreen implements AUTOGREEN (paper Sec. 5, Fig. 6): automatic
// application of GreenWeb annotations without developer intervention.
//
// The three phases of the paper's workflow map onto this package directly:
//
//   - Instrumentation/discovery: load the application on a scratch device,
//     let its scripts register their listeners, and enumerate every
//     (DOM node, event) pair bound to a mobile-interaction event.
//   - Profiling: explicitly trigger each event's callback and observe
//     whether it starts a requestAnimationFrame chain, calls animate(), or
//     triggers a CSS transition/animation — if so its QoS type is
//     "continuous", otherwise "single".
//   - Generation: emit GreenWeb CSS rules for each classified event and
//     inject them back into the document as a new <style> element.
//
// AUTOGREEN cannot know user intent, so it is conservative (Sec. 5): single
// events are always annotated "short" — favouring QoS over energy — and
// default Table 1 targets are used. The paper's evaluation manually corrects
// long-latency events afterwards; Report.Annotations is exposed so callers
// can do the same.
package autogreen

import (
	"fmt"
	"strings"

	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/css"
	"github.com/wattwiseweb/greenweb/internal/device"
	"github.com/wattwiseweb/greenweb/internal/dom"
	"github.com/wattwiseweb/greenweb/internal/governor"
	"github.com/wattwiseweb/greenweb/internal/html"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// Finding is one profiled (element, event) pair and its classification.
type Finding struct {
	Selector   string // generated CSS selector for the element
	Path       string // full element path, for the report
	Event      string
	Annotation qos.Annotation
	// Evidence of the classification.
	RAF        bool
	Animate    bool
	Transition bool
	HandlerOps int64
}

// Report is the outcome of an annotation run.
type Report struct {
	Findings []Finding
	// Skipped lists (path, event) pairs that could not be annotated
	// (e.g. no stable selector).
	Skipped []string
}

// Rules builds the generated GreenWeb stylesheet.
func (r *Report) Rules() (*css.Stylesheet, error) {
	sheet := &css.Stylesheet{}
	for _, f := range r.Findings {
		rule, err := css.QoSRuleFor(f.Selector, f.Annotation)
		if err != nil {
			return nil, err
		}
		rule.Index = len(sheet.Rules)
		sheet.Rules = append(sheet.Rules, rule)
	}
	return sheet, nil
}

// boot loads the page on a fresh device pinned at peak (profiling cares
// about behaviour, not energy) and runs the load plus any initial
// animations, bounded in case scripts animate forever.
func boot(src string) (*device.Device, error) {
	dev, err := device.New(governor.NewPerf(), 0, nil, 0)
	if err != nil {
		return nil, err
	}
	if _, err := dev.Engine.LoadPage(src); err != nil {
		dev.Close()
		return nil, err
	}
	dev.Sim.RunUntil(sim.Time(10 * sim.Second))
	return dev, nil
}

// selectorFor builds a stable selector for a node: its id when present,
// otherwise its tag qualified by class, otherwise the bare tag.
func selectorFor(n *dom.Node) (string, bool) {
	if id := n.ID(); id != "" {
		return n.Tag + "#" + id, true
	}
	if cs := n.Classes(); len(cs) > 0 {
		return n.Tag + "." + strings.Join(cs, "."), true
	}
	if n.Tag != "" {
		return n.Tag, true
	}
	return "", false
}

// Analyze runs discovery and profiling on an application's HTML source and
// returns the classification report without modifying the source.
func Analyze(src string) (*Report, error) {
	// Discovery device: enumerate listener targets after load.
	disc, err := boot(src)
	if err != nil {
		return nil, err
	}
	targets := disc.Engine.Doc().ListenerTargets()
	if _, _, err := disc.Close(); err != nil {
		return nil, err
	}

	report := &Report{}

	// The load event is always annotated: every application has a loading
	// phase (L of the LTM model), and loading is a single-long interaction
	// per Table 1.
	report.Findings = append(report.Findings, Finding{
		Selector: "body",
		Path:     "body",
		Event:    dom.EventLoad,
		Annotation: qos.Annotation{
			Event:    dom.EventLoad,
			Type:     qos.Single,
			Duration: qos.Long,
			Target:   qos.SingleLongTarget,
		},
	})

	seen := map[string]bool{"body@load": true}
	for _, l := range targets {
		if l.Event == dom.EventLoad {
			continue // covered by the body rule
		}
		if err := report.profileListener(src, l, seen); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// profileListener profiles one discovered listener in a fresh device, so
// each event observes pristine application state (the paper instruments and
// re-runs similarly), and records its finding, or why it was skipped, unless
// an earlier listener already produced its selector and event.
func (r *Report) profileListener(src string, l *dom.Listener, seen map[string]bool) (err error) {
	prof, err := boot(src)
	if err != nil {
		return err
	}
	defer func() {
		if _, _, cerr := prof.Close(); err == nil {
			err = cerr
		}
	}()
	node := findCounterpart(prof.Engine.Doc(), l.Node)
	if node == nil {
		r.Skipped = append(r.Skipped, l.Node.Path()+"@"+l.Event)
		return nil
	}
	sel, ok := selectorFor(node)
	if !ok {
		r.Skipped = append(r.Skipped, node.Path()+"@"+l.Event)
		return nil
	}
	key := sel + "@" + l.Event
	if seen[key] {
		return nil
	}
	seen[key] = true

	res := prof.Engine.ProfileEvent(node, l.Event, profileData(l.Event))
	r.Findings = append(r.Findings, Finding{
		Selector:   sel,
		Path:       node.Path(),
		Event:      l.Event,
		Annotation: classify(l.Event, res),
		RAF:        res.RAFRegistered,
		Animate:    res.AnimateCalled,
		Transition: res.TransitionStarted,
		HandlerOps: res.Ops,
	})
	return nil
}

// classify implements the paper's detection rule: an event is "continuous"
// if its callback triggers animate(), requestAnimationFrame, or a CSS
// transition/animation; otherwise "single" with a conservatively short
// duration class.
func classify(event string, res browser.DispatchResult) qos.Annotation {
	if res.RAFRegistered || res.AnimateCalled || res.TransitionStarted {
		return qos.Annotation{
			Event:  event,
			Type:   qos.Continuous,
			Target: qos.ContinuousTarget,
		}
	}
	return qos.Annotation{
		Event:    event,
		Type:     qos.Single,
		Duration: qos.Short, // conservative: favour QoS over energy
		Target:   qos.SingleShortTarget,
	}
}

// profileData synthesizes plausible event payloads for profiling triggers.
func profileData(event string) map[string]float64 {
	switch event {
	case dom.EventScroll, dom.EventTouchMove:
		return map[string]float64{"deltaY": 40}
	default:
		return nil
	}
}

// findCounterpart locates, in a fresh document, the node corresponding to
// one discovered in another instance of the same page.
func findCounterpart(doc *dom.Document, n *dom.Node) *dom.Node {
	if id := n.ID(); id != "" {
		return doc.GetElementByID(id)
	}
	// Match by path position: same tag sequence, same sibling index chain.
	want := n.Path()
	for _, cand := range doc.Elements() {
		if cand.Path() == want {
			return cand
		}
	}
	return nil
}

// Annotate runs Analyze and injects the generated GreenWeb rules into the
// document as a trailing <style> element, returning the annotated HTML.
func Annotate(src string) (string, *Report, error) {
	report, err := Analyze(src)
	if err != nil {
		return "", nil, err
	}
	sheet, err := report.Rules()
	if err != nil {
		return "", nil, err
	}
	annotated, err := InjectStyle(src, sheet.Serialize())
	if err != nil {
		return "", nil, err
	}
	return annotated, report, nil
}

// InjectStyle appends a <style> element containing cssText to the
// document's head (or body if no head exists) and reserializes it.
func InjectStyle(src, cssText string) (string, error) {
	doc := html.Parse(src)
	var parent *dom.Node
	if heads := doc.GetElementsByTag("head"); len(heads) > 0 {
		parent = heads[0]
	} else if bodies := doc.GetElementsByTag("body"); len(bodies) > 0 {
		parent = bodies[0]
	} else {
		return "", fmt.Errorf("autogreen: document has no head or body to inject into")
	}
	style := doc.NewElement("style")
	style.AppendChild(doc.NewText("\n" + cssText + "\n"))
	parent.AppendChild(style)
	return html.Render(doc), nil
}
