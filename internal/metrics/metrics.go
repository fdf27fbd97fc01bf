// Package metrics computes the evaluation quantities the paper reports:
// per-frame QoS violations against annotation-derived deadlines (Sec. 7.2's
// definition: the percentage by which a frame latency exceeds its target,
// geometrically averaged over a continuous event's frames), normalized
// energy, architecture-configuration residency distributions (Fig. 11), and
// configuration-switching rates (Fig. 12).
package metrics

import (
	"math"
	"sort"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// ViolationPct is the paper's per-frame QoS violation: the percentage by
// which latency exceeds the deadline (a 200 ms frame against a 100 ms
// target is a 100% violation); meeting the deadline is 0.
func ViolationPct(latency, deadline sim.Duration) float64 {
	if deadline <= 0 || latency <= deadline {
		return 0
	}
	return float64(latency-deadline) / float64(deadline) * 100
}

// GeoMeanPct aggregates violation percentages geometrically (the paper
// reports "the geometric mean of all associated frames" for continuous
// events), shifting by one so zero-violation frames are well defined.
func GeoMeanPct(pcts []float64) float64 {
	if len(pcts) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range pcts {
		sum += math.Log1p(p / 100)
	}
	return (math.Exp(sum/float64(len(pcts))) - 1) * 100
}

// Mean is the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// FrameQoS is the verdict on one frame judged against the deadline of the
// annotated event driving it.
type FrameQoS struct {
	End      sim.Time // when the frame reached the display
	Type     qos.Type
	Deadline sim.Duration
	Measured sim.Duration
	Pct      float64
}

// Collector holds one scenario's verdicts on an engine run: every frame
// whose provenance includes an annotated input, judged by the same
// driving-event resolution the GreenWeb runtime uses — strictest deadline
// wins — so baselines (Perf, Interactive) are judged by identical rules.
type Collector struct {
	scenario qos.Scenario
	Frames   []FrameQoS

	// The driving input of the frame being judged.
	best    qos.Annotation
	bestUID browser.UID
	found   bool
}

// judge observes an engine run for its collectors: it resolves each input's
// annotation once per run and has every collector judge each frame.
type judge struct {
	e    *browser.Engine
	anns []resolved // by input UID; UIDs are issued densely from 1
	cols []*Collector
}

// resolved caches one input's annotation lookup.
type resolved struct {
	ann  qos.Annotation
	done bool
}

// NewCollectors attaches one collector per scenario to the engine, all fed
// by one frame observer that resolves each input's annotation once. They
// must be created after LoadPage (annotations resolve against the loaded
// document), and they judge the loading frame itself.
func NewCollectors(e *browser.Engine, scenarios ...qos.Scenario) []*Collector {
	j := &judge{e: e, cols: make([]*Collector, len(scenarios))}
	for i, sc := range scenarios {
		j.cols[i] = &Collector{scenario: sc}
	}
	e.OnFrame(j.onFrame)
	return j.cols
}

// resolve finds (and caches) the annotation for an input.
func (j *judge) resolve(in browser.InputRecord) (qos.Annotation, bool) {
	if int(in.UID) < len(j.anns) && j.anns[in.UID].done {
		a := j.anns[in.UID].ann
		return a, a.Target.Valid()
	}
	a, ok := j.lookup(in)
	for len(j.anns) <= int(in.UID) {
		j.anns = append(j.anns, resolved{})
	}
	j.anns[in.UID] = resolved{ann: a, done: true}
	return a, ok
}

// lookup resolves an input's annotation against the loaded document.
func (j *judge) lookup(in browser.InputRecord) (qos.Annotation, bool) {
	doc := j.e.Doc()
	if doc == nil || j.e.Annotations() == nil {
		return qos.Annotation{}, false
	}
	node := doc.GetElementByID(in.Target)
	if node == nil {
		if bodies := doc.GetElementsByTag("body"); len(bodies) > 0 && (in.Target == "#document" || in.Target == "body") {
			node = bodies[0]
		}
	}
	if node == nil {
		return qos.Annotation{}, false
	}
	a, ok := j.e.Annotations().Lookup(node, in.Event)
	if !ok {
		return qos.Annotation{}, false
	}
	return a, true
}

func (j *judge) onFrame(fr *browser.FrameResult) {
	for _, c := range j.cols {
		c.found = false
	}
	// Find each scenario's strictest annotated deadline among the frame's
	// ancestry. Ascending-UID iteration keeps deadline ties deterministic.
	for _, uid := range fr.Provenance.IDs() {
		rec, ok := j.e.InputRecord(uid)
		if !ok {
			continue
		}
		a, ok := j.resolve(rec)
		if !ok {
			continue
		}
		for _, c := range j.cols {
			if !c.found || c.scenario.Deadline(a.Target) < c.scenario.Deadline(c.best.Target) {
				c.best, c.bestUID, c.found = a, uid, true
			}
		}
	}
	for _, c := range j.cols {
		if c.found {
			c.judge(fr)
		}
	}
}

// judge records the verdict on a frame driven by c.best.
func (c *Collector) judge(fr *browser.FrameResult) {
	measured := fr.ProductionLatency
	if c.best.Type == qos.Single {
		measured = -1
		for _, il := range fr.Inputs {
			if il.Input.UID == c.bestUID {
				measured = il.Latency
			}
		}
		if measured < 0 {
			return // the single event's own frame already passed
		}
	}
	deadline := c.scenario.Deadline(c.best.Target)
	c.Frames = append(c.Frames, FrameQoS{
		End:      fr.End,
		Type:     c.best.Type,
		Deadline: deadline,
		Measured: measured,
		Pct:      ViolationPct(measured, deadline),
	})
}

// ViolationPcts returns the per-frame violation percentages.
func (c *Collector) ViolationPcts() []float64 {
	out := make([]float64, len(c.Frames))
	for i, f := range c.Frames {
		out[i] = f.Pct
	}
	return out
}

// Violation aggregates the run's QoS violation: geometric mean over all
// judged frames.
func (c *Collector) Violation() float64 { return GeoMeanPct(c.ViolationPcts()) }

// ConfigShare is one row of the Fig. 11 distribution.
type ConfigShare struct {
	Config acmp.Config
	Share  float64 // fraction of total time
}

// Distribution converts CPU residency into ordered shares (low→high
// performance), the quantity Fig. 11 plots.
func Distribution(residency map[acmp.Config]sim.Duration) []ConfigShare {
	var total float64
	for _, d := range residency {
		total += d.Seconds()
	}
	if total == 0 {
		return nil
	}
	out := make([]ConfigShare, 0, len(residency))
	for cfg, d := range residency {
		out = append(out, ConfigShare{cfg, d.Seconds() / total})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Config.Index() < out[j].Config.Index() })
	return out
}

// ClusterShares sums a distribution by cluster.
func ClusterShares(dist []ConfigShare) (little, big float64) {
	for _, cs := range dist {
		if cs.Config.Cluster == acmp.Big {
			big += cs.Share
		} else {
			little += cs.Share
		}
	}
	return little, big
}

// SwitchRate expresses configuration switching as switches per frame in
// percent, split into frequency switches and migrations (Fig. 12).
func SwitchRate(st acmp.SwitchStats, frames int) (freqPct, migPct float64) {
	if frames == 0 {
		return 0, 0
	}
	return float64(st.FreqSwitches) / float64(frames) * 100,
		float64(st.Migrations) / float64(frames) * 100
}

// NormalizedPct reports value as a percentage of base.
func NormalizedPct(value, base acmp.Joules) float64 {
	if base == 0 {
		return 0
	}
	return float64(value) / float64(base) * 100
}
