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

// Collector observes an engine run and judges every frame whose provenance
// includes an annotated input. It applies the same driving-event resolution
// the GreenWeb runtime uses — strictest deadline wins — so baselines
// (Perf, Interactive) are judged by identical rules.
type Collector struct {
	e        *browser.Engine
	scenario qos.Scenario

	anns   map[browser.UID]qos.Annotation
	Frames []FrameQoS
}

// NewCollector attaches a collector to the engine. It must be created
// after LoadPage (it resolves annotations against the loaded document) —
// pass the load UID so the loading frame itself is judged.
func NewCollector(e *browser.Engine, scenario qos.Scenario) *Collector {
	c := &Collector{e: e, scenario: scenario, anns: make(map[browser.UID]qos.Annotation)}
	e.OnFrame(c.onFrame)
	return c
}

// resolve finds (and caches) the annotation for an input.
func (c *Collector) resolve(in browser.InputRecord) (qos.Annotation, bool) {
	if a, ok := c.anns[in.UID]; ok {
		return a, a.Target.Valid()
	}
	doc := c.e.Doc()
	if doc == nil || c.e.Annotations() == nil {
		return qos.Annotation{}, false
	}
	node := doc.GetElementByID(in.Target)
	if node == nil {
		if bodies := doc.GetElementsByTag("body"); len(bodies) > 0 && (in.Target == "#document" || in.Target == "body") {
			node = bodies[0]
		}
	}
	if node == nil {
		c.anns[in.UID] = qos.Annotation{}
		return qos.Annotation{}, false
	}
	a, ok := c.e.Annotations().Lookup(node, in.Event)
	if !ok {
		c.anns[in.UID] = qos.Annotation{}
		return qos.Annotation{}, false
	}
	c.anns[in.UID] = a
	return a, true
}

func (c *Collector) onFrame(fr *browser.FrameResult) {
	// Find the strictest annotated deadline among the frame's ancestry.
	var best qos.Annotation
	found := false
	var bestInput browser.InputRecord
	// Ascending-UID iteration keeps deadline ties deterministic.
	for _, uid := range fr.Provenance.IDs() {
		rec, ok := c.e.InputRecord(uid)
		if !ok {
			continue
		}
		a, ok := c.resolve(rec)
		if !ok {
			continue
		}
		if !found || c.scenario.Deadline(a.Target) < c.scenario.Deadline(best.Target) {
			best, bestInput, found = a, rec, true
		}
	}
	if !found {
		return
	}
	measured := fr.ProductionLatency
	if best.Type == qos.Single {
		measured = -1
		for _, il := range fr.Inputs {
			if il.Input.UID == bestInput.UID {
				measured = il.Latency
			}
		}
		if measured < 0 {
			return // the single event's own frame already passed
		}
	}
	deadline := c.scenario.Deadline(best.Target)
	c.Frames = append(c.Frames, FrameQoS{
		End:      fr.End,
		Type:     best.Type,
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
