package governor

import (
	"strings"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/dom"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// EBS models event-based scheduling (Zhu et al., HPCA 2015), the annotation-
// free related-work system the paper contrasts GreenWeb with (Sec. 9):
// without QoS annotations, EBS uses an event's *measured* execution latency
// as a proxy for the user's expectation — if an event takes long, it
// "guesses" users tolerate long latencies and reduces performance.
//
// The paper's critique, which this implementation lets the benches
// demonstrate, is that measured latency is an artifact of the device's
// current operating point, not of user intent: a heavyweight but urgent
// interaction (MSN's 100 ms menu) measures slow and is therefore scheduled
// slow, violating the user's actual expectation, while GreenWeb's
// annotations carry the inherent constraint.
type EBS struct {
	e   *browser.Engine
	cpu *acmp.CPU

	// latency history per event class → guessed tolerance bucket.
	guess map[string]sim.Duration
}

// EBS tolerance buckets: measured latency is rounded up to the next
// human-perception boundary and that becomes the deadline guess.
var ebsBuckets = []sim.Duration{
	16600 * sim.Microsecond,
	100 * sim.Millisecond,
	300 * sim.Millisecond,
	1 * sim.Second,
	10 * sim.Second,
}

// NewEBS returns an event-based scheduler.
func NewEBS() *EBS { return &EBS{guess: make(map[string]sim.Duration)} }

// Attach implements browser.Governor.
func (g *EBS) Attach(e *browser.Engine) {
	g.e = e
	g.cpu = e.CPU()
	g.cpu.SetConfig(acmp.LowestConfig())
}

func ebsClass(in browser.InputRecord) string {
	return in.Target + "@" + strings.ToLower(in.Event)
}

// OnInput implements browser.Governor: schedule to the class's guessed
// tolerance. Unknown classes get the benefit of the doubt (peak), like a
// first touch under a boost.
func (g *EBS) OnInput(in browser.InputRecord, _ *dom.Node) {
	tol, ok := g.guess[ebsClass(in)]
	if !ok {
		g.cpu.SetConfig(acmp.PeakConfig())
		return
	}
	g.cpu.SetConfig(g.configFor(tol))
}

// configFor maps a tolerance guess to an operating point: the tighter the
// guessed deadline, the higher the configuration. The mapping is static —
// EBS has no per-event performance model.
func (g *EBS) configFor(tol sim.Duration) acmp.Config {
	switch {
	case tol <= 16600*sim.Microsecond:
		return acmp.PeakConfig()
	case tol <= 100*sim.Millisecond:
		return acmp.Config{Cluster: acmp.Big, MHz: 1200}
	case tol <= 300*sim.Millisecond:
		return acmp.Config{Cluster: acmp.Big, MHz: 800}
	case tol <= sim.Second:
		return acmp.Config{Cluster: acmp.Little, MHz: 600}
	default:
		return acmp.LowestConfig()
	}
}

// OnFrameStart implements browser.Governor.
func (g *EBS) OnFrameStart(int, browser.Provenance) {}

// OnFrameEnd implements browser.Governor: update latency guesses. The
// measured latency is rounded UP to the next bucket — "if an event takes a
// long time to execute, EBS guesses users tolerate a long latency and
// reduces CPU frequency" — which is precisely the failure mode GreenWeb's
// explicit annotations avoid.
func (g *EBS) OnFrameEnd(fr *browser.FrameResult) {
	for _, il := range fr.Inputs {
		tol := ebsBuckets[len(ebsBuckets)-1]
		for _, b := range ebsBuckets {
			if il.Latency <= b {
				tol = b
				break
			}
		}
		g.guess[ebsClass(il.Input)] = tol
	}
}

// OnEventComplete implements browser.Governor: conserve when idle.
func (g *EBS) OnEventComplete(browser.UID) {
	g.cpu.SetConfig(acmp.MinConfig(g.cpu.Config().Cluster))
}
