package browser

import (
	"strconv"
	"strings"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/css"
	"github.com/wattwiseweb/greenweb/internal/dom"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// cssTransition is one in-flight CSS transition: a declared property whose
// value change animates over a duration (paper Fig. 4). Every VSync the
// transition interpolates the property, dirtying the frame with the
// provenance of the event that triggered it — which is how a single tap
// grows a 2-second sequence of attributed frames.
type cssTransition struct {
	node       *dom.Node
	prop       string
	from, to   float64
	unit       string
	start, end sim.Time
	prov       Provenance
}

type transitionTick struct {
	tr    *cssTransition
	value float64
	final bool
	prov  Provenance
}

func (e *Engine) styleChanged(n *dom.Node, prop, old, new string) {
	if len(e.curProv) == 0 {
		return // not inside attributed callback execution
	}
	if e.applyingTick {
		return
	}
	for _, tr := range css.TransitionsFor(n) {
		if tr.Property != prop || tr.Duration <= 0 {
			continue
		}
		fromV, _ := parsePx(old)
		toV, unit := parsePx(new)
		now := e.simu.Now()
		t := &cssTransition{
			node: n, prop: prop,
			from: fromV, to: toV, unit: unit,
			start: now, end: now.Add(tr.Duration),
			prov: e.curProv,
		}
		// Restarting a transition on the same property replaces it.
		for i, existing := range e.transitions {
			if existing.node == n && existing.prop == prop {
				for _, id := range existing.prov {
					e.ref(id, -1)
				}
				e.transitions = append(e.transitions[:i], e.transitions[i+1:]...)
				break
			}
		}
		e.transitions = append(e.transitions, t)
		for _, id := range t.prov {
			e.ref(id, +1)
		}
		if e.curDispatch != nil {
			e.curDispatch.TransitionStarted = true
		}
		e.ensureVSync()
		return
	}
}

func parsePx(s string) (float64, string) {
	s = strings.TrimSpace(s)
	unit := ""
	for _, suffix := range []string{"px", "%", "em"} {
		if strings.HasSuffix(s, suffix) {
			unit = suffix
			s = strings.TrimSuffix(s, suffix)
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, unit
	}
	return v, unit
}

// collectTransitionTicks appends the interpolation work due this frame to
// ticks.
func (e *Engine) collectTransitionTicks(ticks []transitionTick) []transitionTick {
	now := e.simu.Now()
	for _, tr := range e.transitions {
		frac := 1.0
		if tr.end > tr.start && now < tr.end {
			frac = float64(now.Sub(tr.start)) / float64(tr.end.Sub(tr.start))
		}
		ticks = append(ticks, transitionTick{
			tr:    tr,
			value: tr.from + (tr.to-tr.from)*frac,
			final: now >= tr.end,
			prov:  tr.prov,
		})
	}
	return ticks
}

// applyTransitionTick writes the interpolated value and dirties the frame.
func (e *Engine) applyTransitionTick(tk transitionTick) {
	e.applyingTick = true
	tk.tr.node.SetStyle(tk.tr.prop, formatPx(tk.value, tk.tr.unit))
	e.applyingTick = false
	e.markDirty(tk.prov)
}

func formatPx(v float64, unit string) string {
	return strconv.FormatFloat(v, 'f', -1, 64) + unit
}

// finishTransitionTicks retires completed transitions, firing their
// transitionend events (which AUTOGREEN listens for, Sec. 5) and releasing
// the provenance references that kept their root events alive.
func (e *Engine) finishTransitionTicks(ticks []transitionTick) {
	for _, tk := range ticks {
		if !tk.final {
			continue
		}
		for i, tr := range e.transitions {
			if tr == tk.tr {
				e.transitions = append(e.transitions[:i], e.transitions[i+1:]...)
				break
			}
		}
		tr := tk.tr
		e.post(task{
			name: "transitionend",
			prov: tr.prov,
			run: func() acmp.Work {
				e.curDispatch = &DispatchResult{}
				e.interp.ResetOps()
				dom.Dispatch(tr.node, dom.EventTransitionEnd, nil)
				ops := e.interp.ResetOps()
				e.curDispatch = nil
				return e.cost.opsWork(ops)
			},
			commit: func() {
				for _, id := range tr.prov {
					e.ref(id, -1)
				}
				e.checkComplete()
			},
		})
	}
}
