// Package replay provides deterministic user-interaction record/replay, the
// role Mosaic plays in the paper's methodology (Sec. 7.1): identical input
// timelines across runs of the same application, so that energy and QoS
// differences are attributable to the governor alone.
//
// Traces are built from the LTM interaction vocabulary (paper Fig. 2):
// Loading is implicit in page load; Tapping expands to touchstart/touchend/
// click; Moving expands to touchstart, a stream of touchmove/scroll events,
// and touchend.
package replay

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"strings"

	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// Step is one injected input event, at an offset from trace start.
type Step struct {
	At     sim.Duration       `json:"at_us"`
	Event  string             `json:"event"`
	Target string             `json:"target"`
	Data   map[string]float64 `json:"data,omitempty"`
}

// Trace is a named, ordered input timeline.
type Trace struct {
	Name  string `json:"name"`
	Steps []Step `json:"steps"`
}

// Duration reports the offset of the last step.
func (t *Trace) Duration() sim.Duration {
	if len(t.Steps) == 0 {
		return 0
	}
	return t.Steps[len(t.Steps)-1].At
}

// Events reports the number of steps.
func (t *Trace) Events() int { return len(t.Steps) }

// Append adds steps, keeping them ordered by time.
func (t *Trace) Append(steps ...Step) {
	for _, s := range steps {
		if len(t.Steps) > 0 && s.At < t.Steps[len(t.Steps)-1].At {
			panic(fmt.Sprintf("replay: step at %v before previous %v", s.At, t.Steps[len(t.Steps)-1].At))
		}
		t.Steps = append(t.Steps, s)
	}
}

// Replay schedules every step of the trace on the engine, offset from
// start. The simulation still has to be run by the caller.
func (t *Trace) Replay(e *browser.Engine, start sim.Time) {
	for _, s := range t.Steps {
		e.Inject(start.Add(s.At), s.Event, s.Target, s.Data)
	}
}

// Record reconstructs an interaction trace from an engine's input history —
// the "record" half of the Mosaic role. Loads and profiling triggers are
// excluded; step offsets are relative to the earliest recorded input.
// Inputs are ordered by start time, then by UID: UIDs grow in injection
// order, so inputs injected at one instant keep their injection order.
func Record(name string, e *browser.Engine) *Trace {
	var recs []browser.InputRecord
	for _, in := range e.InputRecords() {
		if in.Event == "load" || strings.HasPrefix(in.Event, "profile:") {
			continue
		}
		recs = append(recs, in)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Start != recs[j].Start {
			return recs[i].Start < recs[j].Start
		}
		return recs[i].UID < recs[j].UID
	})
	t := &Trace{Name: name}
	if len(recs) == 0 {
		return t
	}
	base := recs[0].Start
	for _, r := range recs {
		t.Steps = append(t.Steps, Step{At: r.Start.Sub(base), Event: r.Event, Target: r.Target})
	}
	return t
}

// Seed derives the trace's intrinsic seed from its name and step timeline
// (FNV-1a). Two workers that synthesize the same trace — same name, same
// steps — derive the same seed on any machine, so seeded derivations
// (Jitter) agree across a fleet without coordination.
func (t *Trace) Seed() int64 {
	h := fnv.New64a()
	io.WriteString(h, t.Name)
	var buf [8]byte
	for _, s := range t.Steps {
		binary.LittleEndian.PutUint64(buf[:], uint64(s.At))
		h.Write(buf[:])
		io.WriteString(h, s.Event)
		io.WriteString(h, s.Target)
	}
	return int64(h.Sum64())
}

// Jitter returns a copy of the trace with every step's offset perturbed by
// up to ±maxShift, deterministically, preserving step order. The stream is
// seeded by seed XOR the trace's intrinsic Seed, so distinct traces
// jittered with the same caller seed (e.g. repetition index) do not share a
// perturbation pattern, and the same (trace, seed) pair agrees on every
// fleet worker. The paper reports ~5% run-to-run variation on hardware;
// jittered replays reintroduce that source of noise into the otherwise
// exact simulation.
// A maxShift of zero (or less) is the identity: the copy keeps the original
// name — not a "-jitter" suffix — so its intrinsic Seed is unchanged and a
// zero-jitter replay is indistinguishable from the source trace everywhere
// downstream (fault injectors key off trace Seed).
func (t *Trace) Jitter(seed int64, maxShift sim.Duration) *Trace {
	if maxShift <= 0 {
		out := &Trace{Name: t.Name, Steps: make([]Step, len(t.Steps))}
		copy(out.Steps, t.Steps)
		return out
	}
	rng := rand.New(rand.NewSource(seed ^ t.Seed()))
	out := &Trace{Name: t.Name + "-jitter"}
	var last sim.Duration
	for _, s := range t.Steps {
		shift := sim.Duration(rng.Int63n(int64(2*maxShift+1))) - maxShift
		at := s.At + shift
		if at < last {
			at = last
		}
		last = at
		out.Steps = append(out.Steps, Step{At: at, Event: s.Event, Target: s.Target, Data: s.Data})
	}
	return out
}

// Marshal serializes the trace (the "record" format).
func (t *Trace) Marshal() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// Unmarshal parses a recorded trace.
func Unmarshal(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return &t, nil
}

// Tap expands a tapping interaction (T of LTM) on target at the given
// offset: touchstart, then touchend and click ~80 ms later (a typical
// finger dwell).
func Tap(at sim.Duration, target string) []Step {
	return []Step{
		{At: at, Event: "touchstart", Target: target},
		{At: at + 80*sim.Millisecond, Event: "touchend", Target: target},
		{At: at + 85*sim.Millisecond, Event: "click", Target: target},
	}
}

// Move expands a moving interaction (M of LTM): touchstart, n touchmove
// events spaced gap apart (each carrying a scroll delta), and touchend.
func Move(at sim.Duration, target string, n int, gap sim.Duration) []Step {
	steps := []Step{{At: at, Event: "touchstart", Target: target}}
	for i := 0; i < n; i++ {
		steps = append(steps, Step{
			At:     at + sim.Duration(i+1)*gap,
			Event:  "touchmove",
			Target: target,
			Data:   map[string]float64{"deltaY": 24},
		})
	}
	steps = append(steps, Step{
		At:     at + sim.Duration(n+1)*gap,
		Event:  "touchend",
		Target: target,
	})
	return steps
}

// Scroll expands a moving interaction delivered as scroll events (how some
// applications receive finger movement).
func Scroll(at sim.Duration, target string, n int, gap sim.Duration) []Step {
	var steps []Step
	for i := 0; i < n; i++ {
		steps = append(steps, Step{
			At:     at + sim.Duration(i)*gap,
			Event:  "scroll",
			Target: target,
			Data:   map[string]float64{"deltaY": 24},
		})
	}
	return steps
}
