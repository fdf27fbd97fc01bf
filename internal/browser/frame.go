package browser

import (
	"slices"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// UID uniquely identifies one user input event, the key of the Fig. 8
// tracking algorithm ("getUniqueID()").
type UID uint64

// Provenance is the set of input UIDs a piece of engine activity descends
// from. Callbacks run with the provenance of the input that triggered them;
// rAF registrations and CSS transitions inherit the provenance of the code
// that created them; a frame's provenance is the union over everything
// batched into it. This implements the message-propagation metadata (Msg)
// of Fig. 8 and the transitive-closure association of Sec. 6.4.
//
// The set is a sorted, duplicate-free slice. Most sets hold one or two
// inputs, and UIDs grow in injection order, so adding usually appends.
// Sets are shared freely once built: only the engine mutates the sets it
// owns, and governors and observers must treat every set they are handed
// as read-only.
type Provenance []UID

// NewProvenance builds a set from ids, in any order and with duplicates.
func NewProvenance(ids ...UID) Provenance {
	if len(ids) == 0 {
		return nil
	}
	p := slices.Clone(Provenance(ids))
	slices.Sort(p)
	return slices.Compact(p)
}

// Clone copies the set, for a caller that will mutate the copy.
func (p Provenance) Clone() Provenance { return slices.Clone(p) }

// Add inserts id and reports whether it was absent.
func (p *Provenance) Add(id UID) bool {
	i, found := slices.BinarySearch(*p, id)
	if !found {
		*p = slices.Insert(*p, i, id)
	}
	return !found
}

// Merge adds all of o into p.
func (p *Provenance) Merge(o Provenance) {
	for _, id := range o {
		p.Add(id)
	}
}

// Has reports membership.
func (p Provenance) Has(id UID) bool {
	_, found := slices.BinarySearch(p, id)
	return found
}

// IDs returns the members in ascending order: the set itself, which the
// caller must not modify.
func (p Provenance) IDs() []UID { return p }

// InputRecord is the engine-side record of one injected input (the Msg of
// Fig. 8: a unique id plus its start timestamp).
type InputRecord struct {
	UID    UID
	Event  string // DOM event name
	Target string // element id or path, for reports
	Start  sim.Time
}

// InputLatency is one resolved (input, frame) attribution: how long after
// the input the frame reached the display.
type InputLatency struct {
	Input   InputRecord
	Latency sim.Duration
}

// FrameResult describes one produced frame, delivered to the governor when
// the browser process receives the frame-ready signal.
type FrameResult struct {
	Seq int
	// Begin is when the VSync began producing this frame; End is when it
	// reached the display.
	Begin, End sim.Time
	// ProductionLatency = End - Begin: the per-frame latency continuous
	// QoS targets bound (16.6 ms ⇒ 60 FPS).
	ProductionLatency sim.Duration
	// Inputs lists the input events batched into this frame with their
	// end-to-end latencies (input initiation → display), the quantity
	// single QoS targets bound.
	Inputs []InputLatency
	// Provenance is the full ancestor set, including inputs whose effect
	// reached this frame indirectly (rAF chains, transitions).
	Provenance Provenance
	// Config is the execution configuration when production began.
	Config acmp.Config
	// MainWork is the big-core cycle total the renderer main thread spent
	// on this frame (callback/rAF + style + layout + paint).
	MainWork int64
	// Stages records the per-stage timings of a staged frame production
	// (nil when the engine rendered serially). The sum of CritCycles over
	// stages is the frame's render critical path; the sum of TotalCycles is
	// what the serial cascade would have paid.
	Stages []StageTiming
}

// DispatchResult summarizes what one event dispatch did — AUTOGREEN's
// profiling phase inspects this to classify an event's QoS type (Sec. 5).
type DispatchResult struct {
	HandlersRun       int
	Dirtied           bool
	RAFRegistered     bool
	TransitionStarted bool
	AnimateCalled     bool
	ScriptErr         error
	Ops               int64
}
