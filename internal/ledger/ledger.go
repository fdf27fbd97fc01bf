// Package ledger provides per-frame, per-event energy attribution over the
// acmp energy meter, the model counterpart of splitting the paper's
// sense-resistor measurement (Sec. 7) by what the browser was doing when the
// energy was drawn.
//
// The ledger partitions virtual time into exclusive slices: while the engine
// produces a frame the open slice is that frame's span; between frames it is
// an idle/other span. Every integration interval the meter reports lands in
// exactly one slice, so the slice energies sum to the meter integral — a
// conservation invariant Check enforces within 1e-9 J. An accounting bug
// (rail mix-up, dropped interval, frame charged twice) therefore becomes a
// hard failure instead of silent skew in the Fig. 8/9 numbers.
//
// Input events (input → transitive-closure completion, Sec. 6.4) are overlay
// spans: they record the energy drawn while they were in flight. Overlapping
// events each observe the full draw, so event spans deliberately do NOT
// participate in the conservation sum.
package ledger

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// ConservationTolerance is the maximum |span-sum − meter-integral| Check
// accepts, in joules. Runs integrate thousands of piecewise-constant
// intervals of ~1e-3 J each; float64 reassociation error stays orders of
// magnitude below this.
const ConservationTolerance = 1e-9

// Kind classifies a span.
type Kind string

// Span kinds.
const (
	// KindFrame covers one frame production: VSync begin through the
	// frame-ready signal (including rAF callbacks and compositing).
	KindFrame Kind = "frame"
	// KindIdle covers everything between frame productions: dispatch work,
	// timers, parsing, and true idleness. Frame + idle spans partition time.
	KindIdle Kind = "idle"
	// KindEvent covers one input's lifetime, input → event-closure
	// completion. Event spans overlay the frame/idle partition.
	KindEvent Kind = "event"
	// KindStage covers one render stage (style, layout, paint) of a staged
	// frame production. Stage spans overlay their frame span: the staged
	// scheduler runs stages under phase barriers, so stage windows are
	// disjoint and nested inside the frame window, and the stage energies
	// plus the frame's non-stage residual reconstruct the frame span
	// exactly. Like events, they do not participate in the conservation sum.
	KindStage Kind = "stage"
)

// Span is one attributed interval: what the system was doing, when, under
// which configuration, and what it cost.
type Span struct {
	ID   int    `json:"id"`
	Kind Kind   `json:"kind"`
	Name string `json:"name"`
	// Seq is the frame sequence number (frames only; 0 for a frame that ran
	// its animation callbacks but committed nothing).
	Seq int `json:"seq,omitempty"`
	// UID is the input's unique id (event spans only).
	UID uint64 `json:"uid,omitempty"`

	Start sim.Time `json:"start_us"`
	End   sim.Time `json:"end_us"`

	// Energy is the CPU-rail energy drawn during the span, split per rail.
	Energy acmp.Joules `json:"energy_j"`
	Little acmp.Joules `json:"little_j"`
	Big    acmp.Joules `json:"big_j"`
	// Busy is the union-busy CPU time accrued during the span.
	Busy sim.Duration `json:"busy_us"`
	// Config is the execution configuration associated with the span (at
	// close for frames — the configuration the governor chose — at open for
	// events).
	Config string `json:"config,omitempty"`

	// Attrs carries scheduler decisions and other annotations (the GreenWeb
	// runtime records its prediction, deadline, and feedback outcome here).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Duration reports the span length.
func (s Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// ConfigMark records one execution-configuration change, for trace export.
type ConfigMark struct {
	At       sim.Time    `json:"at_us"`
	From, To acmp.Config `json:"-"`
}

// Ledger attributes the CPU meter's energy to frame, idle, and event spans.
// It is single-goroutine, like the simulator that drives it.
type Ledger struct {
	cpu      *acmp.CPU
	simu     *sim.Simulator
	baseline acmp.Joules // meter total when the ledger attached

	spans  []Span
	nextID int

	cur      Span         // open exclusive slice (frame or idle)
	curBusy0 sim.Duration // union-busy total when cur opened

	events     map[uint64]*Span
	eventBusy0 map[uint64]sim.Duration

	stage      *Span // open render-stage overlay (staged frame production)
	stageBusy0 sim.Duration

	marks []ConfigMark
}

// New attaches a ledger to the CPU's meter. Energy drawn before the ledger
// attaches stays outside the conservation sum (the baseline is subtracted).
func New(cpu *acmp.CPU) *Ledger {
	l := &Ledger{
		cpu:        cpu,
		simu:       cpu.Sim(),
		baseline:   cpu.Meter().Energy(),
		events:     make(map[uint64]*Span),
		eventBusy0: make(map[uint64]sim.Duration),
	}
	l.cur = Span{ID: l.nextID, Kind: KindIdle, Name: "idle/other", Start: l.simu.Now()}
	l.curBusy0 = cpu.UnionBusyTime()
	cpu.Meter().OnTransition(l.onTransition)
	cpu.OnConfigChange(func(from, to acmp.Config) {
		l.marks = append(l.marks, ConfigMark{At: l.simu.Now(), From: from, To: to})
	})
	return l
}

// onTransition receives one piecewise-constant integration interval from the
// meter and charges it to the open slice and every in-flight event. The
// ledger only changes the open slice at instants where it has just forced a
// meter sync, so each interval falls entirely within one slice.
func (l *Ledger) onTransition(from, to sim.Time, rail acmp.Cluster, e acmp.Joules) {
	l.charge(&l.cur, rail, e)
	for _, sp := range l.events {
		l.charge(sp, rail, e)
	}
	if l.stage != nil {
		l.charge(l.stage, rail, e)
	}
}

func (l *Ledger) charge(sp *Span, rail acmp.Cluster, e acmp.Joules) {
	sp.Energy += e
	if rail == acmp.Big {
		sp.Big += e
	} else {
		sp.Little += e
	}
}

// switchTo closes the open slice and opens a new one of the given kind.
// Zero-length, zero-energy idle slices (back-to-back frames) are dropped.
func (l *Ledger) switchTo(kind Kind) {
	now := l.simu.Now()
	l.cpu.Meter().Sync()
	busy := l.cpu.UnionBusyTime()
	l.cur.End = now
	l.cur.Busy = busy - l.curBusy0
	if l.cur.Kind != KindIdle || l.cur.Energy != 0 || l.cur.Duration() != 0 {
		l.spans = append(l.spans, l.cur)
	}
	l.nextID++
	l.cur = Span{ID: l.nextID, Kind: kind, Start: now}
	if kind == KindIdle {
		l.cur.Name = "idle/other"
	}
	l.curBusy0 = busy
}

// BeginFrame opens a frame span: subsequent energy is the frame's until
// EndFrame. Beginning a frame inside a frame is an accounting bug and
// panics, like the simulator does on logic errors.
func (l *Ledger) BeginFrame() {
	if l.cur.Kind == KindFrame {
		panic("ledger: BeginFrame inside an open frame span")
	}
	l.switchTo(KindFrame)
}

// EndFrame closes the open frame span and returns it. seq is the committed
// frame's sequence number, or 0 when the frame ran callbacks but committed
// nothing; cfg is the configuration the frame executed under. The returned
// span is a value copy that does not alias ledger state.
func (l *Ledger) EndFrame(seq int, cfg acmp.Config) Span {
	if l.cur.Kind != KindFrame {
		panic("ledger: EndFrame without an open frame span")
	}
	if l.stage != nil {
		panic("ledger: EndFrame while stage " + l.stage.Name + " is open")
	}
	l.cur.Seq = seq
	l.cur.Config = cfg.String()
	if seq > 0 {
		l.cur.Name = fmt.Sprintf("frame %d", seq)
	} else {
		l.cur.Name = "frame (no commit)"
	}
	l.switchTo(KindIdle)
	// switchTo never drops a frame span, so the closed frame is the last
	// appended span.
	return l.spans[len(l.spans)-1]
}

// AnnotateFrame attaches a key/value to the open frame span (the GreenWeb
// runtime records its decision here). A no-op when no frame is open.
func (l *Ledger) AnnotateFrame(key, value string) {
	if l.cur.Kind != KindFrame {
		return
	}
	if l.cur.Attrs == nil {
		l.cur.Attrs = make(map[string]string)
	}
	l.cur.Attrs[key] = value
}

// BeginStage opens a render-stage overlay span inside the open frame span.
// Stages run under phase barriers, so at most one stage is open at a time;
// opening a stage outside a frame, or while another stage is open, is an
// accounting bug and panics.
func (l *Ledger) BeginStage(seq int, name string) {
	if l.cur.Kind != KindFrame {
		panic("ledger: BeginStage outside an open frame span")
	}
	if l.stage != nil {
		panic("ledger: BeginStage while stage " + l.stage.Name + " is open")
	}
	l.cpu.Meter().Sync()
	l.nextID++
	l.stage = &Span{
		ID:     l.nextID,
		Kind:   KindStage,
		Name:   name,
		Seq:    seq,
		Start:  l.simu.Now(),
		Config: l.cpu.Config().String(),
	}
	l.stageBusy0 = l.cpu.UnionBusyTime()
}

// EndStage closes the open stage span and returns a value copy of it.
func (l *Ledger) EndStage() Span {
	if l.stage == nil {
		panic("ledger: EndStage without an open stage span")
	}
	l.cpu.Meter().Sync()
	sp := l.stage
	sp.End = l.simu.Now()
	sp.Busy = l.cpu.UnionBusyTime() - l.stageBusy0
	l.spans = append(l.spans, *sp)
	l.stage = nil
	return *sp
}

// BeginEvent opens an overlay span for one input's lifetime.
func (l *Ledger) BeginEvent(uid uint64, name string) {
	if _, ok := l.events[uid]; ok {
		return // duplicate begin: keep the original span
	}
	l.cpu.Meter().Sync()
	l.nextID++
	l.events[uid] = &Span{
		ID:     l.nextID,
		Kind:   KindEvent,
		Name:   name,
		UID:    uid,
		Start:  l.simu.Now(),
		Config: l.cpu.Config().String(),
	}
	l.eventBusy0[uid] = l.cpu.UnionBusyTime()
}

// AnnotateEvent attaches a key/value to an in-flight event span. A no-op for
// unknown or already-closed events.
func (l *Ledger) AnnotateEvent(uid uint64, key, value string) {
	sp, ok := l.events[uid]
	if !ok {
		return
	}
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]string)
	}
	sp.Attrs[key] = value
}

// EndEvent closes an event's overlay span at the current instant. A no-op
// for unknown or already-closed events.
func (l *Ledger) EndEvent(uid uint64) {
	sp, ok := l.events[uid]
	if !ok {
		return
	}
	l.cpu.Meter().Sync()
	sp.End = l.simu.Now()
	sp.Busy = l.cpu.UnionBusyTime() - l.eventBusy0[uid]
	l.spans = append(l.spans, *sp)
	delete(l.events, uid)
	delete(l.eventBusy0, uid)
}

// Finish closes every in-flight event span at the current instant (a run can
// end with inputs whose closure never exhausted). The exclusive slice stays
// open — Spans and Check snapshot it — so late energy is never dropped.
func (l *Ledger) Finish() {
	uids := make([]uint64, 0, len(l.events))
	for uid := range l.events {
		uids = append(uids, uid)
	}
	slices.Sort(uids)
	for _, uid := range uids {
		l.EndEvent(uid)
	}
}

// Spans returns every closed span plus a snapshot of the open slice, sorted
// by start time (ID breaks ties).
func (l *Ledger) Spans() []Span {
	l.cpu.Meter().Sync()
	out := make([]Span, 0, len(l.spans)+len(l.events)+2)
	out = append(out, l.spans...)
	for _, sp := range l.events {
		snap := *sp
		snap.End = l.simu.Now()
		snap.Busy = l.cpu.UnionBusyTime() - l.eventBusy0[sp.UID]
		out = append(out, snap)
	}
	out = l.appendOpen(out)
	sortSpans(out)
	return out
}

// appendOpen appends snapshots of the open stage span, if any, and of the
// open exclusive slice, both ending now. The caller has synced the meter.
func (l *Ledger) appendOpen(out []Span) []Span {
	now, busy := l.simu.Now(), l.cpu.UnionBusyTime()
	if l.stage != nil {
		snap := *l.stage
		snap.End = now
		snap.Busy = busy - l.stageBusy0
		out = append(out, snap)
	}
	cur := l.cur
	cur.End = now
	cur.Busy = busy - l.curBusy0
	return append(out, cur)
}

// sortSpans orders spans by start time, ID breaking ties. IDs are unique,
// so the order is total.
func sortSpans(spans []Span) {
	slices.SortFunc(spans, func(a, b Span) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// Marks returns the configuration-change history observed by the ledger.
func (l *Ledger) Marks() []ConfigMark { return l.marks }

// Totals are span energies summed per kind. Frame + Idle partition the
// meter integral; Event may double-count overlapping events; Stage never
// exceeds Frame (stage windows are disjoint and nested inside frames).
type Totals struct {
	Frame, Idle, Event, Stage acmp.Joules
}

// totals sums a Spans snapshot per kind, in snapshot order. Summing the
// sorted snapshot, not the ledger's append order (event spans are appended
// when they close, not when they start), keeps every total's float
// rounding independent of when spans happened to close.
func totals(spans []Span) Totals {
	var t Totals
	for _, sp := range spans {
		switch sp.Kind {
		case KindFrame:
			t.Frame += sp.Energy
		case KindIdle:
			t.Idle += sp.Energy
		case KindEvent:
			t.Event += sp.Energy
		case KindStage:
			t.Stage += sp.Energy
		}
	}
	return t
}

// Close ends a run's attribution in one pass and finishes the ledger: it
// closes in-flight events (Finish), appends the open slices to the closed
// spans, sorts them in place, and checks conservation on their per-kind
// totals. It returns the same spans Finish followed by Spans would, without
// copying them. The ledger must not be used after Close.
func (l *Ledger) Close() ([]Span, Totals, error) {
	l.Finish()
	l.cpu.Meter().Sync()
	l.spans = l.appendOpen(l.spans)
	sortSpans(l.spans)
	t := totals(l.spans)
	return l.spans, t, l.conserves(t)
}

// Summary reports the attributed energy totals: frame-production energy,
// everything-else energy (the two partition the meter integral), and the
// event-overlay total (which may double-count overlapping events).
func (l *Ledger) Summary() (frame, idle, event acmp.Joules) {
	t := totals(l.Spans())
	return t.Frame, t.Idle, t.Event
}

// StageEnergy reports the total energy attributed to render-stage spans.
// Stage windows are disjoint and nested inside frame windows, so this never
// exceeds the frame total of Summary.
func (l *Ledger) StageEnergy() acmp.Joules { return totals(l.Spans()).Stage }

// Check enforces the conservation invariant: the frame+idle span energies
// must sum to the meter integral since attach within ConservationTolerance.
// Any discrepancy is an accounting bug in the attribution pipeline.
func (l *Ledger) Check() error { return l.conserves(totals(l.Spans())) }

// conserves checks totals taken from a snapshot against the meter integral.
func (l *Ledger) conserves(t Totals) error {
	total := l.cpu.Meter().Energy() - l.baseline
	sum := t.Frame + t.Idle
	if diff := math.Abs(float64(sum - total)); diff > ConservationTolerance {
		return fmt.Errorf("ledger: conservation violated: spans sum to %.12f J, meter integral is %.12f J (|Δ| = %.3e J > %g)",
			float64(sum), float64(total), diff, ConservationTolerance)
	}
	return nil
}
