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
	"fmt"
	"math"
	"slices"
	"sync"

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
	// ID is issued as the span opens, on a clock that never runs
	// backwards, so ID order is also (Start, ID) order.
	ID   int  `json:"id"`
	Kind Kind `json:"kind"`
	// Name labels the span in traces. A committed frame's is empty: the
	// trace names it from Seq, so closing a frame formats nothing.
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

	// Decision is the GreenWeb runtime's scheduling record for a frame span
	// (nil for other kinds, and for frames no runtime scheduled). It is
	// final once the frame closes.
	Decision *FrameDecision `json:"decision,omitempty"`
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

	// spans holds every span, open or closed, in ID order: a span takes its
	// slot when it opens, and IDs are issued in start order, so spans is
	// always in (Start, ID) order and is never sorted. Open spans are
	// addressed by slot index. Its backing array comes from spanBufs and
	// goes back there on Close.
	spans  []Span
	buf    *[]Span
	nextID int

	cur      int          // slot of the open exclusive slice (frame or idle)
	curBusy0 sim.Duration // union-busy total when cur opened

	events []openEvent // in-flight event spans

	stage      int // slot of the open render-stage overlay, or -1
	stageBusy0 sim.Duration

	decisions []FrameDecision // chunk Decision carves frame records from
	marks     []ConfigMark
}

// openEvent is an event span in flight: its slot, and the union-busy total
// when it opened.
type openEvent struct {
	slot  int
	busy0 sim.Duration
}

// decisionChunk caps how many frame decision records the ledger allocates
// at a time. Chunks start small and double up to it, so a short run keeps
// little unused space.
const decisionChunk = 64

// spanBufs recycles span buffers between ledgers. A run's buffer grows to
// its span count by append; Close copies the spans out, clears the buffer
// and returns it, so the next run on this process starts with the capacity
// the last one grew and appends without reallocating.
var spanBufs = sync.Pool{New: func() any { return new([]Span) }}

// New attaches a ledger to the CPU's meter. Energy drawn before the ledger
// attaches stays outside the conservation sum (the baseline is subtracted).
func New(cpu *acmp.CPU) *Ledger {
	buf := spanBufs.Get().(*[]Span)
	l := &Ledger{
		cpu:      cpu,
		simu:     cpu.Sim(),
		baseline: cpu.Meter().Energy(),
		spans:    (*buf)[:0],
		buf:      buf,
		stage:    -1,
	}
	l.cur = l.open(KindIdle, "idle/other")
	l.curBusy0 = cpu.UnionBusyTime()
	cpu.Meter().OnTransition(l.onTransition)
	cpu.OnConfigChange(func(from, to acmp.Config) {
		if !l.closed() {
			l.marks = append(l.marks, ConfigMark{At: l.simu.Now(), From: from, To: to})
		}
	})
	return l
}

// closed reports whether Close has run (it hands the span buffer back). The
// meter and CPU keep calling a closed ledger, which ignores them.
func (l *Ledger) closed() bool { return l.buf == nil }

// open gives a new span the next ID and slot, starting now.
func (l *Ledger) open(kind Kind, name string) int {
	l.spans = append(l.spans, Span{ID: l.nextID, Kind: kind, Name: name, Start: l.simu.Now()})
	l.nextID++
	return len(l.spans) - 1
}

// onTransition receives one piecewise-constant integration interval from the
// meter and charges it to the open slice and every in-flight event. The
// ledger only changes the open slice at instants where it has just forced a
// meter sync, so each interval falls entirely within one slice.
func (l *Ledger) onTransition(from, to sim.Time, rail acmp.Cluster, e acmp.Joules) {
	if l.closed() {
		return
	}
	l.charge(l.cur, rail, e)
	for _, ev := range l.events {
		l.charge(ev.slot, rail, e)
	}
	if l.stage >= 0 {
		l.charge(l.stage, rail, e)
	}
}

func (l *Ledger) charge(slot int, rail acmp.Cluster, e acmp.Joules) {
	sp := &l.spans[slot]
	sp.Energy += e
	if rail == acmp.Big {
		sp.Big += e
	} else {
		sp.Little += e
	}
}

// end closes the span in a slot at now, given the union-busy totals now and
// when it opened, and returns a copy.
func (l *Ledger) end(slot int, now sim.Time, busy, busy0 sim.Duration) Span {
	sp := &l.spans[slot]
	sp.End = now
	sp.Busy = busy - busy0
	return *sp
}

// switchTo closes the open slice and opens a new one of the given kind. It
// returns the closed slice. Zero-length, zero-energy idle slices
// (back-to-back frames) are dropped.
func (l *Ledger) switchTo(kind Kind) Span {
	now := l.simu.Now()
	l.cpu.Meter().Sync()
	busy := l.cpu.UnionBusyTime()
	closed := l.end(l.cur, now, busy, l.curBusy0)
	if closed.Kind == KindIdle && closed.Energy == 0 && closed.Duration() == 0 {
		// Only events can have opened since, at this same instant.
		l.spans = slices.Delete(l.spans, l.cur, l.cur+1)
		for i := range l.events {
			if l.events[i].slot > l.cur {
				l.events[i].slot--
			}
		}
	}
	name := ""
	if kind == KindIdle {
		name = "idle/other"
	}
	l.cur = l.open(kind, name)
	l.curBusy0 = busy
	return closed
}

// BeginFrame opens a frame span: subsequent energy is the frame's until
// EndFrame. Beginning a frame inside a frame is an accounting bug and
// panics, like the simulator does on logic errors.
func (l *Ledger) BeginFrame() {
	if l.spans[l.cur].Kind == KindFrame {
		panic("ledger: BeginFrame inside an open frame span")
	}
	l.switchTo(KindFrame)
}

// EndFrame closes the open frame span and returns it. seq is the committed
// frame's sequence number, or 0 when the frame ran callbacks but committed
// nothing; cfg is the configuration the frame executed under. The returned
// span is a value copy; its decision record is final.
func (l *Ledger) EndFrame(seq int, cfg acmp.Config) Span {
	sp := &l.spans[l.cur]
	if sp.Kind != KindFrame {
		panic("ledger: EndFrame without an open frame span")
	}
	if l.stage >= 0 {
		panic("ledger: EndFrame while stage " + l.spans[l.stage].Name + " is open")
	}
	sp.Seq = seq
	sp.Config = cfg.String()
	if seq == 0 {
		sp.Name = "frame (no commit)"
	}
	return l.switchTo(KindIdle)
}

// Decision returns the open frame span's decision record for the runtime to
// fill, or nil when no frame is open. The record is valid until the frame
// closes. Records are carved from chunks, so recording allocates at most
// once per decisionChunk frames.
func (l *Ledger) Decision() *FrameDecision {
	sp := &l.spans[l.cur]
	if sp.Kind != KindFrame {
		return nil
	}
	if sp.Decision == nil {
		if len(l.decisions) == cap(l.decisions) {
			l.decisions = make([]FrameDecision, 0, min(max(2*cap(l.decisions), 4), decisionChunk))
		}
		l.decisions = l.decisions[:len(l.decisions)+1]
		sp.Decision = &l.decisions[len(l.decisions)-1]
	}
	return sp.Decision
}

// BeginStage opens a render-stage overlay span inside the open frame span.
// Stages run under phase barriers, so at most one stage is open at a time;
// opening a stage outside a frame, or while another stage is open, is an
// accounting bug and panics.
func (l *Ledger) BeginStage(seq int, name string) {
	if l.spans[l.cur].Kind != KindFrame {
		panic("ledger: BeginStage outside an open frame span")
	}
	if l.stage >= 0 {
		panic("ledger: BeginStage while stage " + l.spans[l.stage].Name + " is open")
	}
	l.stage, l.stageBusy0 = l.openOverlay(KindStage, name)
	l.spans[l.stage].Seq = seq
}

// EndStage closes the open stage span and returns a value copy of it.
func (l *Ledger) EndStage() Span {
	if l.stage < 0 {
		panic("ledger: EndStage without an open stage span")
	}
	l.cpu.Meter().Sync()
	sp := l.end(l.stage, l.simu.Now(), l.cpu.UnionBusyTime(), l.stageBusy0)
	l.stage = -1
	return sp
}

// openOverlay opens a stage or event span under the current configuration,
// returning its slot and the union-busy total now.
func (l *Ledger) openOverlay(kind Kind, name string) (int, sim.Duration) {
	l.cpu.Meter().Sync()
	slot := l.open(kind, name)
	l.spans[slot].Config = l.cpu.Config().String()
	return slot, l.cpu.UnionBusyTime()
}

// BeginEvent opens an overlay span for one input's lifetime.
func (l *Ledger) BeginEvent(uid uint64, name string) {
	if l.event(uid) >= 0 {
		return // duplicate begin: keep the original span
	}
	slot, busy0 := l.openOverlay(KindEvent, name)
	l.spans[slot].UID = uid
	l.events = append(l.events, openEvent{slot, busy0})
}

// event returns the index in events of uid's in-flight span, or -1.
func (l *Ledger) event(uid uint64) int {
	for i, ev := range l.events {
		if l.spans[ev.slot].UID == uid {
			return i
		}
	}
	return -1
}

// EndEvent closes an event's overlay span at the current instant. A no-op
// for unknown or already-closed events.
func (l *Ledger) EndEvent(uid uint64) {
	i := l.event(uid)
	if i < 0 {
		return
	}
	l.cpu.Meter().Sync()
	l.end(l.events[i].slot, l.simu.Now(), l.cpu.UnionBusyTime(), l.events[i].busy0)
	l.events = slices.Delete(l.events, i, i+1)
}

// Finish closes every in-flight event span at the current instant (a run can
// end with inputs whose closure never exhausted). The exclusive slice stays
// open — Spans and Check snapshot it — so late energy is never dropped.
func (l *Ledger) Finish() {
	l.cpu.Meter().Sync()
	now, busy := l.simu.Now(), l.cpu.UnionBusyTime()
	for _, ev := range l.events {
		l.end(ev.slot, now, busy, ev.busy0)
	}
	l.events = l.events[:0]
}

// Spans returns every closed span plus snapshots of the open ones, ending
// now, in (Start, ID) order.
func (l *Ledger) Spans() []Span {
	l.cpu.Meter().Sync()
	out := slices.Clone(l.spans)
	now, busy := l.simu.Now(), l.cpu.UnionBusyTime()
	snap := func(slot int, busy0 sim.Duration) {
		out[slot].End = now
		out[slot].Busy = busy - busy0
	}
	snap(l.cur, l.curBusy0)
	if l.stage >= 0 {
		snap(l.stage, l.stageBusy0)
	}
	for _, ev := range l.events {
		snap(ev.slot, ev.busy0)
	}
	return out
}

// Marks returns the configuration-change history observed by the ledger.
func (l *Ledger) Marks() []ConfigMark { return l.marks }

// Totals are span energies summed per kind. Frame + Idle partition the
// meter integral; Event may double-count overlapping events; Stage never
// exceeds Frame (stage windows are disjoint and nested inside frames).
type Totals struct {
	Frame, Idle, Event, Stage acmp.Joules
}

// totals sums spans in (Start, ID) order per kind. Summing in that order,
// not the order spans closed in, keeps every total's float rounding
// independent of when spans happened to close.
//
// In the same pass it checks the stage sub-partition, which that order makes
// local: a frame's stage spans follow it, before the next exclusive slice.
// It returns the first violation.
func totals(spans []Span) (Totals, error) {
	var (
		t      Totals
		err    error
		frame  *Span       // the exclusive slice the stages since nest in
		staged acmp.Joules // their energy so far
	)
	for i := range spans {
		sp := &spans[i]
		switch sp.Kind {
		case KindFrame:
			t.Frame += sp.Energy
			frame, staged = sp, 0
		case KindIdle:
			t.Idle += sp.Energy
			frame, staged = sp, 0
		case KindEvent:
			t.Event += sp.Energy
		case KindStage:
			t.Stage += sp.Energy
			staged += sp.Energy
			if err == nil {
				err = nests(sp, frame, staged)
			}
		}
	}
	return t, err
}

// nests checks one stage span against the sub-partition: it must lie inside
// its frame's window, and the frame's stages so far, this one included, may
// draw no more than the frame itself (within ConservationTolerance).
func nests(stage, frame *Span, staged acmp.Joules) error {
	if frame == nil || frame.Kind != KindFrame || stage.Start < frame.Start || stage.End > frame.End {
		return fmt.Errorf("ledger: stage partition violated: stage span %d %q [%v, %v] lies outside its frame",
			stage.ID, stage.Name, stage.Start, stage.End)
	}
	if staged > frame.Energy+ConservationTolerance {
		return fmt.Errorf("ledger: stage partition violated: frame span %d draws %.12f J, its stages %.12f J",
			frame.ID, float64(frame.Energy), float64(staged))
	}
	return nil
}

// Close ends a run's attribution in one pass and finishes the ledger: it
// closes in-flight events (Finish) and the open slices, and checks
// conservation and the stage sub-partition on the per-kind totals. It
// returns the same spans Finish followed by Spans would, in a slice of
// exactly their length that the caller owns, and recycles the ledger's own
// buffer (spanBufs). A closed ledger ignores the meter, and closing it again
// returns nothing; any other use after Close is a bug.
func (l *Ledger) Close() ([]Span, Totals, error) {
	if l.closed() {
		return nil, Totals{}, nil
	}
	l.Finish()
	now, busy := l.simu.Now(), l.cpu.UnionBusyTime()
	l.end(l.cur, now, busy, l.curBusy0)
	if l.stage >= 0 {
		l.end(l.stage, now, busy, l.stageBusy0)
	}
	t, err := l.check(l.spans)
	out := make([]Span, len(l.spans))
	copy(out, l.spans)
	// Clear the buffer before it is reused: its spans hold strings and
	// decision records the next ledger must not keep alive.
	clear(l.spans)
	*l.buf = l.spans[:0]
	spanBufs.Put(l.buf)
	l.spans, l.buf = nil, nil
	return out, t, err
}

// Summary reports the attributed energy totals: frame-production energy,
// everything-else energy (the two partition the meter integral), and the
// event-overlay total (which may double-count overlapping events).
func (l *Ledger) Summary() (frame, idle, event acmp.Joules) {
	t, _ := totals(l.Spans())
	return t.Frame, t.Idle, t.Event
}

// StageEnergy reports the total energy attributed to render-stage spans.
// Stage windows are disjoint and nested inside frame windows, so this never
// exceeds the frame total of Summary.
func (l *Ledger) StageEnergy() acmp.Joules {
	t, _ := totals(l.Spans())
	return t.Stage
}

// Check enforces the ledger's invariants. Conservation: the frame+idle span
// energies must sum to the meter integral since attach within
// ConservationTolerance. Stage sub-partition: every stage span nests inside
// its frame's window, and draws no more than the frame in total. Any
// violation is an accounting bug in the attribution pipeline.
func (l *Ledger) Check() error {
	_, err := l.check(l.Spans())
	return err
}

// check totals spans in (Start, ID) order and reports the first violated
// invariant, conservation first.
func (l *Ledger) check(spans []Span) (Totals, error) {
	t, err := totals(spans)
	if cerr := l.conserves(t); cerr != nil {
		return t, cerr
	}
	return t, err
}

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
