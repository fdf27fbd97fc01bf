package ledger

import (
	"math"
	"slices"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// rig is a simulated CPU with one worker thread and an attached ledger.
type rig struct {
	s   *sim.Simulator
	cpu *acmp.CPU
	th  *acmp.Thread
	led *Ledger
}

func newRig() *rig {
	s := sim.New()
	cpu := acmp.NewCPU(s, nil)
	th := cpu.NewThread("worker")
	return &rig{s: s, cpu: cpu, th: th, led: New(cpu)}
}

func (r *rig) burn(cycles int64) {
	r.th.Submit(acmp.Work{CyclesBig: cycles, CyclesLittle: int64(float64(cycles) * 1.8)}, nil)
}

func checkConservation(t *testing.T, l *Ledger) {
	t.Helper()
	if err := l.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSlicesPartitionMeterIntegral(t *testing.T) {
	r := newRig()

	// idle → frame → idle → frame → idle, with work and a config change
	// falling inside and outside frames.
	r.burn(500_000)
	r.s.RunUntil(sim.Time(4 * sim.Millisecond))

	r.led.BeginFrame()
	r.burn(1_000_000)
	r.s.RunUntil(sim.Time(10 * sim.Millisecond))
	r.led.EndFrame(1, r.cpu.Config())

	r.cpu.SetConfig(acmp.Config{Cluster: acmp.Big, MHz: acmp.BigMaxMHz})
	r.burn(2_000_000)
	r.s.RunUntil(sim.Time(14 * sim.Millisecond))

	r.led.BeginFrame()
	r.burn(3_000_000)
	r.s.RunUntil(sim.Time(20 * sim.Millisecond))
	r.led.EndFrame(2, r.cpu.Config())

	r.s.RunUntil(sim.Time(25 * sim.Millisecond))
	r.led.Finish()
	checkConservation(t, r.led)

	frame, idle, _ := r.led.Summary()
	if frame <= 0 || idle <= 0 {
		t.Fatalf("expected energy in both frame and idle spans, got frame=%v idle=%v", frame, idle)
	}
	total := r.cpu.Energy()
	if diff := math.Abs(float64(frame + idle - total)); diff > ConservationTolerance {
		t.Errorf("frame(%v)+idle(%v) != total(%v)", frame, idle, total)
	}

	var frames, idles int
	for _, sp := range r.led.Spans() {
		switch sp.Kind {
		case KindFrame:
			frames++
			if sp.Seq == 0 || sp.Config == "" {
				t.Errorf("frame span missing seq/config: %+v", sp)
			}
		case KindIdle:
			idles++
		}
		if sp.End < sp.Start {
			t.Errorf("span %d ends before it starts: %+v", sp.ID, sp)
		}
	}
	if frames != 2 || idles < 2 {
		t.Errorf("spans: %d frames, %d idles; want 2 frames and >= 2 idles", frames, idles)
	}
}

func TestEventOverlaysObserveConcurrentEnergy(t *testing.T) {
	r := newRig()

	r.led.BeginEvent(1, "touchstart #btn")
	r.burn(1_000_000)
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))

	// A second, overlapping event: both must observe the energy drawn while
	// both are in flight.
	r.led.BeginEvent(2, "touchend #btn")
	r.burn(1_000_000)
	r.s.RunUntil(sim.Time(10 * sim.Millisecond))
	r.led.EndEvent(1)

	r.burn(1_000_000)
	r.s.RunUntil(sim.Time(15 * sim.Millisecond))
	r.led.EndEvent(2)

	r.led.Finish()
	checkConservation(t, r.led)

	var ev1, ev2 *Span
	for _, sp := range r.led.Spans() {
		sp := sp
		switch sp.UID {
		case 1:
			ev1 = &sp
		case 2:
			ev2 = &sp
		}
	}
	if ev1 == nil || ev2 == nil {
		t.Fatal("missing event spans")
	}
	if ev1.Energy <= 0 || ev2.Energy <= 0 {
		t.Fatalf("event energies: %v, %v; want both > 0", ev1.Energy, ev2.Energy)
	}
	// Overlap means the overlays together exceed the meter total is
	// possible; each alone must not exceed it.
	total := r.cpu.Energy()
	if ev1.Energy > total || ev2.Energy > total {
		t.Errorf("event overlay exceeds meter total %v: ev1=%v ev2=%v", total, ev1.Energy, ev2.Energy)
	}
	if ev1.Busy <= 0 {
		t.Errorf("event 1 busy time = %v, want > 0", ev1.Busy)
	}
}

func TestAnnotationsAndMarks(t *testing.T) {
	r := newRig()

	if r.led.Decision() != nil {
		t.Fatal("Decision outside a frame returned a record")
	}
	r.led.BeginEvent(7, "click #go")
	r.led.BeginFrame()
	d := r.led.Decision()
	d.Set, d.Verdict, d.Chosen = FieldVerdict, Predict, acmp.PeakConfig()
	if r.led.Decision() != d {
		t.Fatal("Decision returned a second record for the open frame")
	}
	r.cpu.SetConfig(acmp.Config{Cluster: acmp.Big, MHz: acmp.BigMaxMHz})
	r.burn(1_000_000)
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))
	r.led.EndFrame(1, r.cpu.Config())
	r.led.EndEvent(7)
	r.led.Finish()
	checkConservation(t, r.led)

	var sawFrame bool
	for _, sp := range r.led.Spans() {
		if sp.Kind == KindFrame {
			sawFrame = sp.Decision != nil && sp.Decision.Text(FieldVerdict) == "predict@big@1800MHz"
		} else if sp.Decision != nil {
			t.Errorf("%s span carries a decision", sp.Kind)
		}
	}
	if !sawFrame {
		t.Error("frame decision lost")
	}
	if len(r.led.Marks()) != 1 {
		t.Errorf("marks = %d, want 1", len(r.led.Marks()))
	}
	if r.led.Decision() != nil {
		t.Error("Decision after the frame closed returned a record")
	}
}

// An empty idle slice between back-to-back frames is dropped even when an
// event opened inside it, at the same instant: the event keeps its own span.
func TestDroppedIdleSliceKeepsEvent(t *testing.T) {
	r := newRig()
	r.led.BeginFrame()
	r.burn(500_000)
	r.s.Run()
	r.led.EndFrame(1, r.cpu.Config())
	r.led.BeginEvent(9, "click #b")
	r.led.BeginFrame()
	r.burn(700_000)
	r.s.Run()
	r.led.EndEvent(9)
	r.led.EndFrame(2, r.cpu.Config())
	spans, _, err := r.led.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got []Kind
	for _, sp := range spans {
		got = append(got, sp.Kind)
	}
	if want := []Kind{KindFrame, KindEvent, KindFrame, KindIdle}; !slices.Equal(got, want) {
		t.Fatalf("span kinds = %v, want %v", got, want)
	}
	if ev, frame := spans[1], spans[2]; ev.UID != 9 || ev.Energy <= 0 || ev.Energy != frame.Energy || ev.End != frame.End {
		t.Errorf("event span %+v does not cover frame %+v", ev, frame)
	}
}

func TestFinishClosesDanglingEvents(t *testing.T) {
	r := newRig()
	r.led.BeginEvent(1, "load #document")
	r.burn(1_000_000)
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))
	r.led.Finish()
	checkConservation(t, r.led)

	for _, sp := range r.led.Spans() {
		if sp.Kind == KindEvent && sp.End != r.s.Now() {
			t.Errorf("dangling event not closed at finish: %+v", sp)
		}
	}
	// Energy after Finish still lands in the open idle slice: conservation
	// must keep holding.
	r.burn(1_000_000)
	r.s.RunUntil(sim.Time(10 * sim.Millisecond))
	checkConservation(t, r.led)
}

func TestMismatchedFramePanics(t *testing.T) {
	r := newRig()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("EndFrame without BeginFrame", func() { r.led.EndFrame(1, r.cpu.Config()) })
	r.led.BeginFrame()
	mustPanic("nested BeginFrame", func() { r.led.BeginFrame() })
}

// TestConservationCatchesDroppedInterval demonstrates the invariant doing
// its job: an attribution sink that loses an interval must fail Check.
func TestConservationCatchesDroppedInterval(t *testing.T) {
	r := newRig()
	r.burn(1_000_000)
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))
	// Sabotage: steal energy from the ledger's current slice.
	r.cpu.Meter().Sync()
	r.led.spans[r.led.cur].Energy -= 0.001
	if err := r.led.Check(); err == nil {
		t.Fatal("Check accepted a 1 mJ accounting hole")
	}
}
