package ledger

import (
	"reflect"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// closeScript drives a ledger through an annotated frame, a staged frame,
// events that close out of start order, and one event still in flight when
// the script ends.
func closeScript(r *rig) {
	r.led.BeginEvent(1, "touchstart a")
	r.burn(400_000)
	r.s.RunUntil(sim.Time(3 * sim.Millisecond))

	r.led.BeginFrame()
	d := r.led.Decision()
	d.Set, d.Verdict, d.Chosen = FieldVerdict, Predict, r.cpu.Config()
	r.led.BeginEvent(2, "click b")
	r.burn(900_000)
	r.s.RunUntil(sim.Time(8 * sim.Millisecond))
	r.led.EndFrame(1, r.cpu.Config())

	r.led.BeginEvent(3, "scroll c")
	r.cpu.SetConfig(acmp.Config{Cluster: acmp.Big, MHz: acmp.BigMaxMHz})
	r.burn(1_200_000)
	r.s.RunUntil(sim.Time(12 * sim.Millisecond))
	r.led.EndEvent(3) // the latest-started event closes first

	r.led.BeginFrame()
	for i, cycles := range []int64{700_000, 1_100_000, 500_000} {
		r.led.BeginStage(2, []string{"style", "layout", "paint"}[i])
		r.burn(cycles)
		r.s.Run()
		r.led.EndStage()
	}
	r.led.EndFrame(2, r.cpu.Config())
	r.led.EndEvent(1)

	r.burn(300_000)
	r.s.RunUntil(sim.Time(30 * sim.Millisecond)) // event 2 is still open
}

// Close must return exactly what Finish followed by Spans returns on an
// identical ledger, with the totals Summary and StageEnergy report.
func TestCloseMatchesFinishAndSpans(t *testing.T) {
	closed, snapped := newRig(), newRig()
	closeScript(closed)
	closeScript(snapped)

	spans, tot, err := closed.led.Close()
	if err != nil {
		t.Fatal(err)
	}
	snapped.led.Finish()
	want := snapped.led.Spans()
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("Close spans differ from Finish+Spans:\n got %+v\nwant %+v", spans, want)
	}
	frame, idle, event := snapped.led.Summary()
	if wantTot := (Totals{Frame: frame, Idle: idle, Event: event, Stage: snapped.led.StageEnergy()}); tot != wantTot {
		t.Errorf("Close totals = %+v, want %+v", tot, wantTot)
	}
	if err := snapped.led.Check(); err != nil {
		t.Fatal(err)
	}

	// The script covered what it claims to.
	kinds := map[Kind]int{}
	for i, sp := range spans {
		kinds[sp.Kind]++
		if i > 0 && (sp.Start < spans[i-1].Start || sp.Start == spans[i-1].Start && sp.ID < spans[i-1].ID) {
			t.Fatalf("span %d (id %d) out of (Start, ID) order", i, sp.ID)
		}
		if sp.Kind == KindEvent && sp.UID == 2 && sp.End != sim.Time(30*sim.Millisecond) {
			t.Errorf("in-flight event closed at %v, want the close instant", sp.End)
		}
	}
	if kinds[KindFrame] != 2 || kinds[KindStage] != 3 || kinds[KindEvent] != 3 || kinds[KindIdle] == 0 {
		t.Fatalf("span kinds = %v", kinds)
	}
	if tot.Stage <= 0 || tot.Stage > tot.Frame || tot.Event <= 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

// Close hands its span buffer to the next ledger. The spans it returned
// belong to the caller: a later ledger appending into the recycled buffer,
// and closing it again, must leave them untouched.
func TestCloseSpansSurviveBufferReuse(t *testing.T) {
	first := newRig()
	closeScript(first)
	spans, _, err := first.led.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != cap(spans) {
		t.Errorf("Close returned len %d cap %d, want an exact-size slice", len(spans), cap(spans))
	}
	want := make([]Span, len(spans))
	copy(want, spans)
	decisions := make([]FrameDecision, 0, len(spans))
	for _, sp := range spans {
		if sp.Decision != nil {
			decisions = append(decisions, *sp.Decision)
		}
	}

	for range 3 {
		next := newRig()
		next.led.BeginEvent(9, "keydown z")
		next.led.BeginFrame()
		d := next.led.Decision()
		d.Set, d.Verdict, d.Class = FieldVerdict|FieldClass, Profile, "other"
		next.burn(2_000_000)
		next.s.RunUntil(sim.Time(5 * sim.Millisecond))
		next.led.EndFrame(7, next.cpu.Config())
		if _, _, err := next.led.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("closed spans changed after their buffer was reused:\n got %+v\nwant %+v", spans, want)
	}
	i := 0
	for _, sp := range spans {
		if sp.Decision != nil {
			if *sp.Decision != decisions[i] {
				t.Fatalf("span %d decision record changed: %+v, want %+v", sp.ID, *sp.Decision, decisions[i])
			}
			i++
		}
	}
}

// A closed ledger stays closed: the meter keeps integrating (and the CPU
// keeps changing configuration) after Close, and the ledger ignores both;
// closing it again returns nothing.
func TestClosedLedgerIgnoresMeter(t *testing.T) {
	r := newRig()
	closeScript(r)
	if _, _, err := r.led.Close(); err != nil {
		t.Fatal(err)
	}
	marks := len(r.led.Marks())
	r.cpu.SetConfig(acmp.Config{Cluster: acmp.Little, MHz: acmp.LittleMinMHz})
	r.burn(500_000)
	r.s.Run()
	if got := r.cpu.Energy(); got <= 0 {
		t.Fatalf("meter stopped: %v J", got)
	}
	if got := len(r.led.Marks()); got != marks {
		t.Errorf("closed ledger recorded %d more config marks", got-marks)
	}
	spans, tot, err := r.led.Close()
	if spans != nil || tot != (Totals{}) || err != nil {
		t.Fatalf("second Close = %v, %+v, %v; want nothing", spans, tot, err)
	}
}
