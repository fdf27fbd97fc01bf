package ledger

import (
	"math"
	"strings"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/sim"
)

// TestStageSpansPartitionFrameEnergy: stage spans opened back-to-back inside
// a frame (the staged pipeline's phase barriers leave no gap between them)
// reconstruct the frame's energy exactly — Σstage + residual == frame, with
// residual zero when the stages tile the whole window.
func TestStageSpansPartitionFrameEnergy(t *testing.T) {
	r := newRig()

	r.s.RunUntil(sim.Time(2 * sim.Millisecond))
	r.led.BeginFrame()
	for i, cycles := range []int64{1_000_000, 1_500_000, 800_000} {
		r.led.BeginStage(1, []string{"style", "layout", "paint"}[i])
		r.burn(cycles)
		r.s.Run()
		r.led.EndStage()
	}
	frame := r.led.EndFrame(1, r.cpu.Config())

	r.s.RunUntil(sim.Time(20 * sim.Millisecond))
	r.led.Finish()
	checkConservation(t, r.led)

	// Global conservation ignores the stage overlays entirely: frame + idle
	// still partition the meter integral.
	fE, iE, _ := r.led.Summary()
	if diff := math.Abs(float64(fE + iE - r.cpu.Energy())); diff > ConservationTolerance {
		t.Errorf("frame(%v)+idle(%v) != total(%v)", fE, iE, r.cpu.Energy())
	}

	var stageSum float64
	var nStages int
	for _, sp := range r.led.Spans() {
		if sp.Kind != KindStage {
			continue
		}
		nStages++
		stageSum += float64(sp.Energy)
		if sp.Start < frame.Start || sp.End > frame.End {
			t.Errorf("stage span %q [%v,%v] escapes frame window [%v,%v]",
				sp.Name, sp.Start, sp.End, frame.Start, frame.End)
		}
		if sp.Seq != 1 {
			t.Errorf("stage span %q has seq %d, want 1", sp.Name, sp.Seq)
		}
	}
	if nStages != 3 {
		t.Fatalf("got %d stage spans, want 3", nStages)
	}
	if got := float64(r.led.StageEnergy()); math.Abs(got-stageSum) > ConservationTolerance {
		t.Errorf("StageEnergy() = %v, spans sum to %v", got, stageSum)
	}
	// The stages tile the frame window with zero-duration gaps only, so the
	// residual (frame − Σstage) must vanish to the conservation tolerance.
	if resid := math.Abs(float64(frame.Energy) - stageSum); resid > ConservationTolerance {
		t.Errorf("Σstage %v != frame energy %v (residual %v)", stageSum, float64(frame.Energy), resid)
	}
}

// TestStageSpanResidual: work between stage windows (a governor hook, a
// barrier switch stall) stays in the frame span but outside every stage
// span, so the residual is positive and the sub-partition remains exact.
func TestStageSpanResidual(t *testing.T) {
	r := newRig()

	r.led.BeginFrame()
	r.burn(500_000) // pre-stage script work: frame energy, not stage energy
	r.s.Run()
	r.led.BeginStage(1, "style")
	r.burn(1_000_000)
	r.s.Run()
	r.led.EndStage()
	frame := r.led.EndFrame(1, r.cpu.Config())
	r.led.Finish()
	checkConservation(t, r.led)

	stage := float64(r.led.StageEnergy())
	if stage <= 0 {
		t.Fatal("stage span recorded no energy")
	}
	if resid := float64(frame.Energy) - stage; resid <= 0 {
		t.Errorf("expected positive residual, frame %v vs Σstage %v", float64(frame.Energy), stage)
	}
}

// TestCloseChecksStagePartition: Close checks the stage sub-partition on
// every run. A stage span that escapes its frame's window, or stage spans
// that draw more than their frame, fail it like a conservation violation.
func TestCloseChecksStagePartition(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(stage, frame *Span)
	}{
		{"window", func(stage, frame *Span) { stage.End = frame.End + 1 }},
		{"energy", func(stage, frame *Span) { stage.Energy = frame.Energy + 1e-6 }},
	} {
		r := newRig()
		r.led.BeginFrame()
		r.led.BeginStage(1, "style")
		r.burn(1_000_000)
		r.s.Run()
		r.led.EndStage()
		r.led.EndFrame(1, r.cpu.Config())
		var frame, stage *Span
		for i, sp := range r.led.spans {
			switch sp.Kind {
			case KindFrame:
				frame = &r.led.spans[i]
			case KindStage:
				stage = &r.led.spans[i]
			}
		}
		c.corrupt(stage, frame)
		if _, _, err := r.led.Close(); err == nil || !strings.Contains(err.Error(), "stage partition") {
			t.Errorf("%s: Close accepted a corrupted stage span: %v", c.name, err)
		}
	}
}

// TestStageGuards: the phase-barrier protocol is enforced — stages only
// inside frames, no nesting, no dangling stage at frame end.
func TestStageGuards(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}

	r := newRig()
	expectPanic("BeginStage outside frame", func() { r.led.BeginStage(1, "style") })

	r = newRig()
	r.led.BeginFrame()
	r.led.BeginStage(1, "style")
	expectPanic("nested BeginStage", func() { r.led.BeginStage(1, "layout") })

	r = newRig()
	r.led.BeginFrame()
	r.led.BeginStage(1, "style")
	expectPanic("EndFrame with open stage", func() { r.led.EndFrame(1, r.cpu.Config()) })

	r = newRig()
	expectPanic("EndStage without stage", func() { r.led.EndStage() })
}
