package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/ledger"
)

func frameSpan(id, seq int, energy float64) ledger.Span {
	return ledger.Span{
		ID: id, Kind: ledger.KindFrame, Seq: seq,
		Start: 1000, End: 2000, Energy: acmp.Joules(energy), Busy: 800,
		Config: "big@1800MHz",
		Decision: &ledger.FrameDecision{
			Set: ledger.FieldGovernor | ledger.FieldVerdict | ledger.FieldPredicted |
				ledger.FieldMeasured | ledger.FieldOutcome,
			Governor: "GreenWeb-U", Verdict: ledger.Predict, Chosen: acmp.PeakConfig(),
			Predicted: 8100, Measured: 7900, Mode: ledger.ModePredicted,
		},
	}
}

func TestDecisionOf(t *testing.T) {
	sp := frameSpan(7, 3, 0.0025)
	d, ok := DecisionOf(sp)
	if !ok {
		t.Fatal("frame span rejected")
	}
	if d.Span != 7 || d.Frame != 3 || d.FrameDecision != sp.Decision || d.Config != "big@1800MHz" ||
		d.EnergyJ != 0.0025 || d.StartUS != 1000 || d.EndUS != 2000 || d.BusyUS != 800 {
		t.Errorf("projection = %+v", d)
	}
	want := DecisionRow{
		Span: 7, Frame: 3, StartUS: 1000, EndUS: 2000, Governor: "GreenWeb-U",
		Decision: "predict@big@1800MHz", Predicted: "8.1ms", Measured: "7.9ms",
		Outcome: "predicted:ok", Config: "big@1800MHz", EnergyJ: 0.0025, BusyUS: 800,
	}
	if row := d.Row(); row != want {
		t.Errorf("row = %+v\nwant %+v", row, want)
	}

	if _, ok := DecisionOf(ledger.Span{Kind: ledger.KindIdle}); ok {
		t.Error("idle span accepted as decision")
	}
	if _, ok := DecisionOf(ledger.Span{Kind: ledger.KindEvent}); ok {
		t.Error("event span accepted as decision")
	}
	// Un-annotated, no-commit frames still qualify — decision energies must
	// sum to the ledger's frame-energy total — and render no runtime field.
	bare, ok := DecisionOf(ledger.Span{ID: 9, Kind: ledger.KindFrame})
	if !ok {
		t.Fatal("bare frame span rejected")
	}
	if row := bare.Row(); row != (DecisionRow{Span: 9}) {
		t.Errorf("bare frame row = %+v", row)
	}
	if other, _ := DecisionOf(ledger.Span{Kind: ledger.KindFrame}); other.FrameDecision != bare.FrameDecision {
		t.Error("unscheduled frames do not share one zero record")
	}
}

func TestDecisionsOfFiltersKinds(t *testing.T) {
	spans := []ledger.Span{
		{ID: 1, Kind: ledger.KindIdle},
		frameSpan(2, 1, 0),
		{ID: 3, Kind: ledger.KindEvent},
		frameSpan(4, 0, 0), // no-commit frame
	}
	ds := DecisionsOf(spans)
	if len(ds) != 2 || ds[0].Span != 2 || ds[1].Span != 4 {
		t.Fatalf("decisions = %+v", ds)
	}
	if cap(ds) != len(ds) {
		t.Errorf("log not pre-sized: len %d cap %d", len(ds), cap(ds))
	}
	if ds := DecisionsOf(spans[:1]); ds != nil {
		t.Errorf("no frame spans gave %+v, want nil", ds)
	}
}

func TestWriteNDJSON(t *testing.T) {
	ds := DecisionsOf([]ledger.Span{frameSpan(1, 1, 0), frameSpan(2, 2, 0)})
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, ds); err != nil {
		t.Fatal(err)
	}
	var n int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var d DecisionRow
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("lines = %d, want 2", n)
	}
}
