package ledger

import (
	"reflect"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// TestFrameDecisionText: each recorded field renders as the decision log
// shows it, an unrecorded field renders nothing, and a recorded zero still
// renders.
func TestFrameDecisionText(t *testing.T) {
	peak, low := acmp.PeakConfig(), acmp.LowestConfig()
	d := FrameDecision{
		Set: FieldGovernor | FieldClass | FieldDeadline | FieldVerdict | FieldMeasured |
			FieldOutcome | FieldThermalCap | FieldDegrade | FieldStages,
		Governor: "GreenWeb-I", Class: "html>body@click",
		Verdict: Degraded, Chosen: peak, Predicted: 5 * sim.Millisecond,
		Measured: 16_600, Mode: ModeDegraded, Violated: true, Reprofile: true,
		ThermalCap: acmp.Config{Cluster: acmp.Big, MHz: 900}, Degrade: 4,
		Stages: StageVector{peak, low, peak},
	}
	args := map[string]any{}
	d.addArgs(args)
	want := map[string]any{
		"governor": "GreenWeb-I", "class": "html>body@click", "deadline": "0s",
		"decision": "degraded@big@1800MHz", "measured": "16.6ms",
		"outcome": "degraded:violated,reprofile", "thermal_cap": "big@900MHz",
		"degrade":      "4 consecutive violations",
		"stage_vector": "style=big@1800MHz,layout=little@350MHz,paint=big@1800MHz",
	}
	if !reflect.DeepEqual(args, want) {
		t.Errorf("args = %v\nwant %v", args, want)
	}
	if got := d.Text(FieldPredicted); got != "" {
		t.Errorf("unrecorded predicted rendered %q", got)
	}

	for v, want := range map[Verdict]string{
		Unannotated: "unannotated", Profile: "profile@little@350MHz", Predict: "predict@little@350MHz",
	} {
		d := FrameDecision{Set: FieldVerdict, Verdict: v, Chosen: low}
		if got := d.Text(FieldVerdict); got != want {
			t.Errorf("verdict %d = %q, want %q", v, got, want)
		}
	}
	d = FrameDecision{Set: FieldOutcome | FieldRecover | FieldPredicted, Mode: ModePredicted, Recover: 4, Predicted: 1500}
	for f, want := range map[Field]string{
		FieldOutcome: "predicted:ok", FieldRecover: "4 clean frames, reprofiling", FieldPredicted: "1.5ms",
	} {
		if got := d.Text(f); got != want {
			t.Errorf("field %#x = %q, want %q", f, got, want)
		}
	}
}

// TestDecisionRecordsSurviveChunks: records carved from successive chunks
// stay distinct, and each frame span keeps what was recorded on it.
func TestDecisionRecordsSurviveChunks(t *testing.T) {
	r := newRig()
	const n = 2*decisionChunk + 3
	for i := 1; i <= n; i++ {
		r.led.BeginFrame()
		d := r.led.Decision()
		d.Set, d.Measured = FieldMeasured, sim.Duration(i)
		r.s.RunUntil(r.s.Now().Add(sim.Millisecond))
		r.led.EndFrame(i, r.cpu.Config())
		r.s.RunUntil(r.s.Now().Add(sim.Millisecond))
	}
	spans, _, err := r.led.Close()
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, sp := range spans {
		if sp.Kind != KindFrame {
			continue
		}
		frames++
		if sp.Decision == nil || sp.Decision.Measured != sim.Duration(sp.Seq) {
			t.Fatalf("frame %d carries decision %+v", sp.Seq, sp.Decision)
		}
	}
	if frames != n {
		t.Fatalf("frames = %d, want %d", frames, n)
	}
}
