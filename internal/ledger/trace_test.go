package ledger

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

func sampleSpans() []Span {
	return []Span{
		{ID: 1, Kind: KindIdle, Name: "idle/other", Start: 0, End: 16_000, Energy: 0.001, Little: 0.001},
		{ID: 2, Kind: KindFrame, Seq: 1, Start: 16_000, End: 24_000,
			Energy: 0.004, Big: 0.004, Busy: 6_000, Config: "big@1800MHz",
			Decision: &FrameDecision{Set: FieldVerdict, Verdict: Profile, Chosen: acmp.PeakConfig()}},
		// Overlapping events: must land on distinct lanes.
		{ID: 3, Kind: KindEvent, Name: "touchstart #b", UID: 11, Start: 1_000, End: 30_000, Energy: 0.004},
		{ID: 4, Kind: KindEvent, Name: "touchend #b", UID: 12, Start: 9_000, End: 26_000, Energy: 0.003},
		{ID: 5, Kind: KindEvent, Name: "click #b", UID: 13, Start: 31_000, End: 40_000, Energy: 0.001},
	}
}

func TestWriteTraceProducesValidChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	err := WriteTrace(&buf, Process{
		PID:   1,
		Name:  "CNN/GreenWeb-U",
		Spans: sampleSpans(),
		Marks: []ConfigMark{{At: 16_000, From: acmp.LowestConfig(), To: acmp.PeakConfig()}},
	})
	if err != nil {
		t.Fatal(err)
	}

	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *int64         `json:"ts"`
			Dur  int64          `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}

	var complete, meta, counters, decisions int
	lanes := make(map[uint64]int)
	for _, ev := range tf.TraceEvents {
		if ev.TS == nil {
			t.Fatalf("event %q missing ts", ev.Name)
		}
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur < 0 {
				t.Errorf("event %q has negative dur", ev.Name)
			}
			if uid, ok := ev.Args["input_uid"].(float64); ok {
				lanes[uint64(uid)] = ev.TID
			}
			if ev.Name == "decide:profile@big@1800MHz" {
				decisions++
				if ev.TID != frameTID || *ev.TS != 16_000 || ev.Dur != 8_000 {
					t.Errorf("decision span not nested inside its frame: %+v", ev)
				}
			}
		case "M":
			meta++
		case "C":
			counters++
		}
	}
	// One complete event per span, plus one nested decision span under the
	// frame that carries a "decision" attribute.
	if complete != len(sampleSpans())+1 {
		t.Errorf("complete events = %d, want %d", complete, len(sampleSpans())+1)
	}
	if decisions != 1 {
		t.Errorf("decision spans = %d, want 1", decisions)
	}
	if meta < 3 { // process_name + frames thread + at least one event lane
		t.Errorf("metadata events = %d, want >= 3", meta)
	}
	if counters != 1 {
		t.Errorf("counter events = %d, want 1", counters)
	}
	// Overlapping events 11 and 12 must not share a lane; 13 may reuse one.
	if lanes[11] == lanes[12] {
		t.Errorf("overlapping events share tid %d", lanes[11])
	}
	if lanes[11] < eventTIDBase || lanes[12] < eventTIDBase {
		t.Errorf("event lanes below base: %v", lanes)
	}
}

func TestWriteTraceFromLiveLedger(t *testing.T) {
	r := newRig()
	r.led.BeginEvent(1, "load #document")
	r.led.BeginFrame()
	r.burn(1_000_000)
	r.s.RunUntil(sim.Time(5 * sim.Millisecond))
	r.led.EndFrame(1, r.cpu.Config())
	r.led.EndEvent(1)
	r.led.Finish()

	var buf bytes.Buffer
	if err := WriteTrace(&buf, Process{PID: 1, Name: "live", Spans: r.led.Spans(), Marks: r.led.Marks()}); err != nil {
		t.Fatal(err)
	}
	var tf map[string]any
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("live trace is not valid JSON: %v", err)
	}
	if _, ok := tf["traceEvents"].([]any); !ok {
		t.Fatal("traceEvents missing or not an array")
	}
}
