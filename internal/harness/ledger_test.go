package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/ledger"
)

// TestLedgerConservationFullSweep is the acceptance check for the energy-
// attribution ledger: across the full Table 3 sweep (every application under
// the paper's two baselines and both GreenWeb scenarios), the frame+idle
// span energies must sum to the meter integral within the conservation
// tolerance, and the span timeline must be structurally sound. ExecuteCell
// already fails any run whose ledger misaccounts; this test additionally
// cross-checks the exported summary against the raw spans.
func TestLedgerConservationFullSweep(t *testing.T) {
	kinds := []Kind{Perf, Interactive, GreenWebI, GreenWebU}
	for _, app := range apps.All() {
		for _, kind := range kinds {
			app, kind := app, kind
			t.Run(app.Name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				run, err := ExecuteCell(context.Background(), Cell{App: app, Kind: kind, Full: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(run.Spans) == 0 {
					t.Fatal("run produced no spans")
				}

				// Summary columns must re-derive from the raw spans and
				// partition the whole-run meter integral.
				var frame, idle, event float64
				committed := 0
				for _, sp := range run.Spans {
					switch sp.Kind {
					case ledger.KindFrame:
						frame += float64(sp.Energy)
						if sp.Seq > 0 {
							committed++
						}
					case ledger.KindIdle:
						idle += float64(sp.Energy)
					case ledger.KindEvent:
						event += float64(sp.Energy)
					}
					if sp.End < sp.Start || sp.Energy < 0 {
						t.Fatalf("malformed span: %+v", sp)
					}
				}
				if d := math.Abs(frame + idle - float64(run.TotalEnergy)); d > ledger.ConservationTolerance {
					t.Errorf("spans sum to %.12f J, meter integral %.12f J (|Δ|=%.3e)",
						frame+idle, float64(run.TotalEnergy), d)
				}
				if d := math.Abs(frame - float64(run.FrameEnergy)); d > ledger.ConservationTolerance {
					t.Errorf("FrameEnergy=%v disagrees with span sum %v", run.FrameEnergy, frame)
				}
				if d := math.Abs(event - float64(run.EventEnergy)); d > ledger.ConservationTolerance {
					t.Errorf("EventEnergy=%v disagrees with span sum %v", run.EventEnergy, event)
				}
				if committed != len(run.FrameResults) {
					t.Errorf("%d committed frame spans, %d frames in the timeline", committed, len(run.FrameResults))
				}
				if frame <= 0 {
					t.Error("no energy attributed to frames")
				}
			})
		}
	}
}

// TestRunTraceExport checks that a real run's spans export as valid Chrome
// trace-event JSON (what greenbench -trace and the greensrv trace endpoint
// serve).
func TestRunTraceExport(t *testing.T) {
	app := apps.All()[0]
	run, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebU, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	proc := ledger.Process{PID: 1, Name: app.Name, Spans: run.Spans, Marks: run.ConfigMarks}
	if err := ledger.WriteTrace(&buf, proc); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			TS  int64  `json:"ts"`
			Dur int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var complete int
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			complete++
			if ev.Dur < 0 || ev.TS < 0 {
				t.Errorf("malformed complete event: %+v", ev)
			}
		}
	}
	// Each span is one complete event, plus one nested "decide:" event per
	// frame span carrying a governor decision.
	want := len(run.Spans)
	var decided int
	for _, sp := range run.Spans {
		if sp.Kind == ledger.KindFrame && sp.Decision != nil && sp.Decision.Text(ledger.FieldVerdict) != "" {
			want++
			decided++
		}
	}
	if complete != want {
		t.Errorf("trace has %d complete events for %d spans + %d decisions", complete, len(run.Spans), decided)
	}
	if decided == 0 {
		t.Error("GreenWeb-U run exported no nested decision spans")
	}
}

// TestGreenWebRunAnnotatesSpans checks that the runtime's scheduling
// decisions reach the frame spans: a GreenWeb run must carry governor
// annotations on at least one frame.
func TestGreenWebRunAnnotatesSpans(t *testing.T) {
	app := apps.All()[0]
	run, err := ExecuteCell(context.Background(), Cell{App: app, Kind: GreenWebU, Full: true})
	if err != nil {
		t.Fatal(err)
	}
	var annotated, withOutcome int
	for _, sp := range run.Spans {
		if sp.Kind != ledger.KindFrame {
			continue
		}
		d := sp.Decision
		if d == nil {
			continue
		}
		if d.Text(ledger.FieldGovernor) == "GreenWeb-U" {
			annotated++
		}
		if d.Text(ledger.FieldOutcome) != "" {
			withOutcome++
		}
	}
	if annotated == 0 {
		t.Error("no frame spans carry governor annotations")
	}
	if withOutcome == 0 {
		t.Error("no frame spans carry feedback outcomes")
	}
}

// executeLoaded is ExperimentBackground's loaded run: app's full interaction
// under GreenWeb-I with the background application sharing the SoC.
func executeLoaded(ctx context.Context, app *apps.App) (*Run, error) {
	return execute(ctx, app, app.HTML(), GreenWebI, app.Full, nil, nil, true)
}

// TestBackgroundRunConservation holds runs that share the SoC with a
// background app to the invariant every other run meets: frame + idle
// energy partition the whole-run meter integral, the background app's
// draw included.
func TestBackgroundRunConservation(t *testing.T) {
	app, _ := apps.ByName("MSN")
	run, err := executeLoaded(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	if run.FrameEnergy <= 0 || run.IdleEnergy <= 0 || run.EventEnergy <= 0 {
		t.Fatalf("energy not attributed: frame %v J, idle %v J, event %v J",
			run.FrameEnergy, run.IdleEnergy, run.EventEnergy)
	}
	if d := math.Abs(float64(run.FrameEnergy + run.IdleEnergy - run.TotalEnergy)); d > ledger.ConservationTolerance {
		t.Errorf("frame %.12f J + idle %.12f J != meter integral %.12f J (|Δ|=%.3e)",
			float64(run.FrameEnergy), float64(run.IdleEnergy), float64(run.TotalEnergy), d)
	}
}

// TestBackgroundRunHonorsStageWorkers: the background experiment's loaded
// run renders with the context's stage-worker count, like the solo run it
// is compared with, and stops when the context is cancelled.
func TestBackgroundRunHonorsStageWorkers(t *testing.T) {
	app, _ := apps.ByName("MSN")
	staged, err := executeLoaded(WithStageWorkers(context.Background(), 4), app)
	if err != nil {
		t.Fatal(err)
	}
	if staged.StageEnergy <= 0 {
		t.Fatalf("loaded run at 4 stage workers attributed %v J to stages, want > 0", staged.StageEnergy)
	}
	serial, err := executeLoaded(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	if serial.StageEnergy != 0 {
		t.Fatalf("serial loaded run attributed %v J to stages", serial.StageEnergy)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := executeLoaded(ctx, app); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v, want context.Canceled", err)
	}
}
