package obs

import (
	"encoding/json"
	"io"

	"github.com/wattwiseweb/greenweb/internal/ledger"
)

// Decision is one frame-level scheduling decision in the structured event
// log: what the governor chose for the frame, why, and what it cost. It
// copies the ledger frame span's fields and shares its decision record — the
// decision log is a projection of the ledger, never a second source of
// truth, which is what keeps it out-of-band. Row renders it for encoding.
type Decision struct {
	Span  int
	Frame int // committed sequence number; 0 = no commit

	StartUS int64
	EndUS   int64

	// The runtime's record: the span's own, final once its frame closed, or
	// the shared zero record under baseline governors that record none.
	// Read it, never modify it.
	*ledger.FrameDecision

	// Config is the ACMP configuration the frame executed under (at close).
	Config string

	EnergyJ float64
	BusyUS  int64
}

// DecisionRow is a Decision as the event log encodes it (WriteNDJSON, and
// embedded in each GET /v1/sweeps/{id}/events row): the runtime's fields
// rendered as display strings, and omitted when the runtime did not record
// them.
type DecisionRow struct {
	Span  int `json:"span"`
	Frame int `json:"frame,omitempty"`

	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`

	Governor   string `json:"governor,omitempty"`
	Class      string `json:"class,omitempty"`
	Deadline   string `json:"deadline,omitempty"`
	Decision   string `json:"decision,omitempty"`
	Predicted  string `json:"predicted,omitempty"`
	Measured   string `json:"measured,omitempty"`
	Outcome    string `json:"outcome,omitempty"`
	ThermalCap string `json:"thermal_cap,omitempty"`
	Degrade    string `json:"degrade,omitempty"`
	Recover    string `json:"recover,omitempty"`

	Config string `json:"config,omitempty"`

	EnergyJ float64 `json:"energy_j"`
	BusyUS  int64   `json:"busy_us"`
}

// Row renders the decision for encoding.
func (d *Decision) Row() DecisionRow {
	return DecisionRow{
		Span:       d.Span,
		Frame:      d.Frame,
		StartUS:    d.StartUS,
		EndUS:      d.EndUS,
		Governor:   d.Text(ledger.FieldGovernor),
		Class:      d.Text(ledger.FieldClass),
		Deadline:   d.Text(ledger.FieldDeadline),
		Decision:   d.Text(ledger.FieldVerdict),
		Predicted:  d.Text(ledger.FieldPredicted),
		Measured:   d.Text(ledger.FieldMeasured),
		Outcome:    d.Text(ledger.FieldOutcome),
		ThermalCap: d.Text(ledger.FieldThermalCap),
		Degrade:    d.Text(ledger.FieldDegrade),
		Recover:    d.Text(ledger.FieldRecover),
		Config:     d.Config,
		EnergyJ:    d.EnergyJ,
		BusyUS:     d.BusyUS,
	}
}

// unrecorded is the decision record of every frame no runtime scheduled:
// nothing recorded, so every field renders empty. Shared and read-only.
var unrecorded ledger.FrameDecision

// DecisionOf projects a ledger span into a Decision. Only frame spans are
// decisions; ok is false otherwise. Every frame span qualifies — including
// no-commit and un-annotated frames — so the decision energies sum to the
// ledger's frame-energy total exactly.
func DecisionOf(sp ledger.Span) (Decision, bool) {
	if sp.Kind != ledger.KindFrame {
		return Decision{}, false
	}
	rec := sp.Decision
	if rec == nil {
		rec = &unrecorded
	}
	return Decision{
		Span:          sp.ID,
		Frame:         sp.Seq,
		StartUS:       int64(sp.Start),
		EndUS:         int64(sp.End),
		FrameDecision: rec,
		Config:        sp.Config,
		EnergyJ:       float64(sp.Energy),
		BusyUS:        int64(sp.Busy),
	}, true
}

// DecisionsOf projects every frame span into the decision log, in span
// order. A run's log is derived once, from its closed-out spans; it shares
// their decision records.
func DecisionsOf(spans []ledger.Span) []Decision {
	n := 0
	for i := range spans {
		if spans[i].Kind == ledger.KindFrame {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Decision, 0, n)
	for i := range spans {
		if d, ok := DecisionOf(spans[i]); ok {
			out = append(out, d)
		}
	}
	return out
}

// WriteNDJSON streams decisions one DecisionRow per line. Each row of
// greensrv's GET /v1/sweeps/{id}/events embeds the same fields after the
// job's index, app and kind.
func WriteNDJSON(w io.Writer, ds []Decision) error {
	enc := json.NewEncoder(w)
	for i := range ds {
		if err := enc.Encode(ds[i].Row()); err != nil {
			return err
		}
	}
	return nil
}
