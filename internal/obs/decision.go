package obs

import (
	"encoding/json"
	"io"

	"github.com/wattwiseweb/greenweb/internal/ledger"
)

// Decision is one frame-level scheduling decision in the structured event
// log: what the governor chose for the frame, why, and what it cost. Fields
// mirror the ledger frame span and the GreenWeb runtime's annotations
// verbatim — the decision log is a projection of the ledger, never a second
// source of truth, which is what keeps it out-of-band.
type Decision struct {
	Span  int `json:"span"`
	Frame int `json:"frame,omitempty"` // committed sequence number; 0 = no commit

	StartUS int64 `json:"start_us"`
	EndUS   int64 `json:"end_us"`

	// Runtime annotations (absent under baseline governors that do not
	// annotate).
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

	// Config is the ACMP configuration the frame executed under (at close).
	Config string `json:"config,omitempty"`

	EnergyJ float64 `json:"energy_j"`
	BusyUS  int64   `json:"busy_us"`
}

// DecisionOf projects a ledger span into a Decision. Only frame spans are
// decisions; ok is false otherwise. Every frame span qualifies — including
// no-commit and un-annotated frames — so the decision energies sum to the
// ledger's frame-energy total exactly.
func DecisionOf(sp ledger.Span) (Decision, bool) {
	if sp.Kind != ledger.KindFrame {
		return Decision{}, false
	}
	return Decision{
		Span:       sp.ID,
		Frame:      sp.Seq,
		StartUS:    int64(sp.Start),
		EndUS:      int64(sp.End),
		Governor:   sp.Attrs["governor"],
		Class:      sp.Attrs["class"],
		Deadline:   sp.Attrs["deadline"],
		Decision:   sp.Attrs["decision"],
		Predicted:  sp.Attrs["predicted"],
		Measured:   sp.Attrs["measured"],
		Outcome:    sp.Attrs["outcome"],
		ThermalCap: sp.Attrs["thermal_cap"],
		Degrade:    sp.Attrs["degrade"],
		Recover:    sp.Attrs["recover"],
		Config:     sp.Config,
		EnergyJ:    float64(sp.Energy),
		BusyUS:     int64(sp.Busy),
	}, true
}

// DecisionsOf projects every frame span into the decision log, in span
// order. A run's log is derived once, from its closed-out spans.
func DecisionsOf(spans []ledger.Span) []Decision {
	n := 0
	for _, sp := range spans {
		if sp.Kind == ledger.KindFrame {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Decision, 0, n)
	for _, sp := range spans {
		if d, ok := DecisionOf(sp); ok {
			out = append(out, d)
		}
	}
	return out
}

// WriteNDJSON streams decisions one JSON object per line — the format
// greensrv serves at GET /v1/sweeps/{id}/events.
func WriteNDJSON(w io.Writer, ds []Decision) error {
	enc := json.NewEncoder(w)
	for _, d := range ds {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}
