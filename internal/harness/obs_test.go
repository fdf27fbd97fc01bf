package harness

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/obs"
)

// The decision log is a pure projection of the ledger: across one full app
// run the per-decision energies must sum to the ledger's frame-energy total
// to within ledger.ConservationTolerance (1e-9 J), and the run's log must be
// exactly the projection of its spans.
func TestDecisionEnergyMatchesLedger(t *testing.T) {
	for _, kind := range []Kind{Perf, GreenWebI, GreenWebU} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			app, ok := apps.ByName("Todo")
			if !ok {
				t.Fatal("Todo app missing")
			}
			run, err := ExecuteCell(context.Background(), Cell{App: app, Kind: kind, Full: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Decisions) == 0 {
				t.Fatal("no decisions recorded")
			}
			var sum float64
			for _, d := range run.Decisions {
				sum += d.EnergyJ
			}
			if diff := math.Abs(sum - float64(run.FrameEnergy)); diff > ledger.ConservationTolerance {
				t.Errorf("Σ decision energy = %v J, frame energy = %v J (|diff| %g > %g)",
					sum, float64(run.FrameEnergy), diff, ledger.ConservationTolerance)
			}
			if !reflect.DeepEqual(run.Decisions, obs.DecisionsOf(run.Spans)) {
				t.Error("decision log disagrees with the span projection")
			}
		})
	}
}
