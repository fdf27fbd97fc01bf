package harness

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestSPAGolden byte-pins the modeled outputs of the DOM-heavy SPA family.
// The checked-in report covers only the Table-3 apps, so without this file
// nothing pins the script↔DOM binding path these cells spend their time in.
// Every float is printed round-trip exact (%.17g): a binding change that
// alters one charged op shows up here. It also checks that stage
// parallelism shortens SPA-Feed's modeled frames by at least 1.3×.
func TestSPAGolden(t *testing.T) {
	var got bytes.Buffer
	feedMS := map[int]float64{} // SPA-Feed's mean interaction-frame latency by stage workers
	for _, name := range []string{"SPA-Feed", "SPA-Board"} {
		app, ok := apps.ByName(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		for _, workers := range []int{1, 4} {
			ctx := WithStageWorkers(context.Background(), workers)
			r, err := ExecuteCell(ctx, Cell{App: app, Kind: GreenWebI, Repeats: 1})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			fmt.Fprintf(&got, "%s %s workers=%d\n", name, GreenWebI, workers)
			fmt.Fprintf(&got, "  energy=%.17g total=%.17g frames=%d\n",
				float64(r.Energy), float64(r.TotalEnergy), r.Frames)
			fmt.Fprintf(&got, "  violation_i=%.17g violation_u=%.17g\n", r.ViolationI, r.ViolationU)
			fmt.Fprintf(&got, "  frame=%.17g stage=%.17g\n", float64(r.FrameEnergy), float64(r.StageEnergy))
			if name == "SPA-Feed" {
				feedMS[workers] = meanInteractionLatencyMS(r)
			}
		}
	}
	if feedMS[1]/feedMS[4] < 1.3 {
		t.Errorf("SPA-Feed modeled frame latency: serial %.1f ms, 4-stage %.1f ms, a %.2f× improvement below 1.3×",
			feedMS[1], feedMS[4], feedMS[1]/feedMS[4])
	}
	path := filepath.Join("testdata", "spa.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("SPA modeled outputs changed (run with -update to regenerate)\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// meanInteractionLatencyMS averages ProductionLatency over the interaction
// frames (skipping the load frame), in milliseconds of virtual time.
func meanInteractionLatencyMS(r *Run) float64 {
	var sum sim.Duration
	n := 0
	for _, fr := range r.FrameResults[1:] {
		sum += fr.ProductionLatency
		n++
	}
	if n == 0 {
		return 0
	}
	return sum.Seconds() * 1e3 / float64(n)
}
