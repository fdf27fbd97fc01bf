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
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestSPAGolden byte-pins the modeled outputs of the DOM-heavy SPA family.
// The checked-in report covers only the Table-3 apps, so without this file
// nothing pins the script↔DOM binding path these cells spend their time in.
// Every float is printed round-trip exact (%.17g): a binding change that
// alters one charged op shows up here.
func TestSPAGolden(t *testing.T) {
	var got bytes.Buffer
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
		}
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
