package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/obs"
)

// thermalCap is a fault spec whose thermal model trips early and caps the
// big cluster at 900 MHz, so the runtime records thermal caps, degrades
// classes to Perf-within-cap and recovers them.
const thermalCap = `{"seed":5,"thermal":{"ambient_c":30,"trip_c":45,"clear_c":40,` +
	`"heat_c_per_sec":100,"cool_c_per_sec":5,"heat_above_mhz":1000,"cap_mhz":900}}`

// TestDecisionsGolden byte-pins the per-frame decision log and the ledger
// trace of three cells. The checked-in report prints neither, so without
// this file nothing pins where the decision log comes from or the exact span
// timeline it is projected from. The cells cover a serial run under the
// usable-scenario runtime, a faulted, staged run whose timeline carries
// stage spans, and a thermally capped run whose decisions carry thermal
// caps, degraded verdicts, degrade/recover transitions and reprofiles.
func TestDecisionsGolden(t *testing.T) {
	var capped faults.Spec
	if err := json.Unmarshal([]byte(thermalCap), &capped); err != nil {
		t.Fatal(err)
	}
	cells := []struct {
		name  string
		app   string
		ctx   context.Context
		kind  Kind
		micro bool
		spec  *faults.Spec
	}{
		{"MSN GreenWeb-U full", "MSN", context.Background(), GreenWebU, false, nil},
		{"MSN GreenWeb-I-staged micro stage-workers=4 faults=default seed=5", "MSN",
			WithStageWorkers(context.Background(), 4), GreenWebIStaged, true, faults.Default(5)},
		{"Cnet GreenWeb-I micro faults=" + thermalCap, "Cnet",
			context.Background(), GreenWebI, true, &capped},
	}
	var got bytes.Buffer
	for _, c := range cells {
		app, ok := apps.ByName(c.app)
		if !ok {
			t.Fatalf("%s not registered", c.app)
		}
		r, err := ExecuteCell(c.ctx, Cell{App: app, Kind: c.kind, Full: !c.micro, Repeats: 1, Faults: c.spec})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var tr bytes.Buffer
		if err := ledger.WriteTrace(&tr, ledger.Process{PID: 1, Name: c.name, Spans: r.Spans, Marks: r.ConfigMarks}); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "# %s: %d decisions, %d spans, trace sha256 %x\n",
			c.name, len(r.Decisions), len(r.Spans), sha256.Sum256(tr.Bytes()))
		if err := obs.WriteNDJSON(&got, r.Decisions); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "decisions.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("decision log or ledger trace changed (run with -update to regenerate)\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
