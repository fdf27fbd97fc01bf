package device

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/governor"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

const page = `<html><head><style>
	div#b:QoS { onclick-qos: single, short; }
</style></head>
<body><div id="b">x</div>
<script>
	document.getElementById("b").addEventListener("click", function(e) {
		work(20);
		e.target.textContent = "clicked";
	});
</script></body></html>`

// tap clicks the page's button and settles.
func tap(t *testing.T, d *Device) {
	t.Helper()
	d.Engine.Inject(d.Sim.Now().Add(10*sim.Millisecond), "click", "b", nil)
	if err := d.Settle(context.Background(), 10*sim.Second); err != nil {
		t.Fatal(err)
	}
}

// Close conserves energy over the whole run, a second Close returns
// nothing, and the device runs on after Close, metered but unattributed.
func TestCloseConservesAndRunsOn(t *testing.T) {
	d, err := New(governor.NewInteractive(governor.DefaultInteractiveParams()), 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Faults != nil || d.DAQ != nil {
		t.Fatal("unfaulted device carries a fault injector or DAQ")
	}
	if _, err := d.Engine.LoadPage(page); err != nil {
		t.Fatal(err)
	}
	tap(t, d)

	spans, tot, err := d.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || tot.Frame <= 0 || tot.Event <= 0 {
		t.Fatalf("nothing attributed: %d spans, totals %+v", len(spans), tot)
	}
	if diff := math.Abs(float64(tot.Frame + tot.Idle - d.CPU.Energy())); diff > ledger.ConservationTolerance {
		t.Fatalf("frame + idle misses the meter integral by %.3e J", diff)
	}
	if d.Engine.Ledger() != nil {
		t.Fatal("Close left the ledger attached to the engine")
	}
	if spans, tot, err := d.Close(); spans != nil || tot != (ledger.Totals{}) || err != nil {
		t.Fatalf("second Close = %d spans, %+v, %v; want nothing", len(spans), tot, err)
	}

	energy, frames := d.CPU.Energy(), len(d.Engine.Results())
	tap(t, d)
	if len(d.Engine.Results()) <= frames || d.CPU.Energy() <= energy {
		t.Fatal("device stopped running after Close")
	}
}

// A fault spec attaches an injector (and a DAQ when it samples one); an
// invalid spec fails New.
func TestNewFaulted(t *testing.T) {
	d, err := New(governor.NewPerf(), 0, faults.Default(1), 7)
	if err != nil {
		t.Fatal(err)
	}
	if d.Faults == nil || d.DAQ == nil {
		t.Fatal("default fault spec attached no injector or DAQ")
	}
	if _, err := New(governor.NewPerf(), 0, &faults.Spec{DVFS: &faults.DVFSSpec{DenyProb: 2}}, 0); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// RunUntil and Settle stop at a done context and report it.
func TestRunHonorsContext(t *testing.T) {
	d, err := New(governor.NewPerf(), 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.RunUntil(ctx, sim.Time(sim.Second)); !errors.Is(err, context.Canceled) || d.Sim.Now() != 0 {
		t.Fatalf("RunUntil on a cancelled context: err %v at %v", err, d.Sim.Now())
	}
	if err := d.Settle(ctx, sim.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("Settle on a cancelled context: err %v", err)
	}
	if err := d.RunUntil(context.Background(), sim.Time(250*sim.Millisecond)); err != nil || d.Sim.Now() != sim.Time(250*sim.Millisecond) {
		t.Fatalf("RunUntil: err %v at %v", err, d.Sim.Now())
	}
}
