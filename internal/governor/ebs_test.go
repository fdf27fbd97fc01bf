package governor

import (
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// ebsPage has a heavyweight tap whose users actually expect a fast
// response (an MSN-menu-like case): EBS will measure it slow and guess a
// loose tolerance — the failure mode the paper describes.
const ebsPage = `<html><body><div id="menu">x</div>
	<script>
		document.getElementById("menu").addEventListener("click", function(e) {
			work(500);
			e.target.style.width = "10px";
		});
	</script></body></html>`

func setupEBS(t *testing.T) (*sim.Simulator, *browser.Engine, *EBS) {
	t.Helper()
	g := NewEBS()
	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())
	e := browser.New(s, cpu, nil)
	e.SetGovernor(g)
	if _, err := e.LoadPage(ebsPage); err != nil {
		t.Fatal(err)
	}
	return s, e, g
}

func TestEBSFirstTouchGetsPeak(t *testing.T) {
	s, e, _ := setupEBS(t)
	s.RunUntil(sim.Time(3 * sim.Second))
	e.Inject(s.Now().Add(sim.Millisecond), "click", "menu", nil)
	s.RunUntil(s.Now().Add(5 * sim.Millisecond))
	if e.CPU().Config() != acmp.PeakConfig() {
		t.Fatalf("unknown event config = %v, want peak", e.CPU().Config())
	}
}

func TestEBSGuessesFromMeasuredLatency(t *testing.T) {
	s, e, g := setupEBS(t)
	s.RunUntil(sim.Time(3 * sim.Second))
	// First click: peak; measured latency ~35-60 ms → guessed tolerance
	// rounds up to the 100 ms bucket.
	e.Inject(s.Now().Add(sim.Millisecond), "click", "menu", nil)
	s.RunUntil(s.Now().Add(2 * sim.Second))
	tol, ok := g.guess["menu@click"]
	if !ok {
		t.Fatal("no guess recorded")
	}
	if tol != 100*sim.Millisecond {
		t.Fatalf("guessed tolerance = %v, want 100ms bucket", tol)
	}
	// Second click is scheduled to the guess (big@1200 for 100 ms).
	e.Inject(s.Now().Add(sim.Millisecond), "click", "menu", nil)
	s.RunUntil(s.Now().Add(5 * sim.Millisecond))
	if got := e.CPU().Config(); got != (acmp.Config{Cluster: acmp.Big, MHz: 1200}) {
		t.Fatalf("second click config = %v", got)
	}
	s.RunUntil(s.Now().Add(2 * sim.Second))
	// The second, slower run re-measures even slower, loosening the guess
	// further — the drift the paper criticizes.
	tol2 := g.guess["menu@click"]
	if tol2 < tol {
		t.Fatalf("guess tightened (%v → %v); EBS drifts looser", tol, tol2)
	}
}

func TestEBSConfigForMapping(t *testing.T) {
	g := NewEBS()
	if g.configFor(16600*sim.Microsecond) != acmp.PeakConfig() {
		t.Fatal("16.6ms bucket must map to peak")
	}
	if g.configFor(10*sim.Second) != acmp.LowestConfig() {
		t.Fatal("10s bucket must map to lowest")
	}
	// Monotone: looser tolerance never maps to a faster config.
	prev := acmp.PeakConfig()
	for _, tol := range ebsBuckets {
		cfg := g.configFor(tol)
		if cfg.Index() > prev.Index() {
			t.Fatalf("configFor not monotone at %v", tol)
		}
		prev = cfg
	}
}
