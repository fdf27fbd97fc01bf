package governor

import (
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

const page = `<html><body><div id="d">x</div>
	<script>
		document.getElementById("d").addEventListener("click", function(e) {
			work(300);
			e.target.style.width = "10px";
		});
		var frames = 0;
		document.getElementById("d").addEventListener("touchstart", function(e) {
			function step() {
				frames++;
				work(250);
				document.getElementById("d").style.height = frames + "px";
				if (frames < 60) { requestAnimationFrame(step); }
			}
			requestAnimationFrame(step);
		});
	</script></body></html>`

func setup(t *testing.T, g browser.Governor) (*sim.Simulator, *browser.Engine) {
	t.Helper()
	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())
	e := browser.New(s, cpu, nil)
	e.SetGovernor(g)
	if _, err := e.LoadPage(page); err != nil {
		t.Fatal(err)
	}
	return s, e
}

func TestPerfPinsPeak(t *testing.T) {
	s, e := setup(t, NewPerf())
	s.RunUntil(sim.Time(2 * sim.Second))
	if e.CPU().Config() != acmp.PeakConfig() {
		t.Fatalf("config = %v", e.CPU().Config())
	}
	// Only the initial pin (one migration plus one frequency switch).
	if st := e.CPU().Stats(); st.Migrations != 1 || st.FreqSwitches != 1 {
		t.Fatalf("switches = %+v", st)
	}
	res := e.CPU().Residency()
	if len(res) > 2 {
		t.Fatalf("residency across %d configs, want at most 2", len(res))
	}
}

func TestPowersavePinsLowest(t *testing.T) {
	s, e := setup(t, NewPowersave())
	s.RunUntil(sim.Time(2 * sim.Second))
	if e.CPU().Config() != acmp.LowestConfig() {
		t.Fatalf("config = %v", e.CPU().Config())
	}
}

func TestInteractiveBoostsOnInput(t *testing.T) {
	g := NewInteractive(DefaultInteractiveParams())
	s, e := setup(t, g)
	s.RunUntil(sim.Time(3 * sim.Second)) // load finishes, governor decays
	preInput := e.CPU().Config()
	e.Inject(s.Now().Add(sim.Millisecond), "click", "d", nil)
	s.RunUntil(s.Now().Add(10 * sim.Millisecond))
	boosted := e.CPU().Config()
	if perfScale(boosted) < perfScale(g.P.HispeedConfig) {
		t.Fatalf("after input config = %v (was %v), want >= hispeed %v", boosted, preInput, g.P.HispeedConfig)
	}
	g.Stop()
}

func TestInteractiveDecaysWhenIdle(t *testing.T) {
	g := NewInteractive(DefaultInteractiveParams())
	s, e := setup(t, g)
	// Let load finish and then sit idle for two seconds.
	s.RunUntil(sim.Time(3 * sim.Second))
	cfg := e.CPU().Config()
	if perfScale(cfg) > perfScale(acmp.Config{Cluster: acmp.Little, MHz: 600}) {
		t.Fatalf("idle config = %v, want decayed to little cluster", cfg)
	}
	g.Stop()
}

func TestInteractiveStaysHighDuringAnimation(t *testing.T) {
	g := NewInteractive(DefaultInteractiveParams())
	s, e := setup(t, g)
	s.RunUntil(sim.Time(3 * sim.Second))
	e.Inject(s.Now().Add(sim.Millisecond), "touchstart", "d", nil)
	// Sample configs during the 60-frame animation (~1 s).
	bigTime := sim.Duration(0)
	var prev sim.Time
	for i := 0; i < 40; i++ {
		prev = s.Now()
		s.RunUntil(s.Now().Add(25 * sim.Millisecond))
		if e.CPU().Config().Cluster == acmp.Big {
			bigTime += s.Now().Sub(prev)
		}
	}
	if bigTime < 500*sim.Millisecond {
		t.Fatalf("interactive spent only %v on big cluster during animation", bigTime)
	}
	g.Stop()
}

func TestInteractiveEnergyNearPerfDuringInteraction(t *testing.T) {
	// The paper's observation: under interaction load, Interactive burns
	// close to Perf because utilization stays high.
	run := func(gov browser.Governor) acmp.Joules {
		s, e := setup(t, gov)
		s.RunUntil(sim.Time(2 * sim.Second))
		e.Inject(s.Now().Add(sim.Millisecond), "touchstart", "d", nil)
		s.RunUntil(s.Now().Add(1200 * sim.Millisecond))
		if st, ok := gov.(interface{ Stop() }); ok {
			st.Stop()
		}
		return e.CPU().Energy()
	}
	perf := run(NewPerf())
	inter := run(NewInteractive(DefaultInteractiveParams()))
	if float64(inter) < 0.5*float64(perf) {
		t.Fatalf("Interactive %.3f J vs Perf %.3f J: too cheap, model broken", inter, perf)
	}
	if float64(inter) > 1.1*float64(perf) {
		t.Fatalf("Interactive %.3f J exceeds Perf %.3f J", inter, perf)
	}
}

func TestOndemandScales(t *testing.T) {
	g := NewOndemand()
	s, e := setup(t, g)
	s.RunUntil(sim.Time(3 * sim.Second))
	idleCfg := e.CPU().Config()
	if idleCfg.Cluster != acmp.Little {
		t.Fatalf("idle ondemand config = %v", idleCfg)
	}
	e.Inject(s.Now().Add(sim.Millisecond), "touchstart", "d", nil)
	sawBig := false
	for i := 0; i < 40; i++ {
		s.RunUntil(s.Now().Add(25 * sim.Millisecond))
		if e.CPU().Config().Cluster == acmp.Big {
			sawBig = true
		}
	}
	if !sawBig {
		t.Fatal("ondemand never reached big cluster under load")
	}
	g.Stop()
}

func TestConfigForMonotone(t *testing.T) {
	prev := acmp.LowestConfig()
	for want := 100.0; want < 4000; want += 50 {
		got := configFor(want)
		if got.Index() < prev.Index() {
			t.Fatalf("configFor not monotone at %v: %v after %v", want, got, prev)
		}
		prev = got
	}
	if configFor(1e9) != acmp.PeakConfig() {
		t.Fatal("unsatisfiable demand must return peak")
	}
}

func TestPerfScaleOrdering(t *testing.T) {
	// perfScale must be strictly increasing along Configs().
	cfgs := acmp.Configs()
	for i := 1; i < len(cfgs); i++ {
		if perfScale(cfgs[i]) <= perfScale(cfgs[i-1]) {
			t.Fatalf("perfScale not increasing: %v (%.0f) vs %v (%.0f)",
				cfgs[i-1], perfScale(cfgs[i-1]), cfgs[i], perfScale(cfgs[i]))
		}
	}
}
