package metrics

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/governor"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

func TestViolationPct(t *testing.T) {
	// The paper's example: 200 ms against a 100 ms target is 100%.
	if got := ViolationPct(200*sim.Millisecond, 100*sim.Millisecond); got != 100 {
		t.Fatalf("ViolationPct = %v, want 100", got)
	}
	if got := ViolationPct(90*sim.Millisecond, 100*sim.Millisecond); got != 0 {
		t.Fatalf("meeting deadline = %v, want 0", got)
	}
	if got := ViolationPct(100*sim.Millisecond, 100*sim.Millisecond); got != 0 {
		t.Fatalf("exactly at deadline = %v, want 0", got)
	}
	if got := ViolationPct(50, 0); got != 0 {
		t.Fatalf("zero deadline = %v", got)
	}
}

func TestGeoMeanPct(t *testing.T) {
	if got := GeoMeanPct(nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := GeoMeanPct([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("all zero = %v", got)
	}
	got := GeoMeanPct([]float64{100, 100})
	if math.Abs(got-100) > 1e-9 {
		t.Fatalf("constant 100%% = %v", got)
	}
	// Geomean is below arithmetic mean for mixed values.
	mixed := GeoMeanPct([]float64{0, 200})
	if mixed >= Mean([]float64{0, 200}) {
		t.Fatalf("geomean %v >= mean", mixed)
	}
	if mixed <= 0 {
		t.Fatalf("mixed = %v, want positive", mixed)
	}
}

func TestPropertyGeoMeanBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		pcts := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			pcts[i] = float64(r)
			lo = math.Min(lo, pcts[i])
			hi = math.Max(hi, pcts[i])
		}
		g := GeoMeanPct(pcts)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 || Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean wrong")
	}
}

func TestDistributionAndClusterShares(t *testing.T) {
	res := map[acmp.Config]sim.Duration{
		{Cluster: acmp.Little, MHz: 350}: 3 * sim.Second,
		{Cluster: acmp.Big, MHz: 1800}:   sim.Second,
	}
	dist := Distribution(res)
	if len(dist) != 2 {
		t.Fatalf("dist = %v", dist)
	}
	if dist[0].Config.Cluster != acmp.Little || math.Abs(dist[0].Share-0.75) > 1e-9 {
		t.Fatalf("dist[0] = %+v", dist[0])
	}
	little, big := ClusterShares(dist)
	if math.Abs(little-0.75) > 1e-9 || math.Abs(big-0.25) > 1e-9 {
		t.Fatalf("shares = %v, %v", little, big)
	}
	if Distribution(nil) != nil {
		t.Fatal("empty residency should give nil")
	}
}

func TestSwitchRate(t *testing.T) {
	f, m := SwitchRate(acmp.SwitchStats{FreqSwitches: 10, Migrations: 5}, 100)
	if f != 10 || m != 5 {
		t.Fatalf("rates = %v, %v", f, m)
	}
	f, m = SwitchRate(acmp.SwitchStats{FreqSwitches: 10}, 0)
	if f != 0 || m != 0 {
		t.Fatal("zero frames must give zero rates")
	}
}

func TestNormalizedPct(t *testing.T) {
	if NormalizedPct(1, 4) != 25 {
		t.Fatal("NormalizedPct wrong")
	}
	if NormalizedPct(1, 0) != 0 {
		t.Fatal("zero base must give 0")
	}
}

// End-to-end: the collector judges frames of an annotated app run.
func TestCollectorJudgesFrames(t *testing.T) {
	page := `<html><head><style>
			body:QoS { onload-qos: single, long; }
			div#c:QoS { ontouchstart-qos: continuous; }
		</style></head>
		<body><div id="c">x</div>
		<script>
			var n = 0;
			document.getElementById("c").addEventListener("touchstart", function(e) {
				function step() {
					n++;
					work(20);
					document.getElementById("c").style.height = n + "px";
					if (n < 10) { requestAnimationFrame(step); }
				}
				requestAnimationFrame(step);
			});
		</script></body></html>`
	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())
	e := browser.New(s, cpu, nil)
	e.SetGovernor(governor.NewPerf())
	if _, err := e.LoadPage(page); err != nil {
		t.Fatal(err)
	}
	col := NewCollectors(e, qos.Imperceptible)[0]
	s.RunUntil(sim.Time(sim.Second))
	e.Inject(s.Now().Add(10*sim.Millisecond), "touchstart", "c", nil)
	s.RunUntil(s.Now().Add(2 * sim.Second))

	if len(col.Frames) < 11 { // load frame + 10 animation frames
		t.Fatalf("judged frames = %d, want >= 11", len(col.Frames))
	}
	// First judged frame is the load: single type, 1 s deadline.
	if col.Frames[0].Type != qos.Single || col.Frames[0].Deadline != sim.Second {
		t.Fatalf("load frame = %+v", col.Frames[0])
	}
	// Animation frames are continuous with the 16.6 ms TI deadline.
	anim := col.Frames[2]
	if anim.Type != qos.Continuous || anim.Deadline != 16600*sim.Microsecond {
		t.Fatalf("anim frame = %+v", anim)
	}
	// At peak everything should meet deadlines.
	if v := col.Violation(); v > 1 {
		t.Fatalf("violation at peak = %v%%", v)
	}
}

func TestCollectorUsableScenarioLoosens(t *testing.T) {
	page := `<html><head><style>
			div#c:QoS { ontouchstart-qos: continuous; }
		</style></head>
		<body><div id="c">x</div>
		<script>
			var n = 0;
			document.getElementById("c").addEventListener("touchstart", function(e) {
				function step() {
					n++;
					work(60);
					document.getElementById("c").style.height = n + "px";
					if (n < 15) { requestAnimationFrame(step); }
				}
				requestAnimationFrame(step);
			});
		</script></body></html>`
	run := func(sc qos.Scenario, cfg acmp.Config) float64 {
		s := sim.New()
		cpu := acmp.NewCPU(s, acmp.DefaultPower())
		e := browser.New(s, cpu, nil)
		e.SetGovernor(governor.NewPowersave())
		if _, err := e.LoadPage(page); err != nil {
			t.Fatal(err)
		}
		cpu.SetConfig(cfg)
		col := NewCollectors(e, sc)[0]
		s.RunUntil(sim.Time(sim.Second))
		e.Inject(s.Now().Add(10*sim.Millisecond), "touchstart", "c", nil)
		s.RunUntil(s.Now().Add(3 * sim.Second))
		return col.Violation()
	}
	cfg := acmp.Config{Cluster: acmp.Little, MHz: 500}
	vi := run(qos.Imperceptible, cfg)
	vu := run(qos.Usable, cfg)
	if vi <= vu {
		t.Fatalf("imperceptible violation %v <= usable %v at same config", vi, vu)
	}
}

// TestCollectorsMatchSeparateCollectors: collectors sharing one frame
// observer and one annotation cache give each scenario exactly the verdicts
// a collector of its own gives.
func TestCollectorsMatchSeparateCollectors(t *testing.T) {
	page := `<html><head><style>
			body:QoS { onload-qos: single, long; }
			div#c:QoS { ontouchstart-qos: continuous; }
			div#b:QoS { onclick-qos: single, short; }
		</style></head>
		<body><div id="c">x</div><div id="b">y</div><div id="plain">z</div>
		<script>
			var n = 0;
			document.getElementById("c").addEventListener("touchstart", function(e) {
				function step() {
					n++;
					work(40);
					document.getElementById("c").style.height = n + "px";
					if (n < 12) { requestAnimationFrame(step); }
				}
				requestAnimationFrame(step);
			});
			document.getElementById("b").addEventListener("click", function(e) {
				work(30);
				document.getElementById("b").style.width = n + "px";
			});
			document.getElementById("plain").addEventListener("click", function(e) {
				document.getElementById("plain").style.width = n + "px";
			});
		</script></body></html>`
	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())
	e := browser.New(s, cpu, nil)
	e.SetGovernor(governor.NewPowersave())
	if _, err := e.LoadPage(page); err != nil {
		t.Fatal(err)
	}
	shared := NewCollectors(e, qos.Imperceptible, qos.Usable)
	ownI, ownU := NewCollectors(e, qos.Imperceptible)[0], NewCollectors(e, qos.Usable)[0]
	s.RunUntil(sim.Time(sim.Second))
	at := s.Now()
	e.Inject(at.Add(10*sim.Millisecond), "touchstart", "c", nil)
	e.Inject(at.Add(40*sim.Millisecond), "click", "b", nil)
	e.Inject(at.Add(45*sim.Millisecond), "click", "plain", nil)
	e.Inject(at.Add(90*sim.Millisecond), "click", "b", nil)
	s.RunUntil(at.Add(3 * sim.Second))

	if len(shared) != 2 || len(ownI.Frames) < 5 {
		t.Fatalf("collectors = %d, judged frames = %d", len(shared), len(ownI.Frames))
	}
	if !reflect.DeepEqual(shared[0].Frames, ownI.Frames) {
		t.Errorf("shared I verdicts differ:\n got %+v\nwant %+v", shared[0].Frames, ownI.Frames)
	}
	if !reflect.DeepEqual(shared[1].Frames, ownU.Frames) {
		t.Errorf("shared U verdicts differ:\n got %+v\nwant %+v", shared[1].Frames, ownU.Frames)
	}
}
