package greenweb

import (
	"strings"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

const demoPage = `<html><head><style>
		#panel { width: 100px; transition: width 200ms; }
		body:QoS { onload-qos: single, long; }
		div#btn:QoS { onclick-qos: single, short; }
		div#panel:QoS { ontouchstart-qos: continuous; }
	</style></head>
	<body>
		<div id="btn">open</div>
		<div id="panel">panel</div>
		<script>
			var opens = 0;
			document.getElementById("btn").addEventListener("click", function(e) {
				opens++;
				work(40);
				e.target.textContent = "opened " + opens;
			});
			document.getElementById("panel").addEventListener("touchstart", function(e) {
				document.getElementById("panel").style.width = "400px";
			});
		</script>
	</body></html>`

func TestOpenAndLoad(t *testing.T) {
	s, err := Open(demoPage, PerfPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if s.LoadLatency() <= 0 {
		t.Fatal("no load latency")
	}
	if len(s.Frames()) == 0 {
		t.Fatal("no first meaningful frame")
	}
	if len(s.ScriptErrors()) > 0 {
		t.Fatalf("script errors: %v", s.ScriptErrors())
	}
	if s.Config() != "big@1800MHz" {
		t.Fatalf("Perf config = %s", s.Config())
	}
}

func TestTapInteraction(t *testing.T) {
	s, err := Open(demoPage, GreenWebPolicy(Imperceptible))
	if err != nil {
		t.Fatal(err)
	}
	before := len(s.Frames())
	s.Tap("btn")
	s.Settle()
	if len(s.Frames()) <= before {
		t.Fatal("tap produced no frame")
	}
	if s.Energy() <= 0 {
		t.Fatal("no energy measured")
	}
}

func TestSwipeTriggersTransition(t *testing.T) {
	s, err := Open(demoPage, GreenWebPolicy(Usable))
	if err != nil {
		t.Fatal(err)
	}
	before := len(s.Frames())
	s.Swipe("panel", 3, 16*sim.Millisecond)
	s.Settle()
	// The touchstart triggers a 200 ms CSS transition: several frames.
	if len(s.Frames())-before < 5 {
		t.Fatalf("transition frames = %d", len(s.Frames())-before)
	}
}

func TestPolicyComparison(t *testing.T) {
	run := func(p Policy) float64 {
		s, err := Open(demoPage, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			s.Tap("btn")
			s.RunFor(400 * sim.Millisecond)
		}
		s.Settle()
		s.Stop()
		return s.Energy()
	}
	perf := run(PerfPolicy())
	gw := run(GreenWebPolicy(Usable))
	powersave := run(PowersavePolicy())
	if gw >= perf {
		t.Fatalf("GreenWeb-U (%.3f J) >= Perf (%.3f J)", gw, perf)
	}
	if powersave >= perf {
		t.Fatalf("Powersave (%.3f J) >= Perf (%.3f J)", powersave, perf)
	}
}

func TestViolationJudging(t *testing.T) {
	s, err := Open(demoPage, PowersavePolicy())
	if err != nil {
		t.Fatal(err)
	}
	s.Tap("btn")
	s.Settle()
	// Powersave never violates the usable-scenario targets for this tiny
	// app, and violations are never negative.
	if v := s.Violation(Usable); v < 0 {
		t.Fatalf("violation = %v", v)
	}
	if vi := s.Violation(Imperceptible); vi < s.Violation(Usable) {
		t.Fatal("imperceptible judging must be at least as strict")
	}
}

func TestResidencyAndSwitches(t *testing.T) {
	s, err := Open(demoPage, GreenWebPolicy(Imperceptible))
	if err != nil {
		t.Fatal(err)
	}
	s.Tap("btn")
	s.Settle()
	res := s.Residency()
	var total float64
	for _, share := range res {
		total += share
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("residency sums to %v", total)
	}
	f, m := s.Switches()
	if f < 0 || m < 0 {
		t.Fatal("negative switches")
	}
}

func TestAnnotationsListing(t *testing.T) {
	s, err := Open(demoPage, PerfPolicy())
	if err != nil {
		t.Fatal(err)
	}
	anns := s.Annotations()
	if len(anns) != 3 {
		t.Fatalf("annotations = %v", anns)
	}
	joined := strings.Join(anns, "\n")
	for _, want := range []string{"onload-qos", "onclick-qos", "ontouchstart-qos"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %s in %s", want, joined)
		}
	}
}

func TestAutoAnnotate(t *testing.T) {
	plain := `<html><body><div id="b">x</div>
		<script>
			document.getElementById("b").addEventListener("click", function(e) {
				e.target.textContent = "hi";
			});
		</script></body></html>`
	annotated, report, err := AutoAnnotate(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(annotated, ":QoS") {
		t.Fatal("no rules injected")
	}
	if len(report.Findings) < 2 { // load + click
		t.Fatalf("findings = %d", len(report.Findings))
	}
	// The annotated page must open and resolve annotations.
	s, err := Open(annotated, GreenWebPolicy(Usable))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Annotations()) < 2 {
		t.Fatalf("annotated page resolves %d annotations", len(s.Annotations()))
	}
}

func TestAnalyze(t *testing.T) {
	report, err := Analyze(demoPage)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Findings) < 3 {
		t.Fatalf("findings = %+v", report.Findings)
	}
}

func TestCheckAnnotations(t *testing.T) {
	good, errs := CheckAnnotations(`
		div#a:QoS { onclick-qos: single, short; }
		div#b:QoS { ontouchmove-qos: continuous, 20, 100; }
	`)
	if len(errs) != 0 || len(good) != 2 {
		t.Fatalf("good = %v, errs = %v", good, errs)
	}
	_, errs = CheckAnnotations(`div#a:QoS { onclick-qos: sometimes; }`)
	if len(errs) == 0 {
		t.Fatal("bad value not reported")
	}
	_, errs = CheckAnnotations(`div#a { onclick-qos: single, short; }`)
	if len(errs) == 0 {
		t.Fatal("missing :QoS not reported")
	}
}

func TestZeroPolicyRejected(t *testing.T) {
	if _, err := Open(demoPage, Policy{}); err == nil {
		t.Fatal("zero policy accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]Policy{
		"GreenWeb-I":  GreenWebPolicy(Imperceptible),
		"GreenWeb-U":  GreenWebPolicy(Usable),
		"Perf":        PerfPolicy(),
		"Interactive": InteractivePolicy(),
		"Ondemand":    OndemandPolicy(),
		"Powersave":   PowersavePolicy(),
		"EBS":         EBSPolicy(),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}

// TestParsePolicy: every governor the evaluation runs is a policy by its
// display name, in any case, except the staged runtime, which a session
// cannot stage; the refusal says where it runs. Unknown names are rejected.
func TestParsePolicy(t *testing.T) {
	for _, k := range harness.Kinds() {
		for _, name := range []string{string(k), strings.ToLower(string(k)), strings.ToUpper(string(k))} {
			p, err := ParsePolicy(name)
			if k == harness.GreenWebIStaged {
				if err == nil || !strings.Contains(err.Error(), "greenbench -stage-workers") ||
					!strings.Contains(err.Error(), "stage_workers") {
					t.Fatalf("ParsePolicy(%q) = %v, %v; want refused, naming -stage-workers and stage_workers", name, p, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("ParsePolicy(%q): %v", name, err)
			}
			if p.Name() != string(k) {
				t.Errorf("ParsePolicy(%q).Name() = %q, want %q", name, p.Name(), k)
			}
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestStopClosesLedger: Stop closes the session's ledger with conservation
// intact and may run twice; the session then still taps, settles and
// accrues energy.
func TestStopClosesLedger(t *testing.T) {
	s, err := Open(demoPage, InteractivePolicy())
	if err != nil {
		t.Fatal(err)
	}
	s.Tap("btn")
	s.Settle()
	for i := 0; i < 2; i++ {
		if err := s.Stop(); err != nil {
			t.Fatalf("Stop #%d: %v", i+1, err)
		}
	}
	energy, frames := s.Energy(), len(s.Frames())
	s.Tap("btn")
	s.Settle()
	if len(s.Frames()) <= frames {
		t.Fatal("tap after Stop produced no frame")
	}
	if s.Energy() <= energy {
		t.Fatal("no energy accrued after Stop")
	}
}
