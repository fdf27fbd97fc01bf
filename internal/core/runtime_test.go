package core

import (
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/governor"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// animPage is a rAF animation whose touchstart is annotated continuous;
// frame weight is moderate so little configs meet TU but not TI.
const animPage = `<html><head><style>
		body:QoS { onload-qos: single, long; }
		div#c:QoS { ontouchstart-qos: continuous; }
	</style></head>
	<body><div id="c">x</div>
	<script>
		var frames = 0;
		document.getElementById("c").addEventListener("touchstart", function(e) {
			function step() {
				frames++;
				work(30);
				document.getElementById("c").style.height = frames + "px";
				if (frames < 90) { requestAnimationFrame(step); }
			}
			requestAnimationFrame(step);
		});
	</script></body></html>`

// tapPage has a lightweight single-short tap.
const tapPage = `<html><head><style>
		body:QoS { onload-qos: single, long; }
		div#b:QoS { onclick-qos: single, short; }
	</style></head>
	<body><div id="b">x</div>
	<script>
		document.getElementById("b").addEventListener("click", function(e) {
			work(40);
			e.target.style.width = "10px";
		});
	</script></body></html>`

type runResult struct {
	energy     acmp.Joules
	frames     []browser.FrameResult
	runtime    *Runtime
	engine     *browser.Engine
	switchStat acmp.SwitchStats
}

func runWith(t *testing.T, page string, gov browser.Governor, drive func(*sim.Simulator, *browser.Engine)) runResult {
	t.Helper()
	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())
	e := browser.New(s, cpu, nil)
	e.SetGovernor(gov)
	if _, err := e.LoadPage(page); err != nil {
		t.Fatal(err)
	}
	drive(s, e)
	rr := runResult{
		energy: cpu.Energy(), frames: e.Results(), engine: e,
		switchStat: cpu.Stats(),
	}
	if r, ok := gov.(*Runtime); ok {
		rr.runtime = r
	}
	if len(e.ScriptErrors()) > 0 {
		t.Fatalf("script errors: %v", e.ScriptErrors())
	}
	return rr
}

func driveAnimation(s *sim.Simulator, e *browser.Engine) {
	s.RunUntil(sim.Time(sim.Second))
	e.Inject(s.Now().Add(10*sim.Millisecond), "touchstart", "c", nil)
	s.RunUntil(s.Now().Add(3 * sim.Second))
}

func driveTaps(s *sim.Simulator, e *browser.Engine) {
	s.RunUntil(sim.Time(sim.Second))
	for i := 0; i < 6; i++ {
		e.Inject(s.Now().Add(sim.Duration(i)*400*sim.Millisecond), "click", "b", nil)
	}
	s.RunUntil(s.Now().Add(4 * sim.Second))
}

func TestRuntimeTracksAnnotatedEvents(t *testing.T) {
	r := New(Options{Scenario: qos.Imperceptible})
	res := runWith(t, animPage, r, driveAnimation)
	st := r.Stats()
	if st.AnnotatedInputs != 2 { // load + touchstart
		t.Fatalf("annotated inputs = %d, want 2 (stats: %+v)", st.AnnotatedInputs, st)
	}
	if st.ProfilingFrames < 2 {
		t.Fatalf("profiling frames = %d, want >= 2", st.ProfilingFrames)
	}
	if st.PredictedFrames < 50 {
		t.Fatalf("predicted frames = %d, want most of the animation", st.PredictedFrames)
	}
	if len(res.frames) < 80 {
		t.Fatalf("frames = %d, want ~90 animation frames", len(res.frames))
	}
}

func TestRuntimeSavesEnergyVsPerf(t *testing.T) {
	perf := runWith(t, animPage, governor.NewPerf(), driveAnimation)
	gwI := runWith(t, animPage, New(Options{Scenario: qos.Imperceptible}), driveAnimation)
	gwU := runWith(t, animPage, New(Options{Scenario: qos.Usable}), driveAnimation)

	if gwI.energy >= perf.energy {
		t.Fatalf("GreenWeb-I energy %.3f J >= Perf %.3f J", gwI.energy, perf.energy)
	}
	if gwU.energy >= gwI.energy {
		t.Fatalf("GreenWeb-U energy %.3f J >= GreenWeb-I %.3f J", gwU.energy, gwI.energy)
	}
	// The usable scenario should save substantially (paper: 66–78%).
	if float64(gwU.energy) > 0.6*float64(perf.energy) {
		t.Fatalf("GreenWeb-U saves too little: %.3f J vs Perf %.3f J", gwU.energy, perf.energy)
	}
}

func violationsOver(frames []browser.FrameResult, r *Runtime, deadline sim.Duration) int {
	n := 0
	for _, fr := range frames[1:] { // skip load frame
		if fr.ProductionLatency > deadline {
			n++
		}
	}
	return n
}

func TestRuntimeKeepsQoSInUsableMode(t *testing.T) {
	gwU := runWith(t, animPage, New(Options{Scenario: qos.Usable}), driveAnimation)
	// Frame production must meet TU=33.3ms for nearly all frames.
	bad := violationsOver(gwU.frames, gwU.runtime, 33300*sim.Microsecond)
	if bad > len(gwU.frames)/10 {
		t.Fatalf("%d of %d frames violate TU", bad, len(gwU.frames))
	}
}

func TestRuntimeUsesLittleClusterInUsableMode(t *testing.T) {
	gwU := runWith(t, animPage, New(Options{Scenario: qos.Usable}), driveAnimation)
	res := gwU.engine.CPU().Residency()
	var little, big sim.Duration
	for cfg, d := range res {
		if cfg.Cluster == acmp.Little {
			little += d
		} else {
			big += d
		}
	}
	if little <= big {
		t.Fatalf("usable mode: little %v <= big %v", little, big)
	}
}

func TestRuntimeImperceptibleUsesBiggerConfigsThanUsable(t *testing.T) {
	gwI := runWith(t, animPage, New(Options{Scenario: qos.Imperceptible}), driveAnimation)
	gwU := runWith(t, animPage, New(Options{Scenario: qos.Usable}), driveAnimation)
	avgIdx := func(rr runResult) float64 {
		var num, den float64
		for cfg, d := range rr.engine.CPU().Residency() {
			// Only count interaction time (ignore long idle tails where
			// both runtimes sit at the idle config).
			num += float64(cfg.Index()) * d.Seconds()
			den += d.Seconds()
		}
		return num / den
	}
	if avgIdx(gwI) <= avgIdx(gwU) {
		t.Fatalf("imperceptible avg config index %.2f <= usable %.2f", avgIdx(gwI), avgIdx(gwU))
	}
}

func TestRuntimeIdlesAfterEventComplete(t *testing.T) {
	r := New(Options{Scenario: qos.Imperceptible})
	res := runWith(t, tapPage, r, driveTaps)
	// Idle demotion is cluster-sticky: the system parks at the floor of
	// whatever cluster it last ran on.
	cfg := res.engine.CPU().Config()
	if cfg != acmp.MinConfig(acmp.Little) && cfg != acmp.MinConfig(acmp.Big) {
		t.Fatalf("post-interaction config = %v, want a cluster floor", cfg)
	}
}

func TestRuntimeSingleEventsSaveEnergy(t *testing.T) {
	perf := runWith(t, tapPage, governor.NewPerf(), driveTaps)
	gwI := runWith(t, tapPage, New(Options{Scenario: qos.Imperceptible}), driveTaps)
	if float64(gwI.energy) > 0.7*float64(perf.energy) {
		t.Fatalf("single-event savings too small: %.3f J vs %.3f J", gwI.energy, perf.energy)
	}
}

func TestRuntimeUnannotatedPageFallsBack(t *testing.T) {
	page := `<html><body><div id="b">x</div>
		<script>
			document.getElementById("b").addEventListener("click", function(e) {
				e.target.style.width = "10px";
			});
		</script></body></html>`
	r := New(Options{Scenario: qos.Imperceptible})
	res := runWith(t, page, r, func(s *sim.Simulator, e *browser.Engine) {
		s.RunUntil(sim.Time(sim.Second))
		e.Inject(s.Now().Add(10*sim.Millisecond), "click", "b", nil)
		s.RunUntil(s.Now().Add(sim.Second))
	})
	st := r.Stats()
	if st.AnnotatedInputs != 0 || st.UnannotatedInputs != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Frames still produced, just at the idle config.
	if len(res.frames) < 2 {
		t.Fatalf("frames = %d", len(res.frames))
	}
}

func TestSingleClusterAblations(t *testing.T) {
	big := runWith(t, animPage, New(Options{Scenario: qos.Usable, BigOnly: true}), driveAnimation)
	for cfg := range big.engine.CPU().Residency() {
		if cfg.Cluster == acmp.Little && cfg != acmp.LowestConfig() {
			t.Fatalf("BigOnly runtime used %v", cfg)
		}
	}
	lit := runWith(t, animPage, New(Options{Scenario: qos.Imperceptible, LittleOnly: true}), driveAnimation)
	// After attach, only little configs are ever requested.
	st := lit.engine.CPU().Stats()
	if st.Migrations > 1 {
		t.Fatalf("LittleOnly migrated %d times", st.Migrations)
	}
	// Big-only burns more than an unrestricted usable runtime.
	free := runWith(t, animPage, New(Options{Scenario: qos.Usable}), driveAnimation)
	if big.energy <= free.energy {
		t.Fatalf("BigOnly %.3f J <= unrestricted %.3f J", big.energy, free.energy)
	}
}

func TestUAISuppressesMisannotation(t *testing.T) {
	// Mis-annotation: a trivial tap demands a 1 ms target, forcing peak.
	misPage := `<html><head><style>
			div#b:QoS { onclick-qos: continuous, 1, 1; }
		</style></head>
		<body><div id="b">x</div>
		<script>
			var n = 0;
			document.getElementById("b").addEventListener("click", function(e) {
				function step() {
					n++;
					work(50);
					document.getElementById("b").style.height = (n % 50) + "px";
					requestAnimationFrame(step);
				}
				if (n === 0) { requestAnimationFrame(step); }
			});
		</script></body></html>`
	drive := func(s *sim.Simulator, e *browser.Engine) {
		s.RunUntil(sim.Time(sim.Second))
		e.Inject(s.Now().Add(10*sim.Millisecond), "click", "b", nil)
		s.RunUntil(s.Now().Add(5 * sim.Second))
	}
	noUAI := runWith(t, misPage, New(Options{Scenario: qos.Imperceptible}), drive)

	opts := Options{Scenario: qos.Imperceptible, UAI: NewUAIPolicy(0.2)} // 0.2 J per event class
	withUAI := runWith(t, misPage, New(opts), drive)

	if len(opts.UAI.SuppressedClasses()) == 0 {
		t.Fatalf("UAI never suppressed the mis-annotated class (spent=%v)", opts.UAI.Spent("html>body>div#b@click"))
	}
	if withUAI.energy >= noUAI.energy {
		t.Fatalf("UAI did not reduce energy: %.3f J vs %.3f J", withUAI.energy, noUAI.energy)
	}
}

func TestRuntimeNames(t *testing.T) {
	if New(Options{Scenario: qos.Imperceptible}).Name() != "GreenWeb-I" {
		t.Fatal("name wrong")
	}
	if New(Options{Scenario: qos.Usable}).Name() != "GreenWeb-U" {
		t.Fatal("name wrong")
	}
}

// aggressiveThermal trips almost instantly on big-cluster residency above
// 1400 MHz and cools so slowly the cap effectively persists for a whole run.
func aggressiveThermal() acmp.ThermalParams {
	return acmp.ThermalParams{
		AmbientC: 30, TripC: 30.5, ClearC: 30.2,
		HeatCPerSec: 500, CoolCPerSec: 0.01,
		HeatAboveMHz: 1400, CapMHz: 1100,
	}
}

// attachedRuntime builds a runtime wired to an engine (no page) so the
// ladder and divergence helpers can be unit-tested directly.
func attachedRuntime(opts Options) (*Runtime, *sim.Simulator) {
	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())
	e := browser.New(s, cpu, nil)
	r := New(opts)
	e.SetGovernor(r)
	return r, s
}

func TestDegradationLadderDegradesAndRecovers(t *testing.T) {
	r, s := attachedRuntime(Options{Scenario: qos.Imperceptible})
	m := identifiedModel(t, 0.002, 8e6)
	r.models[m.Key] = m
	k := degradeAfter

	// Without an active thermal cap, violations never degrade: the full
	// configuration space is available, so they are the model's to fix.
	for i := 0; i < 3*k; i++ {
		r.noteOutcome(m, true)
	}
	if r.degraded[m.Key] {
		t.Fatal("degraded without an active thermal cap")
	}

	// Trip the thermal governor; the ladder arms.
	r.cpu.EnableThermal(aggressiveThermal())
	r.cpu.SetConfig(acmp.PeakConfig())
	s.RunUntil(sim.Time(100 * sim.Millisecond))
	if r.cpu.Ceiling() == acmp.PeakConfig() {
		t.Fatal("thermal cap did not engage")
	}

	// One violation short of the threshold: still under model control.
	for i := 0; i < k-1; i++ {
		r.noteOutcome(m, true)
	}
	if r.degraded[m.Key] {
		t.Fatalf("degraded after %d violations, threshold is %d", k-1, k)
	}
	// A clean frame resets the streak — violations must be consecutive.
	r.noteOutcome(m, false)
	for i := 0; i < k-1; i++ {
		r.noteOutcome(m, true)
	}
	if r.degraded[m.Key] {
		t.Fatal("non-consecutive violations degraded the class")
	}
	r.noteOutcome(m, true)
	if !r.degraded[m.Key] {
		t.Fatalf("not degraded after %d consecutive violations", k)
	}
	if st := r.Stats(); st.Degradations != 1 {
		t.Fatalf("degradations = %d, want 1", st.Degradations)
	}
	// While degraded, desired pins the class to the current legal ceiling.
	if got := r.desired(m); got != r.cpu.Ceiling() {
		t.Fatalf("degraded desired = %v, want the thermal ceiling %v", got, r.cpu.Ceiling())
	}

	// k consecutive clean frames recover the class and force a reprofile.
	for i := 0; i < k; i++ {
		r.noteOutcome(m, false)
	}
	if r.degraded[m.Key] {
		t.Fatalf("still degraded after %d clean frames", k)
	}
	st := r.Stats()
	if st.Recoveries != 1 || st.Reprofiles != 1 {
		t.Fatalf("recoveries = %d reprofiles = %d, want 1/1", st.Recoveries, st.Reprofiles)
	}
	if m.Ready() {
		t.Fatal("recovered class kept its stale model; want reprofiling")
	}
}

func TestDivergenceUnderCapTriggersReprofile(t *testing.T) {
	r, s := attachedRuntime(Options{Scenario: qos.Imperceptible})
	m := identifiedModel(t, 0.002, 8e6)
	r.models[m.Key] = m
	cfg := acmp.Config{Cluster: acmp.Big, MHz: 1100}
	drifted := m.Predict(cfg) * 2 // far outside the 50% band

	// No cap active: drift alone never triggers.
	for i := 0; i < 3*mispredictLimit; i++ {
		if r.divergedUnderCap(m, drifted, cfg) {
			t.Fatal("divergence fired without an active thermal cap")
		}
	}

	// Trip the thermal governor, then sustained drift must fire after
	// MispredictLimit consecutive frames.
	r.cpu.EnableThermal(aggressiveThermal())
	r.cpu.SetConfig(acmp.PeakConfig())
	s.RunUntil(sim.Time(100 * sim.Millisecond))
	if r.cpu.Ceiling() == acmp.PeakConfig() {
		t.Fatal("thermal cap did not engage")
	}
	for i := 0; i < mispredictLimit; i++ {
		if r.divergedUnderCap(m, drifted, cfg) {
			t.Fatalf("divergence fired on frame %d, limit is %d", i+1, mispredictLimit)
		}
	}
	// An accurate frame resets the streak.
	if r.divergedUnderCap(m, m.Predict(cfg), cfg) {
		t.Fatal("accurate frame counted as divergence")
	}
	for i := 0; i <= mispredictLimit; i++ {
		got := r.divergedUnderCap(m, drifted, cfg)
		if want := i == mispredictLimit; got != want {
			t.Fatalf("frame %d: diverged = %v, want %v", i+1, got, want)
		}
	}
}

func TestRuntimeStaysLegalUnderThermalCap(t *testing.T) {
	r := New(Options{Scenario: qos.Imperceptible})

	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())
	th := cpu.EnableThermal(aggressiveThermal())
	e := browser.New(s, cpu, nil)
	e.SetGovernor(r)
	if _, err := e.LoadPage(animPage); err != nil {
		t.Fatal(err)
	}
	driveAnimation(s, e)
	if errs := e.ScriptErrors(); len(errs) > 0 {
		t.Fatalf("script errors: %v", errs)
	}

	if th.Trips() == 0 {
		t.Fatal("profiling at the peak never tripped the aggressive thermal governor")
	}
	// With no DVFS faults injected, every request the runtime makes is
	// granted verbatim — unless it asked for something above the ceiling.
	if st := r.Stats(); st.Ungranted > 0 {
		t.Fatalf("runtime requested %d illegal configurations: %+v", st.Ungranted, st)
	}
	// After the (near-instant) trip, no frame may execute above the cap.
	cap := acmp.Config{Cluster: acmp.Big, MHz: aggressiveThermal().CapMHz}
	high := 0
	for _, fr := range e.Results() {
		if fr.Config.Index() > cap.Index() {
			high++
		}
	}
	if high > 2 {
		t.Fatalf("%d frames ran above the thermal cap %v", high, cap)
	}
	if st := r.Stats(); st.CapClamps == 0 {
		t.Fatalf("no profiling request was cap-clamped under a standing cap: %+v", st)
	}
}
