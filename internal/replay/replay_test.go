package replay

import (
	"reflect"
	"sync"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/governor"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

func TestTapExpansion(t *testing.T) {
	steps := Tap(100*sim.Millisecond, "btn")
	if len(steps) != 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].Event != "touchstart" || steps[1].Event != "touchend" || steps[2].Event != "click" {
		t.Fatalf("events = %v", steps)
	}
	if steps[0].At != 100*sim.Millisecond || steps[2].At <= steps[1].At {
		t.Fatalf("timing = %v", steps)
	}
	for _, s := range steps {
		if s.Target != "btn" {
			t.Fatalf("target = %q", s.Target)
		}
	}
}

func TestMoveExpansion(t *testing.T) {
	steps := Move(0, "list", 5, 16*sim.Millisecond)
	if len(steps) != 7 { // touchstart + 5 moves + touchend
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].Event != "touchstart" || steps[6].Event != "touchend" {
		t.Fatalf("bracketing events wrong: %v", steps)
	}
	for i := 1; i <= 5; i++ {
		if steps[i].Event != "touchmove" || steps[i].Data["deltaY"] == 0 {
			t.Fatalf("step %d = %+v", i, steps[i])
		}
	}
}

func TestScrollExpansion(t *testing.T) {
	steps := Scroll(10*sim.Millisecond, "pg", 3, 20*sim.Millisecond)
	if len(steps) != 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	for _, s := range steps {
		if s.Event != "scroll" {
			t.Fatalf("event = %q", s.Event)
		}
	}
}

func TestTraceAppendOrderEnforced(t *testing.T) {
	tr := &Trace{Name: "x"}
	tr.Append(Tap(0, "a")...)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order append did not panic")
		}
	}()
	tr.Append(Step{At: 0, Event: "click", Target: "a"})
}

func TestTraceDurationAndEvents(t *testing.T) {
	tr := &Trace{Name: "x"}
	tr.Append(Tap(0, "a")...)
	tr.Append(Move(sim.Second, "b", 4, 16*sim.Millisecond)...)
	if tr.Events() != 9 {
		t.Fatalf("events = %d", tr.Events())
	}
	want := sim.Second + 5*16*sim.Millisecond
	if tr.Duration() != want {
		t.Fatalf("duration = %v, want %v", tr.Duration(), want)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	tr := &Trace{Name: "session"}
	tr.Append(Tap(50*sim.Millisecond, "btn")...)
	tr.Append(Scroll(sim.Second, "pg", 2, 30*sim.Millisecond)...)
	data, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || back.Events() != tr.Events() || back.Duration() != tr.Duration() {
		t.Fatalf("round trip changed trace: %+v", back)
	}
	if back.Steps[3].Data["deltaY"] != 24 {
		t.Fatal("data lost in round trip")
	}
	if _, err := Unmarshal([]byte("{broken")); err == nil {
		t.Fatal("expected unmarshal error")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	// Replay a trace into an engine, record it back, and compare.
	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())
	e := browser.New(s, cpu, nil)
	e.SetGovernor(governor.NewPerf())
	if _, err := e.LoadPage(`<body><div id="d">x</div></body>`); err != nil {
		t.Fatal(err)
	}
	s.Run()
	orig := &Trace{Name: "orig"}
	orig.Append(Tap(0, "d")...)
	orig.Append(Move(sim.Second, "d", 3, 20*sim.Millisecond)...)
	start := s.Now().Add(50 * sim.Millisecond)
	orig.Replay(e, start)
	s.Run()

	rec := Record("rec", e)
	if rec.Events() != orig.Events() {
		t.Fatalf("recorded %d events, want %d", rec.Events(), orig.Events())
	}
	for i, step := range rec.Steps {
		if step.Event != orig.Steps[i].Event || step.Target != orig.Steps[i].Target {
			t.Fatalf("step %d = %+v, want %+v", i, step, orig.Steps[i])
		}
		if step.At != orig.Steps[i].At {
			t.Fatalf("step %d offset = %v, want %v", i, step.At, orig.Steps[i].At)
		}
	}
	// The load event is excluded.
	for _, step := range rec.Steps {
		if step.Event == "load" {
			t.Fatal("load recorded")
		}
	}
}

// Two inputs injected at the same instant must record in injection order,
// every time: the trace's steps and its Seed are stable across recordings.
func TestRecordOrdersSimultaneousInputs(t *testing.T) {
	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())
	e := browser.New(s, cpu, nil)
	e.SetGovernor(governor.NewPerf())
	if _, err := e.LoadPage(`<body><div id="a">x</div><div id="b">y</div></body>`); err != nil {
		t.Fatal(err)
	}
	s.Run()
	at := s.Now().Add(50 * sim.Millisecond)
	e.Inject(at, "touchstart", "a", nil)
	e.Inject(at, "click", "b", nil)
	s.Run()

	first := Record("same-instant", e)
	if len(first.Steps) != 2 || first.Steps[0].Event != "touchstart" || first.Steps[1].Event != "click" {
		t.Fatalf("steps = %+v, want touchstart then click", first.Steps)
	}
	for i := 0; i < 20; i++ {
		got := Record("same-instant", e)
		if !reflect.DeepEqual(got.Steps, first.Steps) || got.Seed() != first.Seed() {
			t.Fatalf("recording %d: steps %+v seed %d, want %+v seed %d",
				i, got.Steps, got.Seed(), first.Steps, first.Seed())
		}
	}
}

func TestJitterPreservesOrderAndContent(t *testing.T) {
	orig := &Trace{Name: "t"}
	orig.Append(Tap(0, "a")...)
	orig.Append(Move(sim.Second, "b", 10, 16*sim.Millisecond)...)
	j := orig.Jitter(42, 20*sim.Millisecond)
	if j.Events() != orig.Events() {
		t.Fatal("jitter changed event count")
	}
	var last sim.Duration = -1
	moved := false
	for i, step := range j.Steps {
		if step.At < last {
			t.Fatalf("jitter broke ordering at step %d", i)
		}
		last = step.At
		if step.Event != orig.Steps[i].Event || step.Target != orig.Steps[i].Target {
			t.Fatal("jitter changed step content")
		}
		if step.At != orig.Steps[i].At {
			moved = true
		}
		d := step.At - orig.Steps[i].At
		if d > 20*sim.Millisecond || d < -20*sim.Millisecond {
			// Clamping to preserve order can push a step later than its
			// own shift; allow accumulation but it must stay bounded by
			// the trace's worst case.
			if d > 200*sim.Millisecond {
				t.Fatalf("step %d shifted %v", i, d)
			}
		}
	}
	if !moved {
		t.Fatal("jitter moved nothing")
	}
	// Deterministic in the seed.
	j2 := orig.Jitter(42, 20*sim.Millisecond)
	for i := range j.Steps {
		if j.Steps[i].At != j2.Steps[i].At {
			t.Fatal("jitter not deterministic")
		}
	}
	j3 := orig.Jitter(43, 20*sim.Millisecond)
	same := true
	for i := range j.Steps {
		if j.Steps[i].At != j3.Steps[i].At {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical jitter")
	}
}

func TestTraceSeedDeterministicAndDistinct(t *testing.T) {
	mk := func(name string) *Trace {
		tr := &Trace{Name: name}
		tr.Append(Tap(0, "a")...)
		tr.Append(Move(sim.Second, "b", 5, 16*sim.Millisecond)...)
		return tr
	}
	// Two independently synthesized copies of the same trace agree — the
	// fleet-worker determinism guarantee.
	if mk("t").Seed() != mk("t").Seed() {
		t.Fatal("identical traces derived different seeds")
	}
	if mk("t").Seed() == mk("u").Seed() {
		t.Fatal("differently named traces share a seed")
	}
	// Same step content, different timeline → different seed.
	a, b := mk("t"), mk("t")
	b.Steps[0].At += sim.Millisecond
	if a.Seed() == b.Seed() {
		t.Fatal("shifted timeline shares a seed")
	}
}

func TestJitterMixesTraceSeed(t *testing.T) {
	a := &Trace{Name: "a"}
	a.Append(Tap(0, "x")...)
	a.Append(Move(sim.Second, "x", 20, 16*sim.Millisecond)...)
	b := &Trace{Name: "b"}
	b.Append(Tap(0, "x")...)
	b.Append(Move(sim.Second, "x", 20, 16*sim.Millisecond)...)
	ja, jb := a.Jitter(1, 20*sim.Millisecond), b.Jitter(1, 20*sim.Millisecond)
	same := true
	for i := range ja.Steps {
		if ja.Steps[i].At != jb.Steps[i].At {
			same = false
		}
	}
	if same {
		t.Fatal("distinct traces share a perturbation pattern under the same caller seed")
	}
}

func TestJitterZeroShiftIsExactIdentity(t *testing.T) {
	orig := &Trace{Name: "t"}
	orig.Append(Tap(0, "a")...)
	orig.Append(Move(sim.Second, "b", 10, 16*sim.Millisecond)...)
	for _, shift := range []sim.Duration{0, -sim.Millisecond} {
		j := orig.Jitter(42, shift)
		if j.Name != orig.Name {
			t.Fatalf("maxShift=%v: name = %q, want the original %q (intrinsic Seed must not move)", shift, j.Name, orig.Name)
		}
		if j.Seed() != orig.Seed() {
			t.Fatalf("maxShift=%v: Seed changed under identity jitter", shift)
		}
		if len(j.Steps) != len(orig.Steps) {
			t.Fatalf("maxShift=%v: step count changed", shift)
		}
		for i := range j.Steps {
			if j.Steps[i].At != orig.Steps[i].At ||
				j.Steps[i].Event != orig.Steps[i].Event ||
				j.Steps[i].Target != orig.Steps[i].Target {
				t.Fatalf("maxShift=%v: step %d altered", shift, i)
			}
		}
		// Identity is a copy, not an alias: mutating it leaves the source alone.
		j.Steps[0].At += sim.Millisecond
		if orig.Steps[0].At == j.Steps[0].At {
			t.Fatal("identity jitter aliases the source trace's steps")
		}
	}
}

// TestJitterConcurrentUse: Jitter must be safe to call from many fleet
// workers on the shared catalog trace at once (it only reads the receiver),
// and every worker must derive the identical perturbation. Run with -race.
func TestJitterConcurrentUse(t *testing.T) {
	orig := &Trace{Name: "shared"}
	orig.Append(Tap(0, "a")...)
	orig.Append(Move(sim.Second, "b", 30, 16*sim.Millisecond)...)
	const workers = 8
	got := make([]*Trace, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = orig.Jitter(7, 20*sim.Millisecond)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(got[w].Steps) != len(got[0].Steps) {
			t.Fatalf("worker %d: step count diverged", w)
		}
		for i := range got[w].Steps {
			if got[w].Steps[i].At != got[0].Steps[i].At {
				t.Fatalf("worker %d step %d: %v != %v — fleet workers disagree",
					w, i, got[w].Steps[i].At, got[0].Steps[i].At)
			}
		}
	}
}
