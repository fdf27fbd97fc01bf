package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New()
	var fired Time = -1
	s.After(5*Millisecond, "tick", func() { fired = s.Now() })
	s.Run()
	if fired != Time(5*Millisecond) {
		t.Fatalf("event fired at %v, want 5ms", fired)
	}
	if s.Now() != Time(5*Millisecond) {
		t.Fatalf("clock at %v after run, want 5ms", s.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.After(30*Millisecond, "c", func() { order = append(order, 3) })
	s.After(10*Millisecond, "a", func() { order = append(order, 1) })
	s.After(20*Millisecond, "b", func() { order = append(order, 2) })
	s.Run()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v, want [1 2 3]", order)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(Millisecond, "e", func() { order = append(order, i) })
	}
	s.Run()
	if len(order) != 10 {
		t.Fatalf("fired %d events, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order = %v, want FIFO", order)
		}
	}
}

func TestImmediatelyRunsAfterCurrentInstant(t *testing.T) {
	s := New()
	var order []string
	s.After(Millisecond, "outer", func() {
		s.Immediately("inner", func() { order = append(order, "inner") })
		order = append(order, "outer")
	})
	s.After(Millisecond, "peer", func() { order = append(order, "peer") })
	s.Run()
	want := []string{"outer", "peer", "inner"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := New()
	fired := false
	e := s.After(Millisecond, "x", func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	s := New()
	n := 0
	e := s.After(Millisecond, "x", func() { n++ })
	s.Run()
	e.Cancel() // must not panic or affect anything
	if n != 1 {
		t.Fatalf("fired %d times, want 1", n)
	}
	// Nor may the stale handle, or the zero Event, cancel the event that
	// reuses the fired event's slot.
	s.After(Millisecond, "y", func() { n++ })
	e.Cancel()
	Event{}.Cancel()
	s.Run()
	if n != 2 {
		t.Fatalf("stale handle cancelled the event that reused its slot")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.After(10*Millisecond, "late", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(Time(Millisecond), "past", func() {})
	})
	s.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	s.After(-1, "neg", func() {})
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := New()
	var fired []Time
	for i := 1; i <= 5; i++ {
		d := Duration(i) * 10 * Millisecond
		s.After(d, "t", func() { fired = append(fired, s.Now()) })
	}
	s.RunUntil(Time(25 * Millisecond))
	if len(fired) != 2 {
		t.Fatalf("fired %d events by 25ms, want 2", len(fired))
	}
	if s.Now() != Time(25*Millisecond) {
		t.Fatalf("clock = %v, want 25ms", s.Now())
	}
	s.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockWhenQueueEmpty(t *testing.T) {
	s := New()
	s.RunUntil(Time(Second))
	if s.Now() != Time(Second) {
		t.Fatalf("clock = %v, want 1s", s.Now())
	}
}

func TestRunForIsRelative(t *testing.T) {
	s := New()
	s.RunFor(100 * Millisecond)
	s.RunFor(100 * Millisecond)
	if s.Now() != Time(200*Millisecond) {
		t.Fatalf("clock = %v, want 200ms", s.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New()
	n := 0
	for i := 0; i < 10; i++ {
		s.After(Duration(i+1)*Millisecond, "e", func() {
			n++
			if n == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if n != 3 {
		t.Fatalf("fired %d events before stop, want 3", n)
	}
	s.Run() // resumes
	if n != 10 {
		t.Fatalf("fired %d events total, want 10", n)
	}
}

func TestNextEventAt(t *testing.T) {
	s := New()
	if s.NextEventAt() != Forever {
		t.Fatalf("NextEventAt on empty queue = %v, want Forever", s.NextEventAt())
	}
	e := s.After(7*Millisecond, "a", func() {})
	s.After(9*Millisecond, "b", func() {})
	if s.NextEventAt() != Time(7*Millisecond) {
		t.Fatalf("NextEventAt = %v, want 7ms", s.NextEventAt())
	}
	e.Cancel()
	if s.NextEventAt() != Time(9*Millisecond) {
		t.Fatalf("NextEventAt after cancel = %v, want 9ms", s.NextEventAt())
	}
}

func TestDurationConversions(t *testing.T) {
	if FromStd(3*time.Millisecond) != 3*Millisecond {
		t.Fatal("FromStd wrong")
	}
	if (2 * Millisecond).Std() != 2*time.Millisecond {
		t.Fatal("Std wrong")
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v", got)
	}
	if got := (Second + 500*Millisecond).Milliseconds(); got != 1500 {
		t.Fatalf("Milliseconds = %v", got)
	}
	if got := Time(2 * Second).Seconds(); got != 2 {
		t.Fatalf("Time.Seconds = %v", got)
	}
	if Forever.String() != "forever" {
		t.Fatalf("Forever.String = %q", Forever.String())
	}
	if (5 * Millisecond).String() != "5ms" {
		t.Fatalf("Duration.String = %q", (5 * Millisecond).String())
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(10 * Millisecond)
	b := a.Add(5 * Millisecond)
	if b != Time(15*Millisecond) {
		t.Fatalf("Add = %v", b)
	}
	if b.Sub(a) != 5*Millisecond {
		t.Fatalf("Sub = %v", b.Sub(a))
	}
}

// Property: for any set of delays, with random cancels and partial runs
// mixed in, exactly the events a sorted reference queue expects fire, in
// (time, scheduling order). Cancels hit live events, events that already
// fired, and stale handles whose slot a later event reuses, so a generation
// bug that cancels the wrong event fails the comparison.
func TestPropertyEventOrdering(t *testing.T) {
	type ref struct {
		at  Time
		seq int
	}
	f := func(delays []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var (
			handles     []Event
			pending     []ref // the reference queue
			fired, want []int
		)
		runRef := func(deadline Time) {
			sort.Slice(pending, func(i, j int) bool {
				a, b := pending[i], pending[j]
				return a.at < b.at || a.at == b.at && a.seq < b.seq
			})
			n := 0
			for ; n < len(pending) && pending[n].at <= deadline; n++ {
				want = append(want, pending[n].seq)
			}
			pending = pending[n:]
		}
		for _, d := range delays {
			seq := len(handles)
			handles = append(handles, s.After(Duration(d), "e", func() { fired = append(fired, seq) }))
			pending = append(pending, ref{s.Now().Add(Duration(d)), seq})
			switch rng.Intn(4) {
			case 0:
				victim := rng.Intn(len(handles))
				handles[victim].Cancel()
				pending = slices.DeleteFunc(pending, func(r ref) bool { return r.seq == victim })
			case 1:
				deadline := s.Now().Add(Duration(rng.Intn(1 << 16)))
				s.RunUntil(deadline)
				runRef(deadline)
			}
		}
		s.Run()
		runRef(Forever)
		return slices.Equal(fired, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Steady-state scheduling allocates nothing: slots and queue entries are
// recycled, and a pre-bound callback needs no closure.
func TestScheduleAndStepAllocateNothing(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(Duration(i), "warm", fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(Microsecond, "e", fn)
		s.After(2*Microsecond, "e", fn).Cancel()
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("At+Step allocated %v times per run, want 0", allocs)
	}
}

// Property: interleaving scheduling during execution preserves ordering.
func TestPropertyNestedScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := New()
		var last Time
		ok := true
		var spawn func(depth int)
		spawn = func(depth int) {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
			if depth <= 0 {
				return
			}
			n := rng.Intn(3)
			for i := 0; i < n; i++ {
				d := Duration(rng.Intn(1000))
				s.After(d, "spawn", func() { spawn(depth - 1) })
			}
		}
		for i := 0; i < 5; i++ {
			s.After(Duration(rng.Intn(1000)), "root", func() { spawn(4) })
		}
		s.Run()
		if !ok {
			t.Fatalf("trial %d: time went backwards", trial)
		}
	}
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.After(Duration(i)*Millisecond, "e", func() {})
	}
	s.Run()
	if s.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", s.Fired())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.After(Duration(j%97), "e", func() {})
		}
		s.Run()
	}
}
