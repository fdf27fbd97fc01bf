package acmp

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/wattwiseweb/greenweb/internal/sim"
)

func newTestCPU() (*sim.Simulator, *CPU) {
	s := sim.New()
	return s, NewCPU(s, DefaultPower())
}

func TestWorkLatencyMath(t *testing.T) {
	w := Work{CyclesBig: 18e6, CyclesLittle: 36e6, Indep: 2 * sim.Millisecond}
	// big @ 1800 MHz: 18e6 / 1.8e9 = 10 ms CPU + 2 ms indep.
	if got := w.Latency(Config{Big, 1800}); got != 12*sim.Millisecond {
		t.Fatalf("latency big@1800 = %v, want 12ms", got)
	}
	// little @ 600 MHz: 36e6 / 600e6 = 60 ms + 2 ms.
	if got := w.Latency(Config{Little, 600}); got != 62*sim.Millisecond {
		t.Fatalf("latency little@600 = %v, want 62ms", got)
	}
}

func TestWorkHelpers(t *testing.T) {
	w := CPUWork(1000)
	if w.CyclesBig != 1000 || w.CyclesLittle != 1800 {
		t.Fatalf("CPUWork = %v", w)
	}
	m := MixedWork(1000, 2.0, sim.Millisecond)
	if m.CyclesLittle != 2000 || m.Indep != sim.Millisecond {
		t.Fatalf("MixedWork = %v", m)
	}
	sum := w.Add(m)
	if sum.CyclesBig != 2000 || sum.CyclesLittle != 3800 || sum.Indep != sim.Millisecond {
		t.Fatalf("Add = %v", sum)
	}
	if got := sum.Scale(0.5); got.CyclesBig != 1000 {
		t.Fatalf("Scale = %v", got)
	}
	if !(Work{}).IsZero() || w.IsZero() {
		t.Fatal("IsZero wrong")
	}
	if w.Cycles(Big) != 1000 || w.Cycles(Little) != 1800 {
		t.Fatal("Cycles accessor wrong")
	}
	if len(w.String()) == 0 {
		t.Fatal("String empty")
	}
}

func TestSingleWorkLatencyAtFixedConfig(t *testing.T) {
	s, cpu := newTestCPU()
	cpu.SetConfig(Config{Big, 1000})
	s.RunFor(10 * sim.Millisecond) // get past switch stall
	th := cpu.NewThread("main")

	w := Work{CyclesBig: 10e6, CyclesLittle: 18e6, Indep: 3 * sim.Millisecond}
	start := s.Now()
	var end sim.Time
	th.Submit(w, func() { end = s.Now() })
	s.Run()
	want := w.Latency(Config{Big, 1000})
	if got := end.Sub(start); got != want {
		t.Fatalf("execution took %v, want %v", got, want)
	}
	if th.Executed() != 1 {
		t.Fatalf("Executed = %d", th.Executed())
	}
}

func TestFIFOQueueing(t *testing.T) {
	s, cpu := newTestCPU()
	th := cpu.NewThread("main")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		th.Submit(CPUWork(1e6), func() { order = append(order, i) })
	}
	if th.QueueLen() != 4 {
		t.Fatalf("QueueLen = %d, want 4", th.QueueLen())
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order = %v", order)
		}
	}
	if !th.Idle() {
		t.Fatal("thread not idle after drain")
	}
}

// A drained queue keeps its storage. After a burst of submits drains, a
// steady submit → completion cycle (with and without an item waiting behind
// the running one) reuses the burst's backing array, and no vacated slot
// keeps a done closure, or what it captures, reachable.
func TestThreadQueueReusesStorage(t *testing.T) {
	s, cpu := newTestCPU()
	th := cpu.NewThread("main")
	done := 0
	count := func() { done++ }
	for i := 0; i < 8; i++ {
		th.Submit(CPUWork(1e6), count)
	}
	s.Run()
	if done != 8 || !th.Idle() {
		t.Fatalf("burst: %d done, idle %v", done, th.Idle())
	}
	storage := th.queue[:cap(th.queue)]
	if len(storage) == 0 {
		t.Fatal("burst left no queue storage")
	}
	for i := 0; i < 50; i++ {
		th.Submit(CPUWork(1e6), count)
		if i%2 == 1 {
			th.Submit(Work{Indep: sim.Millisecond}, count) // waits behind the first
		}
		s.Run()
		if got := th.queue[:cap(th.queue)]; cap(got) != cap(storage) || &got[0] != &storage[0] {
			t.Fatalf("cycle %d: queue reallocated (cap %d → %d)", i, cap(storage), cap(got))
		}
	}
	if want := 8 + 50 + 25; done != want {
		t.Fatalf("%d items done, want %d", done, want)
	}
	for i, it := range storage {
		if it.done != nil {
			t.Fatalf("vacated queue slot %d still holds its done closure", i)
		}
	}
	if th.cur.done != nil {
		t.Fatal("idle thread still holds the last item's done closure")
	}
}

func TestFrequencyChangeMidWorkRetimes(t *testing.T) {
	s, cpu := newTestCPU()
	cpu.SetConfig(Config{Big, 1000})
	s.RunFor(sim.Second)
	th := cpu.NewThread("main")

	// 20e6 big cycles: 20 ms at 1 GHz. After 10 ms (10e6 cycles done),
	// double the frequency to 2... (1.8 GHz not double; use 800→1600).
	cpu.SetConfig(Config{Big, 800})
	s.RunFor(sim.Second)
	start := s.Now()
	var end sim.Time
	th.Submit(Work{CyclesBig: 16e6, CyclesLittle: 32e6}, func() { end = s.Now() })
	// At 800 MHz the work takes 20 ms. After 10 ms, 8e6 cycles remain.
	s.After(10*sim.Millisecond, "boost", func() { cpu.SetConfig(Config{Big, 1600}) })
	s.Run()
	// Remaining 8e6 cycles at 1.6 GHz = 5 ms, plus the 100 µs freq-switch
	// stall. Total = 10 ms + 0.1 ms + 5 ms.
	want := 15*sim.Millisecond + FreqSwitchPenalty
	got := end.Sub(start)
	if got != want {
		t.Fatalf("retimed execution took %v, want %v", got, want)
	}
}

func TestMigrationConvertsCycles(t *testing.T) {
	s, cpu := newTestCPU()
	cpu.SetConfig(Config{Big, 800})
	s.RunFor(sim.Second)
	th := cpu.NewThread("main")

	start := s.Now()
	var end sim.Time
	// 16e6 big cycles / 32e6 little cycles. At big@800: 20 ms total.
	th.Submit(Work{CyclesBig: 16e6, CyclesLittle: 32e6}, func() { end = s.Now() })
	// After 10 ms, half the work remains (8e6 big cycles ⇒ 16e6 little).
	// Migrate to little@400: 16e6/400e6 = 40 ms more, plus 20 µs migration
	// stall, plus 100 µs because little's remembered frequency is 350.
	s.After(10*sim.Millisecond, "migrate", func() { cpu.SetConfig(Config{Little, 400}) })
	s.Run()
	want := 50*sim.Millisecond + MigrationPenalty + FreqSwitchPenalty
	if got := end.Sub(start); got != want {
		t.Fatalf("migrated execution took %v, want %v", got, want)
	}
}

func TestMigrationBackResumesRememberedFrequency(t *testing.T) {
	_, cpu := newTestCPU()
	cpu.SetConfig(Config{Big, 1500})
	cpu.SetConfig(Config{Little, 500})
	st := cpu.Stats()
	// little@350→big@1500: migration + freq switch (big remembered 800).
	// big@1500→little@500: migration + freq switch (little remembered 350).
	if st.FreqSwitches != 2 || st.Migrations != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Returning to big at its remembered 1500 MHz: migration only.
	cpu.SetConfig(Config{Big, 1500})
	st = cpu.Stats()
	if st.FreqSwitches != 2 || st.Migrations != 3 {
		t.Fatalf("stats after return = %+v", st)
	}
	if st.Total() != 5 {
		t.Fatalf("Total = %d", st.Total())
	}
}

func TestSetSameConfigNoop(t *testing.T) {
	_, cpu := newTestCPU()
	cpu.SetConfig(LowestConfig())
	if st := cpu.Stats(); st.Total() != 0 {
		t.Fatalf("no-op SetConfig counted: %+v", st)
	}
}

func TestSetInvalidConfigPanics(t *testing.T) {
	_, cpu := newTestCPU()
	defer func() {
		if recover() == nil {
			t.Fatal("SetConfig(invalid) did not panic")
		}
	}()
	cpu.SetConfig(Config{Big, 123})
}

func TestOnConfigChangeCallback(t *testing.T) {
	_, cpu := newTestCPU()
	var got [][2]Config
	cpu.OnConfigChange(func(old, new Config) { got = append(got, [2]Config{old, new}) })
	cpu.SetConfig(Config{Little, 400})
	cpu.SetConfig(Config{Little, 400}) // no-op
	cpu.SetConfig(Config{Big, 800})
	if len(got) != 2 {
		t.Fatalf("callback fired %d times, want 2", len(got))
	}
	if got[0] != [2]Config{{Little, 350}, {Little, 400}} || got[1] != [2]Config{{Little, 400}, {Big, 800}} {
		t.Fatalf("transitions = %v", got)
	}
}

func TestEnergyMatchesClosedForm(t *testing.T) {
	s, cpu := newTestCPU()
	pm := cpu.PowerModel()
	cfg := Config{Big, 1000}
	cpu.SetConfig(cfg)
	th := cpu.NewThread("main")
	// Let the stall pass, then snapshot energy and run exactly one item.
	s.RunFor(10 * sim.Millisecond)
	e0 := cpu.Energy()
	w := Work{CyclesBig: 50e6, CyclesLittle: 90e6, Indep: 5 * sim.Millisecond}
	th.Submit(w, nil)
	s.Run()
	e1 := cpu.Energy()

	cpuSec := 50e6 / 1000e6
	indepSec := 0.005
	want := float64(pm.Total(cfg, 1, 1))*cpuSec + float64(pm.Total(cfg, 0, 1))*indepSec
	if got := float64(e1 - e0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("energy = %v J, want %v J", got, want)
	}
}

func TestEnergyByClusterSplits(t *testing.T) {
	s, cpu := newTestCPU()
	th := cpu.NewThread("main")
	th.Submit(CPUWork(10e6), nil)
	s.Run()
	cpu.SetConfig(Config{Big, 1800})
	th.Submit(CPUWork(10e6), nil)
	s.Run()
	little, big := cpu.Meter().EnergyByCluster()
	if little <= 0 || big <= 0 {
		t.Fatalf("split = little %v, big %v", little, big)
	}
	total := cpu.Energy()
	if math.Abs(float64(total-(little+big))) > 1e-12 {
		t.Fatalf("split doesn't sum: %v + %v != %v", little, big, total)
	}
}

func TestDAQTracksMeter(t *testing.T) {
	s, cpu := newTestCPU()
	daq := NewDAQ(s, sim.Millisecond, func() Watts { return cpu.Power() })
	th := cpu.NewThread("main")
	cpu.SetConfig(Config{Big, 1200})
	for i := 0; i < 20; i++ {
		th.Submit(Work{CyclesBig: 12e6, CyclesLittle: 22e6, Indep: 2 * sim.Millisecond}, nil)
	}
	// The DAQ self-reschedules indefinitely, so run to a fixed horizon
	// rather than draining the queue.
	s.RunUntil(sim.Time(500 * sim.Millisecond))
	daq.Stop()
	exact := float64(cpu.Energy())
	sampled := float64(daq.Energy())
	if daq.Samples() == 0 {
		t.Fatal("DAQ took no samples")
	}
	if rel := math.Abs(sampled-exact) / exact; rel > 0.10 {
		t.Fatalf("DAQ estimate %v J vs exact %v J (%.1f%% off)", sampled, exact, rel*100)
	}
}

func TestResidencySumsToElapsed(t *testing.T) {
	s, cpu := newTestCPU()
	th := cpu.NewThread("main")
	th.Submit(CPUWork(5e6), func() { cpu.SetConfig(Config{Big, 1000}) })
	th.Submit(CPUWork(5e6), func() { cpu.SetConfig(Config{Little, 500}) })
	th.Submit(CPUWork(5e6), nil)
	s.Run()
	s.RunFor(100 * sim.Millisecond)
	var sum sim.Duration
	for _, d := range cpu.Residency() {
		sum += d
	}
	if sum != sim.Duration(s.Now()) {
		t.Fatalf("residency sum %v != elapsed %v", sum, s.Now())
	}
	if len(cpu.Residency()) != 3 {
		t.Fatalf("residency has %d configs, want 3", len(cpu.Residency()))
	}
}

func TestUnionBusyTime(t *testing.T) {
	s, cpu := newTestCPU()
	a := cpu.NewThread("a")
	b := cpu.NewThread("b")
	// Two overlapping 10ms CPU-phases at little@350: 3.5e6 cycles each.
	a.Submit(Work{CyclesBig: 2e6, CyclesLittle: 3.5e6}, nil)
	s.RunFor(5 * sim.Millisecond)
	b.Submit(Work{CyclesBig: 2e6, CyclesLittle: 3.5e6}, nil)
	s.Run()
	// a busy [0,10ms], b busy [5ms,15ms] ⇒ union 15 ms.
	if got := cpu.UnionBusyTime(); got != 15*sim.Millisecond {
		t.Fatalf("UnionBusyTime = %v, want 15ms", got)
	}
	if cpu.Busy() {
		t.Fatal("CPU still busy after drain")
	}
}

func TestThreadBusyTimeExcludesIndep(t *testing.T) {
	s, cpu := newTestCPU()
	th := cpu.NewThread("main")
	w := Work{CyclesBig: 2e6, CyclesLittle: 3.5e6, Indep: 7 * sim.Millisecond}
	th.Submit(w, nil)
	s.Run()
	if got := th.BusyTime(); got != 10*sim.Millisecond {
		t.Fatalf("BusyTime = %v, want 10ms (CPU phase only)", got)
	}
}

func TestZeroCycleWorkIsPureIndep(t *testing.T) {
	s, cpu := newTestCPU()
	th := cpu.NewThread("main")
	start := s.Now()
	var end sim.Time
	th.Submit(Work{Indep: 4 * sim.Millisecond}, func() { end = s.Now() })
	s.Run()
	if end.Sub(start) != 4*sim.Millisecond {
		t.Fatalf("pure-indep work took %v", end.Sub(start))
	}
	if th.BusyTime() != 0 {
		t.Fatalf("BusyTime = %v for pure-indep work", th.BusyTime())
	}
}

func TestDoneCallbackMaySubmit(t *testing.T) {
	s, cpu := newTestCPU()
	th := cpu.NewThread("main")
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < 5 {
			th.Submit(CPUWork(1e6), chain)
		}
	}
	th.Submit(CPUWork(1e6), chain)
	s.Run()
	if n != 5 {
		t.Fatalf("chained %d items, want 5", n)
	}
	if th.Executed() != 5 {
		t.Fatalf("Executed = %d", th.Executed())
	}
}

// Property: total execution time under a random sequence of mid-work
// frequency changes never beats the time at the fastest config touched and
// never exceeds the time at the slowest config touched (plus stalls).
func TestPropertyRetimingBounds(t *testing.T) {
	f := func(seed uint8, switches []uint8) bool {
		if len(switches) > 6 {
			switches = switches[:6]
		}
		s := sim.New()
		cpu := NewCPU(s, DefaultPower())
		th := cpu.NewThread("main")
		w := CPUWork(100e6)
		var end sim.Time
		th.Submit(w, func() { end = s.Now() })

		fastest := cpu.Config()
		slowest := cpu.Config()
		at := sim.Duration(1+int(seed)%5) * sim.Millisecond
		var stalls sim.Duration
		for _, sw := range switches {
			cfg := ConfigAt(int(sw) % NumConfigs())
			at += sim.Duration(1+int(sw)%7) * sim.Millisecond
			s.At(sim.Time(at), "switch", func() {
				prev := cpu.Config()
				cpu.SetConfig(cfg)
				if prev != cfg {
					if cfg.Index() > fastest.Index() {
						fastest = cfg
					}
					if cfg.Index() < slowest.Index() {
						slowest = cfg
					}
					stalls += FreqSwitchPenalty + MigrationPenalty
				}
			})
		}
		s.Run()
		lo := w.Latency(fastest)
		hi := w.Latency(slowest) + stalls
		return sim.Duration(end) >= lo && sim.Duration(end) <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDAQRequiresPositivePeriod(t *testing.T) {
	s := sim.New()
	defer func() {
		if recover() == nil {
			t.Fatal("NewDAQ(0) did not panic")
		}
	}()
	NewDAQ(s, 0, func() Watts { return 0 })
}
