package acmp

import (
	"fmt"

	"github.com/wattwiseweb/greenweb/internal/sim"
)

// Configuration switch overheads (paper Sec. 7.1): changing the frequency of
// a cluster stalls execution for 100 µs; migrating between the big and
// little clusters stalls for 20 µs.
const (
	FreqSwitchPenalty = 100 * sim.Microsecond
	MigrationPenalty  = 20 * sim.Microsecond
)

// SwitchStats counts the configuration changes applied to a CPU, the
// quantity Fig. 12 of the paper reports.
type SwitchStats struct {
	FreqSwitches int // frequency changes within a cluster
	Migrations   int // big↔little cluster migrations
}

// Total reports all configuration switching events.
func (s SwitchStats) Total() int { return s.FreqSwitches + s.Migrations }

// DVFSFaults injects transition failures into SetConfig: a request may be
// denied outright (the old configuration stays live) or delayed by a
// transition latency. Implementations must be deterministic functions of
// virtual time (internal/faults provides a seed-driven one).
type DVFSFaults interface {
	Transition(now sim.Time) (deny bool, delay sim.Duration)
}

// FaultStats counts fault-model outcomes observed by the CPU. All zero when
// no fault injection is attached.
type FaultStats struct {
	Denied  int `json:"denied,omitempty"`  // SetConfig requests denied outright
	Delayed int `json:"delayed,omitempty"` // transitions that landed after an injected latency
	Trips   int `json:"trips,omitempty"`   // thermal-governor trips
}

// CPU simulates the ACMP processor: an exclusive active cluster running at a
// settable frequency, executing the work submitted to its threads, with a
// power meter on the CPU rails. All timing flows through the shared
// discrete-event simulator, and execution is preemptible: SetConfig re-times
// all in-flight work.
type CPU struct {
	sim   *sim.Simulator
	pm    *PowerModel
	cfg   Config
	meter *Meter

	// clusterMHz remembers each cluster's last programmed frequency, so a
	// migration back to a cluster resumes at its prior operating point
	// (as cpufreq does) and only counts a frequency switch if the governor
	// also reprograms it.
	clusterMHz [2]int

	threads    []*Thread
	stallUntil sim.Time
	busyCount  int

	stats SwitchStats

	// Residency tracking for the paper's Fig. 11 (time distribution over
	// architecture configurations).
	residency   map[Config]sim.Duration
	residencyAt sim.Time

	// Union-busy accounting for utilization-driven governors.
	unionBusySince sim.Time
	unionBusy      sim.Duration

	onConfigChange []func(old, new Config)

	// Fault-injection state (all inert until SetDVFSFaults/EnableThermal).
	thermal       *Thermal
	dvfs          DVFSFaults
	lastRequested Config    // most recent SetConfig argument, pre-clamp
	granted       Config    // configuration the last request resolved to
	pendingEv     sim.Event // in-flight delayed transition
	faultStats    FaultStats
}

// NewCPU returns an ACMP processor attached to the simulator, initially at
// the lowest-power configuration (little @ 350 MHz) and fully idle.
func NewCPU(s *sim.Simulator, pm *PowerModel) *CPU {
	if pm == nil {
		pm = DefaultPower()
	}
	c := &CPU{
		sim:       s,
		pm:        pm,
		cfg:       LowestConfig(),
		residency: make(map[Config]sim.Duration),
	}
	c.clusterMHz[Little] = LittleMinMHz
	c.clusterMHz[Big] = BigMinMHz
	c.lastRequested = c.cfg
	c.granted = c.cfg
	c.meter = newMeter(s, pm)
	c.residencyAt = s.Now()
	c.refreshPower()
	return c
}

// Sim returns the simulator driving this CPU.
func (c *CPU) Sim() *sim.Simulator { return c.sim }

// PowerModel returns the power model in effect.
func (c *CPU) PowerModel() *PowerModel { return c.pm }

// Config reports the current execution configuration.
func (c *CPU) Config() Config { return c.cfg }

// Stats reports the configuration switching counts so far.
func (c *CPU) Stats() SwitchStats { return c.stats }

// OnConfigChange registers a callback invoked after every effective
// configuration change (used by tracing and metrics).
func (c *CPU) OnConfigChange(fn func(old, new Config)) {
	c.onConfigChange = append(c.onConfigChange, fn)
}

// SetDVFSFaults attaches a transition fault injector consulted on every
// effective configuration request. Pass nil to detach.
func (c *CPU) SetDVFSFaults(f DVFSFaults) { c.dvfs = f }

// EnableThermal attaches the thermal governor with the given parameters and
// returns it. It panics on invalid parameters (validate external input with
// ThermalParams.Validate first), like SetConfig does on invalid configs.
func (c *CPU) EnableThermal(p ThermalParams) *Thermal {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	t := &Thermal{cpu: c, p: p, tempC: p.AmbientC, at: c.sim.Now()}
	c.thermal = t
	t.replan()
	return t
}

// Thermal returns the attached thermal governor, or nil.
func (c *CPU) Thermal() *Thermal { return c.thermal }

// FaultStats reports the fault-model outcomes observed so far.
func (c *CPU) FaultStats() FaultStats {
	fs := c.faultStats
	if c.thermal != nil {
		fs.Trips = c.thermal.trips
	}
	return fs
}

// Ceiling reports the highest configuration currently legal: the overall
// peak, or the thermal cap while the thermal governor is tripped.
func (c *CPU) Ceiling() Config {
	if c.thermal != nil && c.thermal.tripped {
		return Config{Big, c.thermal.p.CapMHz}
	}
	return PeakConfig()
}

// ClampToCeiling lowers a configuration to the current legal ceiling; legal
// configurations pass through unchanged.
func (c *CPU) ClampToCeiling(cfg Config) Config {
	if ceil := c.Ceiling(); cfg.Index() > ceil.Index() {
		return ceil
	}
	return cfg
}

// Granted reports the configuration the most recent SetConfig request
// resolved to: the request itself when honored, the ceiling-clamped value
// under a thermal cap, or the old configuration when an injected DVFS fault
// denied the transition. Governors compare this against what they asked for
// to detect degradation.
func (c *CPU) Granted() Config { return c.granted }

// SetConfig requests a switch to a new execution configuration, applying
// the frequency-switch and migration stalls to all in-flight work and
// re-timing it for the new operating point. Setting the current
// configuration is a no-op. The request is subject to the thermal ceiling
// and any injected DVFS faults; Granted reports what actually took effect.
func (c *CPU) SetConfig(cfg Config) {
	if !cfg.Valid() {
		panic(fmt.Sprintf("acmp: SetConfig(%v): invalid", cfg))
	}
	c.lastRequested = cfg
	c.granted = c.requestConfig(cfg)
}

// requestConfig runs the fault path of a configuration request: ceiling
// clamp, then denial or delay from the injector, then the actual switch. It
// returns the configuration the request resolved to.
func (c *CPU) requestConfig(cfg Config) Config {
	cfg = c.ClampToCeiling(cfg)
	// A delayed transition in flight is superseded by the newest request.
	c.pendingEv.Cancel()
	if cfg == c.cfg {
		return cfg
	}
	if c.dvfs != nil {
		deny, delay := c.dvfs.Transition(c.sim.Now())
		if deny {
			c.faultStats.Denied++
			return c.cfg
		}
		if delay > 0 {
			c.faultStats.Delayed++
			target := cfg
			c.pendingEv = c.sim.After(delay, "acmp:dvfs-delayed", func() {
				t := c.ClampToCeiling(target)
				if t != c.cfg {
					c.applyConfig(t)
				}
				c.granted = t
			})
			return cfg
		}
	}
	c.applyConfig(cfg)
	return cfg
}

// applyConfig performs the switch itself. cfg must differ from the current
// configuration and already be within the legal ceiling.
func (c *CPU) applyConfig(cfg Config) {
	old := c.cfg
	if c.thermal != nil {
		// Integrate the die temperature under the outgoing configuration
		// before the rate changes.
		c.thermal.advance()
	}

	var penalty sim.Duration
	if cfg.Cluster != old.Cluster {
		c.stats.Migrations++
		penalty += MigrationPenalty
	}
	if cfg.MHz != c.clusterMHz[cfg.Cluster] {
		c.stats.FreqSwitches++
		penalty += FreqSwitchPenalty
	}

	now := c.sim.Now()
	c.accrueResidency(now)

	// Account progress under the old configuration before changing rates.
	for _, t := range c.threads {
		t.accrueProgress(now, old)
	}

	c.cfg = cfg
	c.clusterMHz[cfg.Cluster] = cfg.MHz
	stallEnd := now.Add(penalty)
	if stallEnd > c.stallUntil {
		c.stallUntil = stallEnd
	}

	// Re-time all in-flight CPU phases at the new rate, after the stall.
	for _, t := range c.threads {
		t.retime(old.Cluster, cfg.Cluster)
	}

	c.refreshPower()
	if c.thermal != nil {
		c.thermal.replan()
	}
	for _, fn := range c.onConfigChange {
		fn(old, cfg)
	}
}

// Energy reports the total CPU-rail energy consumed so far.
func (c *CPU) Energy() Joules { return c.meter.Energy() }

// Power reports the instantaneous CPU-rail power draw.
func (c *CPU) Power() Watts { return c.meter.Power() }

// Meter exposes the energy meter, e.g. for attaching a DAQ sampler.
func (c *CPU) Meter() *Meter { return c.meter }

// UnionBusyTime reports the cumulative time during which at least one
// thread was executing a CPU phase. Utilization-driven governors divide a
// window's delta by the window length.
func (c *CPU) UnionBusyTime() sim.Duration {
	d := c.unionBusy
	if c.busyCount > 0 {
		d += c.sim.Now().Sub(c.unionBusySince)
	}
	return d
}

// Busy reports whether any thread is currently executing a CPU phase.
func (c *CPU) Busy() bool { return c.busyCount > 0 }

// Residency reports the time spent in each execution configuration,
// including the currently accruing one. The map is a fresh copy.
func (c *CPU) Residency() map[Config]sim.Duration {
	out := make(map[Config]sim.Duration, len(c.residency)+1)
	for cfg, d := range c.residency {
		out[cfg] = d
	}
	out[c.cfg] += c.sim.Now().Sub(c.residencyAt)
	return out
}

func (c *CPU) accrueResidency(now sim.Time) {
	c.residency[c.cfg] += now.Sub(c.residencyAt)
	c.residencyAt = now
}

func (c *CPU) refreshPower() {
	c.meter.set(c.pm.Total(c.cfg, c.busyCount, len(c.threads)), c.cfg.Cluster)
}

func (c *CPU) threadBusyChanged(delta int) {
	now := c.sim.Now()
	was := c.busyCount > 0
	c.busyCount += delta
	if c.busyCount < 0 {
		panic("acmp: negative busy count")
	}
	is := c.busyCount > 0
	if !was && is {
		c.unionBusySince = now
	} else if was && !is {
		c.unionBusy += now.Sub(c.unionBusySince)
	}
	c.refreshPower()
}

// NewThread creates an execution context pinned to its own core. The
// browser model creates one per engine thread (renderer main, compositor,
// browser-process I/O), which mirrors the ample core count of the modelled
// SoC (four per cluster).
func (c *CPU) NewThread(name string) *Thread {
	t := &Thread{cpu: c, name: name, cpuDoneName: name + ":cpu-done", indepDoneName: name + ":indep-done"}
	t.cpuDone, t.indepDone = t.cpuPhaseDone, t.itemDone
	c.threads = append(c.threads, t)
	c.refreshPower()
	return t
}

type threadState int

const (
	threadIdle threadState = iota
	threadCPUPhase
	threadIndepPhase
)

type workItem struct {
	work Work
	done func()
}

// Thread is a serial execution context on the CPU: submitted work runs
// in FIFO order, one item at a time. During an item's CPU phase the thread
// occupies a core (drawing active power, progressing at the configured
// frequency); during its frequency-independent phase the core idles while
// GPU/memory finish the item.
type Thread struct {
	cpu   *CPU
	name  string
	queue []workItem
	state threadState

	// Completion event names and callbacks, built once: every work item
	// schedules one or two of them.
	cpuDoneName, indepDoneName string
	cpuDone, indepDone         func()

	cur             workItem
	remainingCycles float64 // in active-cluster cycles
	segStart        sim.Time
	doneEv          sim.Event

	busyTotal sim.Duration
	executed  int
}

// Name reports the thread's diagnostic label.
func (t *Thread) Name() string { return t.name }

// QueueLen reports the number of items waiting behind the current one.
func (t *Thread) QueueLen() int { return len(t.queue) }

// Idle reports whether the thread has no current or queued work.
func (t *Thread) Idle() bool { return t.state == threadIdle && len(t.queue) == 0 }

// BusyTime reports the cumulative CPU-phase time of this thread.
func (t *Thread) BusyTime() sim.Duration {
	d := t.busyTotal
	if t.state == threadCPUPhase {
		now := t.cpu.sim.Now()
		if now > t.segStart {
			// Only count time actually progressing (segStart absorbs stalls
			// conservatively; stall time counts as busy once reached).
			d += now.Sub(t.segStart)
		}
	}
	return d
}

// Executed reports how many work items have fully completed on this thread.
func (t *Thread) Executed() int { return t.executed }

// Submit enqueues work; done (which may be nil) runs when the item fully
// completes, at which point the next queued item starts.
func (t *Thread) Submit(w Work, done func()) {
	t.queue = append(t.queue, workItem{w, done})
	if t.state == threadIdle {
		t.startNext()
	}
}

func (t *Thread) startNext() {
	if len(t.queue) == 0 {
		t.state = threadIdle
		return
	}
	// Pop by copying down, so the queue keeps its capacity and the vacated
	// slot drops its done closure.
	t.cur = t.queue[0]
	n := copy(t.queue, t.queue[1:])
	t.queue[n] = workItem{}
	t.queue = t.queue[:n]
	cluster := t.cpu.cfg.Cluster
	t.remainingCycles = float64(t.cur.work.Cycles(cluster))
	if t.remainingCycles > 0 {
		t.state = threadCPUPhase
		t.cpu.threadBusyChanged(+1)
		t.scheduleCompletion()
	} else {
		t.startIndepPhase()
	}
}

// scheduleCompletion plans the end of the CPU phase from the current
// remaining cycles, respecting any switch stall in effect.
func (t *Thread) scheduleCompletion() {
	now := t.cpu.sim.Now()
	start := now
	if t.cpu.stallUntil > start {
		start = t.cpu.stallUntil
	}
	t.segStart = start
	rate := t.cpu.cfg.HzF() // cycles per second
	secs := t.remainingCycles / rate
	finish := start.Add(sim.Duration(secs*1e6 + 0.5))
	if finish < now {
		finish = now
	}
	t.doneEv.Cancel()
	t.doneEv = t.cpu.sim.At(finish, t.cpuDoneName, t.cpuDone)
}

// accrueProgress charges cycles executed since segStart under the old
// configuration against the remaining cycle count. Called by SetConfig
// before the rate changes.
func (t *Thread) accrueProgress(now sim.Time, old Config) {
	if t.state != threadCPUPhase {
		return
	}
	if now <= t.segStart {
		// Still inside a switch stall: no progress was made, and retime's
		// scheduleCompletion will recompute the resume point.
		return
	}
	elapsed := now.Sub(t.segStart)
	done := elapsed.Seconds() * old.HzF()
	t.remainingCycles -= done
	if t.remainingCycles < 0 {
		t.remainingCycles = 0
	}
	t.busyTotal += elapsed
	t.segStart = now
}

// retime converts remaining cycles across a cluster change and reschedules
// the CPU-phase completion at the new rate.
func (t *Thread) retime(oldCluster, newCluster Cluster) {
	if t.state != threadCPUPhase {
		return
	}
	if oldCluster != newCluster {
		oldTotal := float64(t.cur.work.Cycles(oldCluster))
		newTotal := float64(t.cur.work.Cycles(newCluster))
		if oldTotal > 0 {
			t.remainingCycles = t.remainingCycles / oldTotal * newTotal
		} else {
			t.remainingCycles = newTotal
		}
	}
	t.scheduleCompletion()
}

func (t *Thread) cpuPhaseDone() {
	now := t.cpu.sim.Now()
	if now > t.segStart {
		t.busyTotal += now.Sub(t.segStart)
	}
	t.segStart = now
	t.remainingCycles = 0
	t.cpu.threadBusyChanged(-1)
	t.startIndepPhase()
}

func (t *Thread) startIndepPhase() {
	if t.cur.work.Indep > 0 {
		t.state = threadIndepPhase
		t.cpu.sim.After(t.cur.work.Indep, t.indepDoneName, t.indepDone)
	} else {
		t.itemDone()
	}
}

func (t *Thread) itemDone() {
	done := t.cur.done
	t.cur = workItem{}
	t.state = threadIdle
	t.executed++
	if done != nil {
		done()
	}
	if t.state == threadIdle { // done() may have submitted and started work
		t.startNext()
	}
}
