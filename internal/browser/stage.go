package browser

import (
	"fmt"
	"slices"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// Pipeline-parallel frame production. The serial renderer models a frame as
// one cascade — style, layout, paint as consecutive main-thread tasks. The
// staged renderer restructures that cascade into an explicit stage graph:
//
//	script (begin-frame) ──▶ style ──▶ layout ──▶ paint ──▶ composite
//
// with dependency edges between stages (a phase barrier: layout consumes the
// whole computed-style tree, paint the whole box tree) and, inside each
// stage, the per-node work split into shards that run concurrently on
// dedicated stage threads — separate simulated cores advancing in virtual
// time. Frame latency becomes the critical path through the graph: the sum
// over stages of the largest shard, not the sum of all work. Everything is
// deterministic because the "parallelism" is discrete-event simulation on
// one goroutine: shard completions are sim events with FIFO tie-breaking,
// and the phase barrier makes stage windows disjoint, so per-stage ledger
// spans nest exactly inside the frame span and the 1e-9 J conservation
// invariant is untouched.
//
// Serial mode (stage workers ≤ 1) does not build stage threads at all —
// thread count feeds the idle-power model, so the serial engine is
// byte-identical to the pre-staging engine, the repo's exact-parity
// contract.

// RenderStage identifies one stage of the frame-production graph.
type RenderStage int

// The staged phases of frame production, in dependency order.
const (
	StageStyle RenderStage = iota
	StageLayout
	StagePaint
	// NumRenderStages is the number of staged phases.
	NumRenderStages = ledger.NumStages
)

// String names the stage as its ledger stage span does.
func (s RenderStage) String() string {
	if s >= 0 && s < NumRenderStages {
		return ledger.StageNames[s]
	}
	return fmt.Sprintf("RenderStage(%d)", int(s))
}

// StageGovernor is the optional per-stage scheduling hook. A Governor that
// also implements it is notified at the start of every staged render phase,
// before the phase's shards are submitted, and may change the execution
// configuration — giving the runtime a per-stage config dimension (the
// frequency-switch and migration penalties of mid-frame changes apply
// exactly as on hardware). The base Governor interface stays frozen; serial
// frame production never calls this.
type StageGovernor interface {
	OnRenderStage(seq int, stage RenderStage)
}

// StageTiming records one staged phase of a frame for attribution and the
// per-stage performance model.
type StageTiming struct {
	Stage RenderStage
	// Start/End bound the phase window in virtual time.
	Start, End sim.Time
	// Config is the execution configuration at phase start (after the
	// governor's OnRenderStage hook ran).
	Config acmp.Config
	// TotalCycles is the phase's whole big-core cycle cost (what the serial
	// cascade would pay); CritCycles is the largest single shard — the
	// phase's contribution to the frame's critical path.
	TotalCycles, CritCycles int64
}

// Duration reports the phase window length.
func (st StageTiming) Duration() sim.Duration { return st.End.Sub(st.Start) }

// MaxStageWorkers bounds the stage-worker count: shards beyond the per-node
// work's parallelism only add idle-core power, and the flag surface should
// reject typos, not allocate a thousand simulated cores.
const MaxStageWorkers = 16

// SetStageWorkers configures this engine for staged frame production with n
// stage threads (0 or 1 leaves the engine serial). It must be called before
// LoadPage — stage threads change the core count the idle-power model sees,
// so they may not appear mid-run — and at most once.
func (e *Engine) SetStageWorkers(n int) {
	if n < 0 || n > MaxStageWorkers {
		panic(fmt.Sprintf("browser: stage workers %d out of range [0, %d]", n, MaxStageWorkers))
	}
	if e.loaded {
		panic("browser: SetStageWorkers after LoadPage")
	}
	if len(e.stageThreads) > 0 {
		panic("browser: stage workers already configured")
	}
	if n < 2 {
		return
	}
	for i := 0; i < n; i++ {
		e.stageThreads = append(e.stageThreads, e.cpu.NewThread(fmt.Sprintf("render-stage-%d", i)))
	}
}

// StageWorkers reports the engine's stage-thread count (0 = serial).
func (e *Engine) StageWorkers() int { return len(e.stageThreads) }

// stageThreadsIdle reports whether every stage thread is idle (vacuously
// true for a serial engine).
func (e *Engine) stageThreadsIdle() bool {
	for _, t := range e.stageThreads {
		if !t.Idle() {
			return false
		}
	}
	return true
}

// shardCycles splits a phase's parallelizable cycles evenly across the
// stage threads (remainder cycles to the lowest shards, deterministically)
// into out, which it returns resized to workers; base is the phase's serial
// portion (paint's per-frame base cost), carried by shard 0.
func shardCycles(out []int64, base, par int64, workers int) []int64 {
	out = slices.Grow(out[:0], workers)[:workers]
	q, r := par/int64(workers), par%int64(workers)
	for k := range out {
		out[k] = q
		if int64(k) < r {
			out[k]++
		}
	}
	out[0] += base
	return out
}

// produceFrameStaged is the staged counterpart of produceFrame's serial
// path: the same frame record, but style, layout, and paint execute as
// sharded phases on the stage threads with a dependency barrier between
// phases. The renderer main thread is NOT occupied by render work
// meanwhile, so input dispatches overlap frame production in virtual time —
// the second axis of pipeline parallelism.
func (e *Engine) produceFrameStaged() {
	f := &e.fw
	f.stages = make([]StageTiming, 0, NumRenderStages)
	f.mainWork = 0
	e.runStage(StageStyle)
}

// stagePlan is each phase's serial base and per-node cycles.
func (e *Engine) stagePlan(s RenderStage) (base, per int64) {
	switch s {
	case StageStyle:
		return 0, e.cost.StyleCyclesPerNode
	case StageLayout:
		return 0, e.cost.LayoutCyclesPerNode
	}
	return e.cost.PaintBaseCycles, e.cost.PaintCyclesPerNode
}

// runStage starts phase s of the frame in production: its shards run on
// the stage threads, and the last to finish (stageShardDone) closes the
// phase and starts the next.
func (e *Engine) runStage(s RenderStage) {
	f := &e.fw
	// Per-stage scheduling hook before any shard is submitted: a config
	// change here pays the switch penalty at the phase boundary, where
	// every stage thread is momentarily idle.
	if sg, ok := e.gov.(StageGovernor); ok {
		sg.OnRenderStage(f.seq, s)
	}
	base, per := e.stagePlan(s)
	total := base + f.nodes*per
	f.mainWork += total
	f.shards = shardCycles(f.shards, base, f.nodes*per, len(e.stageThreads))
	f.stage = StageTiming{
		Stage:       s,
		Start:       e.simu.Now(),
		Config:      e.cpu.Config(),
		TotalCycles: total,
	}
	f.pending = 0
	for _, c := range f.shards {
		if c > f.stage.CritCycles {
			f.stage.CritCycles = c
		}
		if c > 0 {
			f.pending++
		}
	}
	if e.led != nil {
		e.led.BeginStage(f.seq, s.String())
	}
	if f.pending == 0 {
		// A zero-cost phase (impossible under the default cost model,
		// which charges per node) still closes its span and advances.
		f.pending = 1
		e.stageShardDone()
		return
	}
	// Submit shards in thread order; equal-cost shards complete at the
	// same virtual instant and the simulator's FIFO tie-break keeps the
	// callback order deterministic (the order is immaterial anyway: only
	// the last completion advances the graph).
	for k, c := range f.shards {
		if c == 0 {
			continue
		}
		e.stageThreads[k].Submit(e.cost.cyclesWork(c), e.shardDone)
	}
}

// stageShardDone runs as each shard of the phase in flight finishes; the
// last one closes the phase and starts the next, or composites the frame
// after paint.
func (e *Engine) stageShardDone() {
	f := &e.fw
	f.pending--
	if f.pending > 0 {
		return
	}
	st := f.stage
	st.End = e.simu.Now()
	if e.led != nil {
		e.led.EndStage()
	}
	f.stages = append(f.stages, st)
	if st.Stage != StagePaint {
		e.runStage(st.Stage + 1)
		return
	}
	// Composite runs on the compositor thread, partially on GPU — same as
	// the serial path.
	e.composite()
}
