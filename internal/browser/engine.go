package browser

import (
	"fmt"
	"slices"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/css"
	"github.com/wattwiseweb/greenweb/internal/dom"
	"github.com/wattwiseweb/greenweb/internal/js"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/sim"
	"github.com/wattwiseweb/greenweb/internal/webapi"
)

// Governor decides execution configurations. The baselines (Perf,
// Interactive, …) and the GreenWeb runtime all implement this interface;
// the engine reports inputs, frame starts, frame completions, and event
// closure, and the governor responds by setting the CPU configuration.
type Governor interface {
	// Attach is called once before the run starts.
	Attach(e *Engine)
	// OnInput fires when the browser process receives an input event.
	// target is nil for page loads.
	OnInput(in InputRecord, target *dom.Node)
	// OnFrameStart fires when a VSync begins producing a frame with the
	// given provenance, before any frame work is submitted. The set is the
	// frame's own (FrameResult.Provenance): read it, never modify it.
	OnFrameStart(seq int, prov Provenance)
	// OnFrameEnd fires when the frame-ready signal arrives. fr is the
	// stored result (Results), valid only during the call: copy what you
	// keep.
	OnFrameEnd(fr *FrameResult)
	// OnEventComplete fires when no further work or frames can descend
	// from the input (the transitive closure of Sec. 6.4 is exhausted).
	OnEventComplete(uid UID)
}

// task is one unit of renderer main-thread work: run executes engine/script
// effects and returns the work to charge; commit applies deferred effects
// when the charged work completes.
type task struct {
	name   string
	prov   Provenance
	run    func() acmp.Work
	commit func()
}

// rafRequest is a pending requestAnimationFrame callback.
type rafRequest struct {
	id   int
	cb   js.Value
	prov Provenance
}

// Engine is one simulated browser instance rendering one page.
type Engine struct {
	simu *sim.Simulator
	cpu  *acmp.CPU
	cost *CostModel

	doc    *dom.Document
	interp *js.Interp
	bind   *webapi.Bindings
	sheets []*css.Stylesheet
	anns   *css.AnnotationSet

	browserThread    *acmp.Thread
	mainThread       *acmp.Thread
	compositorThread *acmp.Thread
	// stageThreads, when non-empty, switch frame production to the staged
	// pipeline (see stage.go). Serial engines never create them: the thread
	// count feeds the idle-power model, so their mere existence would change
	// energy outputs.
	stageThreads []*acmp.Thread

	gov Governor

	// Renderer main-thread task queue (serial). mainCur is the task the
	// main thread is running while mainBusy; mainDone, bound once in New,
	// commits it.
	mainQ    []task
	mainBusy bool
	mainCur  task
	mainDone func()

	// Frame production state (Fig. 7/8). fw is the frame in production
	// while producing; the callbacks below, bound once in New, drive it.
	dirty     bool
	dirtyProv Provenance
	msgQueue  []InputRecord
	rafQueue  []rafRequest
	rafSeq    int
	producing bool
	vsyncSet  bool
	frameSeq  int
	fw        frameWork

	beginRun, styleRun, layoutRun, paintRun, housekeepRun  func() acmp.Work
	beginCommit, paintCommit, composited, shardDone, vsync func()

	transitions  []*cssTransition
	applyingTick bool

	// Execution context of the currently running callback.
	curProv     Provenance
	curDispatch *DispatchResult

	uidSeq UID
	inputs map[UID]InputRecord
	// refs counts the references to each input whose closure is still open;
	// an input leaves it when it completes. zeroed lists the inputs whose
	// count dropped to zero since the last completion check: the only
	// candidates that check has to look at.
	refs    map[UID]int
	zeroed  []UID
	done    map[UID]bool
	results []FrameResult

	consoleLines []string
	scriptErrs   []error
	loaded       bool
	loadUID      UID

	onFrame []func(*FrameResult)

	// led, when set, receives a span per frame production and per input's
	// event closure for energy attribution (nil disables tracking).
	led *ledger.Ledger
}

// New creates an engine on the simulator and CPU. A nil cost model uses
// DefaultCost; a nil governor must be set before the run via SetGovernor.
func New(s *sim.Simulator, cpu *acmp.CPU, cost *CostModel) *Engine {
	if cost == nil {
		cost = DefaultCost()
	}
	e := &Engine{
		simu:   s,
		cpu:    cpu,
		cost:   cost,
		inputs: make(map[UID]InputRecord),
		refs:   make(map[UID]int),
		done:   make(map[UID]bool),
	}
	e.mainDone = e.commitMain
	e.beginRun, e.beginCommit = e.runBeginFrame, e.commitBeginFrame
	e.styleRun, e.layoutRun = e.runStyle, e.runLayout
	e.paintRun, e.paintCommit = e.runPaint, e.composite
	e.composited, e.shardDone = e.frameComplete, e.stageShardDone
	e.housekeepRun = e.runHousekeeping
	e.vsync = e.vsyncTick
	e.browserThread = cpu.NewThread("browser")
	e.mainThread = cpu.NewThread("renderer-main")
	e.compositorThread = cpu.NewThread("compositor")
	return e
}

// Accessors used by governors, AUTOGREEN, and the harness.

// Sim returns the simulator.
func (e *Engine) Sim() *sim.Simulator { return e.simu }

// CPU returns the hardware model.
func (e *Engine) CPU() *acmp.CPU { return e.cpu }

// Cost returns the engine cost model.
func (e *Engine) Cost() *CostModel { return e.cost }

// Doc returns the loaded document (nil before LoadPage).
func (e *Engine) Doc() *dom.Document { return e.doc }

// Interp returns the script interpreter.
func (e *Engine) Interp() *js.Interp { return e.interp }

// Bindings returns the script↔DOM bindings.
func (e *Engine) Bindings() *webapi.Bindings { return e.bind }

// Annotations returns the GreenWeb annotation resolver for the page.
func (e *Engine) Annotations() *css.AnnotationSet { return e.anns }

// Results returns the frames produced so far.
func (e *Engine) Results() []FrameResult { return e.results }

// ConsoleLines returns accumulated console output.
func (e *Engine) ConsoleLines() []string { return e.consoleLines }

// ScriptErrors returns script failures (logged, not fatal — as in engines).
func (e *Engine) ScriptErrors() []error { return e.scriptErrs }

// OnFrame registers an observer called after every completed frame, with
// the stored result; like Governor.OnFrameEnd, it must not retain it.
func (e *Engine) OnFrame(fn func(*FrameResult)) { e.onFrame = append(e.onFrame, fn) }

// SetLedger installs an energy-attribution ledger: the engine opens a span
// per frame production and per input→completion event closure. Install
// before LoadPage so the load event is attributed too.
func (e *Engine) SetLedger(l *ledger.Ledger) { e.led = l }

// Ledger returns the installed energy ledger (nil when attribution is off).
// Governors use this to annotate the spans of frames they schedule.
func (e *Engine) Ledger() *ledger.Ledger { return e.led }

// Quiescent reports whether the engine has no work in flight: no queued or
// running main-thread tasks, no frame in production, no pending animation
// callbacks or transitions, and nothing dirty. The harness polls this to
// end measurement windows at event completion rather than at arbitrary
// timeouts.
func (e *Engine) Quiescent() bool {
	return !e.mainBusy && len(e.mainQ) == 0 && !e.producing && !e.dirty &&
		len(e.rafQueue) == 0 && len(e.transitions) == 0 && len(e.msgQueue) == 0 &&
		e.browserThread.Idle() && e.compositorThread.Idle() && e.stageThreadsIdle()
}

// InputRecords returns all injected inputs by UID.
func (e *Engine) InputRecords() map[UID]InputRecord {
	out := make(map[UID]InputRecord, len(e.inputs))
	for k, v := range e.inputs {
		out[k] = v
	}
	return out
}

// InputRecord returns one input by UID. Per-frame consumers use this
// instead of InputRecords to avoid copying the whole map on every frame.
func (e *Engine) InputRecord(uid UID) (InputRecord, bool) {
	rec, ok := e.inputs[uid]
	return rec, ok
}

// SetGovernor installs the CPU governor. Must be called before the
// simulation runs.
func (e *Engine) SetGovernor(g Governor) {
	e.gov = g
	g.Attach(e)
}

// Governor returns the installed governor.
func (e *Engine) Governor() Governor { return e.gov }

// ---- webapi.Services ----

// Now implements webapi.Services.
func (e *Engine) Now() sim.Time { return e.simu.Now() }

// RequestAnimationFrame implements webapi.Services: the callback runs at
// the next frame with the provenance of the registering code.
func (e *Engine) RequestAnimationFrame(cb js.Value) int {
	e.rafSeq++
	prov := e.curProv
	e.rafQueue = append(e.rafQueue, rafRequest{id: e.rafSeq, cb: cb, prov: prov})
	for _, id := range prov {
		e.ref(id, +1)
	}
	if e.curDispatch != nil {
		e.curDispatch.RAFRegistered = true
	}
	e.ensureVSync()
	return e.rafSeq
}

// SetTimeout implements webapi.Services: the callback runs on the renderer
// main thread after delay, inheriting provenance.
func (e *Engine) SetTimeout(cb js.Value, delay sim.Duration) int {
	e.rafSeq++
	prov := e.curProv
	for _, id := range prov {
		e.ref(id, +1)
	}
	e.simu.After(delay, "timeout", func() {
		var d *DispatchResult
		e.post(task{
			name: "timeout-callback",
			prov: prov,
			run: func() acmp.Work {
				e.curDispatch = &DispatchResult{}
				ops, _ := e.runScriptValue(cb, js.Undefined, nil)
				d = e.curDispatch
				e.curDispatch = nil
				return e.cost.opsWork(ops)
			},
			commit: func() {
				e.commitDispatchEffects(prov, d)
				for _, id := range prov {
					e.ref(id, -1)
				}
				e.checkComplete()
			},
		})
	})
	return e.rafSeq
}

// ConsoleLog implements webapi.Services.
func (e *Engine) ConsoleLog(msg string) { e.consoleLines = append(e.consoleLines, msg) }

// ---- page loading ----

// LoadPage parses the page, builds the script and style environments, and
// schedules the loading pipeline: network fetch, parse, script startup,
// initial render, and the load event. The first produced frame is the
// "first meaningful frame" whose latency loading QoS is judged by
// (paper Sec. 3.2). It returns the load input's UID.
func (e *Engine) LoadPage(src string) (UID, error) {
	if e.loaded {
		return 0, fmt.Errorf("browser: page already loaded")
	}
	if e.gov == nil {
		return 0, fmt.Errorf("browser: no governor installed")
	}
	e.loaded = true

	// Parse-once asset cache: the document template, stylesheets, and
	// compiled scripts for a page source are built once per process and
	// shared; this engine works on a private clone of the DOM.
	assets := assetsFor(src)
	e.doc = assets.tmpl.Clone()
	e.sheets = assets.sheets
	e.interp = js.NewInterp()
	e.bind = webapi.Install(e.interp, e.doc, e)
	e.installPrelude()

	e.anns = css.NewAnnotationSet(e.sheets...)

	e.doc.OnMutation(func(n *dom.Node) {
		if e.curDispatch != nil {
			e.curDispatch.Dirtied = true
		}
	})
	e.doc.OnStyleChange(e.styleChanged)

	uid := e.newInput("load", "#document")
	e.loadUID = uid
	rec := e.inputs[uid]
	e.gov.OnInput(rec, nil)

	var scriptBytes, pageBytes int64
	pageBytes = int64(len(src))
	for _, s := range assets.scripts {
		scriptBytes += int64(len(s))
	}

	// Browser process: navigation + network.
	e.browserThread.Submit(acmp.Work{
		CyclesBig:    e.cost.LoadBaseCycles,
		CyclesLittle: int64(float64(e.cost.LoadBaseCycles) * e.cost.MicroArchRatio),
		Indep:        e.cost.NetworkTime,
	}, func() {
		// Renderer: parse HTML+CSS.
		e.post(task{
			name: "parse",
			prov: NewProvenance(uid),
			run: func() acmp.Work {
				return e.cost.cyclesWork(pageBytes * e.cost.ParseCyclesPerByte)
			},
		})
		// Renderer: execute top-level scripts.
		e.post(task{
			name: "script-startup",
			prov: NewProvenance(uid),
			run: func() acmp.Work {
				e.curDispatch = &DispatchResult{}
				var ops int64
				for i, cp := range assets.compiled {
					e.interp.ResetOps()
					if cp == nil {
						e.scriptErrs = append(e.scriptErrs, assets.parseErrs[i])
					} else if err := e.interp.RunCompiled(cp); err != nil {
						e.scriptErrs = append(e.scriptErrs, err)
					}
					ops += e.interp.ResetOps()
				}
				ops = int64(float64(ops) * e.cost.ScriptStartupFactor)
				ops += scriptBytes * e.cost.ParseCyclesPerByte / e.cost.CyclesPerOp
				return e.cost.opsWork(ops)
			},
			commit: func() {
				d := e.curDispatch
				e.curDispatch = nil
				e.commitDispatchEffects(NewProvenance(uid), d)
			},
		})
		// Renderer: initial render (always dirties) + load event.
		e.post(task{
			name: "initial-render",
			prov: NewProvenance(uid),
			run: func() acmp.Work {
				applied := css.Cascade(e.doc, e.sheets...)
				return e.cost.cyclesWork(int64(e.doc.CountNodes())*e.cost.StyleCyclesPerNode + int64(applied)*1000)
			},
			commit: func() {
				e.markDirty(NewProvenance(uid))
				e.enqueueMsg(e.inputs[uid])
				e.dispatchInternal(uid, e.bodyNode(), dom.EventLoad, nil)
			},
		})
	})
	return uid, nil
}

func (e *Engine) bodyNode() *dom.Node {
	if els := e.doc.GetElementsByTag("body"); len(els) > 0 {
		return els[0]
	}
	return e.doc.Root
}

// installPrelude defines the animate() helper (the jQuery-style animation
// entry point AUTOGREEN detects) and marks its use via a native hook.
func (e *Engine) installPrelude() {
	e.interp.Globals.Define("__markAnimate", js.NativeFunc("__markAnimate", func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
		if e.curDispatch != nil {
			e.curDispatch.AnimateCalled = true
		}
		return js.Undefined, nil
	}))
	if err := e.interp.RunCompiled(preludeCompiled); err != nil {
		panic("browser: prelude failed: " + err.Error())
	}
	e.interp.ResetOps()
}

const preludeSrc = `
	function animate(el, prop, from, to, durationMs) {
		__markAnimate();
		var start = performance.now();
		function step() {
			var t = (performance.now() - start) / durationMs;
			if (t > 1) { t = 1; }
			el.style[prop] = (from + (to - from) * t) + "px";
			if (t < 1) { requestAnimationFrame(step); }
		}
		requestAnimationFrame(step);
	}
`

// The prelude is identical for every engine, so it is parsed and compiled
// exactly once per process instead of once per page load.
var preludeCompiled = js.Compile(js.MustParse(preludeSrc))

// ---- input injection ----

// newInput allocates an input record (Fig. 8 Part I: unique id + start
// timestamp).
func (e *Engine) newInput(event, target string) UID {
	e.uidSeq++
	uid := e.uidSeq
	e.inputs[uid] = InputRecord{UID: uid, Event: event, Target: target, Start: e.simu.Now()}
	e.ref(uid, +1) // in-flight input processing
	if e.led != nil {
		e.led.BeginEvent(uint64(uid), event+" "+target)
	}
	return uid
}

// Inject schedules a user input event at an absolute time: the browser
// process receives it, does its dispatch work, and forwards it over IPC to
// the renderer, where the DOM event fires with full cost accounting.
func (e *Engine) Inject(at sim.Time, event, targetID string, data map[string]float64) {
	e.simu.At(at, "input:"+event, func() {
		target := e.lookupTarget(targetID)
		if target == nil {
			return // element gone: input falls on dead space
		}
		uid := e.newInput(event, targetID)
		rec := e.inputs[uid]
		e.gov.OnInput(rec, target)
		e.browserThread.Submit(e.cost.cyclesWork(e.cost.InputDispatchCycles), func() {
			e.simu.After(e.cost.IPCDelay, "ipc:"+event, func() {
				e.dispatchInternal(uid, target, event, data)
			})
		})
	})
}

func (e *Engine) lookupTarget(targetID string) *dom.Node {
	if targetID == "" || targetID == "body" || targetID == "#document" {
		return e.bodyNode()
	}
	return e.doc.GetElementByID(targetID)
}

// dispatchInternal posts the DOM event dispatch as a main-thread task.
func (e *Engine) dispatchInternal(uid UID, target *dom.Node, event string, data map[string]float64) {
	prov := NewProvenance(uid)
	e.post(task{
		name: "dispatch:" + event,
		prov: prov,
		run: func() acmp.Work {
			e.curDispatch = &DispatchResult{}
			e.interp.ResetOps()
			e.curDispatch.HandlersRun = dom.Dispatch(target, event, data)
			ops := e.interp.ResetOps()
			e.curDispatch.Ops = ops
			// A handler-less event costs a minimal hit-test.
			if e.curDispatch.HandlersRun == 0 {
				ops = 200
			}
			return e.cost.opsWork(ops)
		},
		commit: func() {
			d := e.curDispatch
			e.curDispatch = nil
			if d.Dirtied {
				e.markDirty(prov)
				e.enqueueMsg(e.inputs[uid])
			}
			e.ref(uid, -1)
			e.checkComplete()
		},
	})
}

// runScriptValue calls a script function, returning ops spent and any error.
func (e *Engine) runScriptValue(fn js.Value, this js.Value, args []js.Value) (int64, error) {
	e.interp.ResetOps()
	_, err := e.interp.CallFunction(fn, this, args)
	if err != nil {
		e.scriptErrs = append(e.scriptErrs, err)
	}
	return e.interp.ResetOps(), err
}

// commitDispatchEffects applies the deferred consequences of a callback:
// dirty marking and message enqueueing.
func (e *Engine) commitDispatchEffects(prov Provenance, d *DispatchResult) {
	if d != nil && d.Dirtied {
		e.markDirty(prov)
		for _, id := range prov.IDs() {
			if rec, ok := e.inputs[id]; ok {
				e.enqueueMsg(rec)
			}
		}
	}
}

// ---- main-thread task pump ----

func (e *Engine) post(t task) {
	e.mainQ = append(e.mainQ, t)
	e.pumpMain()
}

func (e *Engine) pumpMain() {
	if e.mainBusy || len(e.mainQ) == 0 {
		return
	}
	// Pop by copying down, so the queue keeps its capacity and the vacated
	// slot drops its closures.
	e.mainCur = e.mainQ[0]
	n := copy(e.mainQ, e.mainQ[1:])
	e.mainQ[n] = task{}
	e.mainQ = e.mainQ[:n]
	e.mainBusy = true
	e.curProv = e.mainCur.prov
	w := e.mainCur.run()
	e.curProv = nil
	e.mainThread.Submit(w, e.mainDone)
}

// commitMain runs when the main thread finishes mainCur's work: it applies
// the task's deferred effects and starts the next task.
func (e *Engine) commitMain() {
	t := e.mainCur
	e.mainCur = task{}
	if t.commit != nil {
		e.curProv = t.prov
		t.commit()
		e.curProv = nil
	}
	e.mainBusy = false
	e.pumpMain()
}

// ---- dirty bit + message queue (Fig. 8 Part II) ----

func (e *Engine) markDirty(prov Provenance) {
	e.dirty = true
	// Dirty provenance keeps its events alive until the frame they dirtied
	// is produced — otherwise an event whose only remaining effect is the
	// pending frame would "complete" before the frame exists, and per-frame
	// governors would never see its frames (Sec. 6.4's closure includes
	// the frames themselves).
	for _, uid := range prov {
		if e.dirtyProv.Add(uid) {
			e.ref(uid, +1)
		}
	}
	e.ensureVSync()
}

func (e *Engine) enqueueMsg(rec InputRecord) {
	for _, m := range e.msgQueue {
		if m.UID == rec.UID {
			return // one queue entry per input
		}
	}
	e.msgQueue = append(e.msgQueue, rec)
	e.ref(rec.UID, +1)
}

// ---- reference counting for event closure (Sec. 6.4) ----

func (e *Engine) ref(uid UID, delta int) {
	n := e.refs[uid] + delta
	if n < 0 {
		panic(fmt.Sprintf("browser: negative refcount for input %d", uid))
	}
	e.refs[uid] = n
	if n == 0 {
		e.zeroed = append(e.zeroed, uid)
	}
}

// checkComplete fires OnEventComplete for inputs whose transitive closure
// has been exhausted: no queued message, pending animation, or in-flight
// work references them anymore. Only inputs whose count dropped to zero
// since the last check are examined, so a check costs O(inputs that just
// went quiet), not O(every input the page has received). Completions fire
// in ascending UID order so simultaneous completions notify the governor
// deterministically.
func (e *Engine) checkComplete() {
	var ready []UID
	for _, uid := range e.zeroed {
		// A candidate may have been referenced again since it hit zero, or
		// be listed twice (zero, re-referenced, zero again).
		if e.refs[uid] != 0 {
			continue
		}
		delete(e.refs, uid)
		if !e.done[uid] {
			e.done[uid] = true
			ready = append(ready, uid)
		}
	}
	e.zeroed = e.zeroed[:0]
	slices.Sort(ready)
	for _, uid := range ready {
		e.gov.OnEventComplete(uid)
		// Close the event's energy span after the governor reacts, so its
		// completion-time annotations land on the span; any configuration
		// change the governor makes here is zero-width in virtual time and
		// charges no energy to the closing span.
		if e.led != nil {
			e.led.EndEvent(uint64(uid))
		}
	}
}

// ---- VSync and frame production ----

func (e *Engine) needsFrameWork() bool {
	return e.dirty || len(e.rafQueue) > 0 || len(e.transitions) > 0
}

func (e *Engine) ensureVSync() {
	if e.vsyncSet {
		return
	}
	e.vsyncSet = true
	period := e.cost.VSyncPeriod
	now := e.simu.Now()
	next := sim.Time((int64(now)/int64(period) + 1) * int64(period))
	e.simu.At(next, "vsync", e.vsync)
}

func (e *Engine) vsyncTick() {
	e.vsyncSet = false
	if e.producing || e.mainBusy || len(e.mainQ) > 0 {
		// Renderer still busy (previous frame or pending callbacks):
		// skip this VSync; the frame is late, exactly how jank arises.
		if e.needsFrameWork() || e.producing || len(e.mainQ) > 0 {
			e.ensureVSync()
		}
		return
	}
	if !e.needsFrameWork() {
		return
	}
	e.beginFrame()
}

// frameWork is the state of the frame in production. producing guarantees
// one frame in flight at a time, serial or staged, so an engine keeps one
// record and reuses it, and its buffers, for every frame. Only what the
// frame's FrameResult keeps (its provenance, inputs and stage timings) is
// allocated per frame.
type frameWork struct {
	rafs  []rafRequest     // the animation callbacks this frame runs
	ticks []transitionTick // the transition interpolations due this frame
	// rafResult collects what one animation callback did; rafArg is its
	// timestamp argument.
	rafResult DispatchResult
	rafArg    [1]js.Value

	begin sim.Time
	// Set once the frame commits to rendering (produceFrame's dirty path).
	seq           int
	cfg           acmp.Config
	prov, dirtied Provenance
	msgs          []InputRecord
	nodes         int64
	mainWork      int64

	// Staged production (stage.go): the phase in flight, its shards still
	// running, and the phases done.
	stage   StageTiming
	pending int
	stages  []StageTiming
	shards  []int64
}

// beginFrame runs the BeginFrame sequence of Fig. 7: rAF callbacks, CSS
// transition ticks, then — if anything dirtied — style, layout, paint on
// the main thread and composite on the compositor thread.
func (e *Engine) beginFrame() {
	f := &e.fw
	// Take the pending rAF callbacks; new registrations during their
	// execution belong to the next frame. The queue and the record swap
	// buffers: the last frame's callbacks are done with.
	clear(f.rafs)
	f.rafs, e.rafQueue = e.rafQueue, f.rafs[:0]
	clear(f.ticks)
	f.ticks = e.collectTransitionTicks(f.ticks[:0])

	if !e.dirty && len(f.rafs) == 0 && len(f.ticks) == 0 {
		return
	}

	f.begin = e.simu.Now()
	e.producing = true
	// Open the frame's energy span at production start: the animation
	// callbacks below are frame work, and `producing` guarantees a single
	// open frame span at a time.
	if e.led != nil {
		e.led.BeginFrame()
	}

	// Phase 1: animation callbacks as one main-thread task.
	e.post(task{name: "begin-frame", run: e.beginRun, commit: e.beginCommit})
}

// runBeginFrame runs the frame's animation callbacks and transition ticks.
func (e *Engine) runBeginFrame() acmp.Work {
	f := &e.fw
	var ops int64
	for _, r := range f.rafs {
		e.curProv = r.prov
		f.rafResult = DispatchResult{}
		e.curDispatch = &f.rafResult
		f.rafArg[0] = js.Num(float64(e.simu.Now()) / float64(sim.Millisecond))
		n, _ := e.runScriptValue(r.cb, js.Undefined, f.rafArg[:])
		ops += n
		if f.rafResult.Dirtied {
			e.markDirty(r.prov)
		}
		e.curDispatch = nil
	}
	for _, tk := range f.ticks {
		e.curProv = tk.prov
		e.applyTransitionTick(tk)
		ops += 400 // interpolation bookkeeping
	}
	e.curProv = nil
	return e.cost.opsWork(ops)
}

// commitBeginFrame releases the animation callbacks' references, retires
// finished transitions and renders the frame.
func (e *Engine) commitBeginFrame() {
	f := &e.fw
	for _, r := range f.rafs {
		for _, id := range r.prov {
			e.ref(id, -1)
		}
	}
	e.finishTransitionTicks(f.ticks)
	e.produceFrame()
}

// produceFrame runs style → layout → paint → composite for the batched
// dirty state, then resolves frame latencies (Fig. 8 Part III).
func (e *Engine) produceFrame() {
	if !e.dirty {
		// Animations ran but nothing changed visually: no frame needed.
		if e.led != nil {
			e.led.EndFrame(0, e.cpu.Config())
		}
		e.producing = false
		e.checkComplete()
		if e.needsFrameWork() {
			e.ensureVSync()
		}
		return
	}

	f := &e.fw
	e.takeDirty()
	e.frameSeq++
	f.seq = e.frameSeq
	e.gov.OnFrameStart(f.seq, f.prov)
	// Record the configuration the governor chose for this frame (staged
	// per-stage hooks may vary it within the frame; this is the frame-level
	// decision).
	f.cfg = e.cpu.Config()
	f.nodes = int64(e.doc.CountNodes())

	// Staged pipeline: shard style/layout/paint across dedicated stage
	// threads with phase barriers (stage.go). The serial path below stays
	// byte-identical to the pre-staging engine.
	if len(e.stageThreads) > 0 {
		e.produceFrameStaged()
		return
	}

	f.mainWork = f.nodes * (e.cost.StyleCyclesPerNode + e.cost.LayoutCyclesPerNode)
	f.mainWork += e.paintCycles()
	e.post(task{name: "style", prov: f.prov, run: e.styleRun})
	e.post(task{name: "layout", prov: f.prov, run: e.layoutRun})
	e.post(task{name: "paint", prov: f.prov, run: e.paintRun, commit: e.paintCommit})
}

func (e *Engine) paintCycles() int64 {
	return e.cost.PaintBaseCycles + e.fw.nodes*e.cost.PaintCyclesPerNode
}

func (e *Engine) runStyle() acmp.Work {
	return e.cost.cyclesWork(e.fw.nodes * e.cost.StyleCyclesPerNode)
}

func (e *Engine) runLayout() acmp.Work {
	return e.cost.cyclesWork(e.fw.nodes * e.cost.LayoutCyclesPerNode)
}

func (e *Engine) runPaint() acmp.Work { return e.cost.cyclesWork(e.paintCycles()) }

// composite hands the painted frame, serial or staged, to the compositor
// thread, which runs partially on GPU.
func (e *Engine) composite() {
	e.compositorThread.Submit(acmp.Work{
		CyclesBig:    e.cost.CompositeCycles,
		CyclesLittle: int64(float64(e.cost.CompositeCycles) * e.cost.MicroArchRatio),
		Indep:        e.cost.CompositeGPUTime,
	}, e.composited)
}

// takeDirty moves the dirty state into the frame about to be produced:
// later mutations belong to the next frame. The frame's provenance is the
// dirtied set plus the inputs whose messages it delivers. The dirty set and
// message queue swap buffers with the record, whose last frame is done.
func (e *Engine) takeDirty() {
	f := &e.fw
	clear(f.msgs)
	f.msgs, e.msgQueue = e.msgQueue, f.msgs[:0]
	f.dirtied, e.dirtyProv = e.dirtyProv, f.dirtied[:0]
	e.dirty = false
	f.prov = f.dirtied.Clone()
	for _, m := range f.msgs {
		f.prov.Add(m.UID)
	}
}

// frameComplete records the frame in production when it reaches the
// display (the compositor's completion callback) and notifies the governor
// and observers. They receive a pointer
// to the stored FrameResult, valid only for the duration of the callback:
// the results timeline may move as it grows, so none may retain it.
func (e *Engine) frameComplete() {
	f := &e.fw
	end := e.simu.Now()
	e.results = append(e.results, FrameResult{
		Seq:               f.seq,
		Begin:             f.begin,
		End:               end,
		ProductionLatency: end.Sub(f.begin),
		Provenance:        f.prov,
		Config:            f.cfg,
		MainWork:          f.mainWork,
		Stages:            f.stages,
	})
	fr := &e.results[len(e.results)-1]
	f.prov, f.stages = nil, nil
	for _, m := range f.msgs {
		fr.Inputs = append(fr.Inputs, InputLatency{Input: m, Latency: end.Sub(m.Start)})
		e.ref(m.UID, -1)
	}
	for _, uid := range f.dirtied {
		e.ref(uid, -1)
	}
	e.producing = false
	// Post-frame housekeeping (cache update, GC, off-screen raster): not
	// attributed to any input and not QoS-critical, so it runs with empty
	// provenance — an annotation-aware governor will have demoted by then.
	// Browsers defer this to idle: it is skipped while an animation still
	// needs the main thread.
	if e.cost.PostFrameCycles > 0 && e.cost.PostFrameEvery > 0 &&
		fr.Seq%e.cost.PostFrameEvery == 0 && !e.needsFrameWork() {
		e.post(task{name: "post-frame-housekeeping", run: e.housekeepRun})
	}
	e.gov.OnFrameEnd(fr)
	for _, fn := range e.onFrame {
		fn(fr)
	}
	// Close the frame's energy span after OnFrameEnd so the governor's
	// feedback annotations land on it; its rescheduling here is zero-width
	// in virtual time and charges nothing to the closing span.
	if e.led != nil {
		e.led.EndFrame(fr.Seq, fr.Config)
	}
	e.checkComplete()
	if e.needsFrameWork() {
		e.ensureVSync()
	}
}

func (e *Engine) runHousekeeping() acmp.Work { return e.cost.cyclesWork(e.cost.PostFrameCycles) }
