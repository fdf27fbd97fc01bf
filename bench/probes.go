package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/core"
	"github.com/wattwiseweb/greenweb/internal/css"
	"github.com/wattwiseweb/greenweb/internal/dom"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/governor"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/html"
	"github.com/wattwiseweb/greenweb/internal/js"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/replay"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// cellSpec is one harness execution: an app under a governor on a trace,
// repeated with models carried across repetitions, optionally faulted and
// with a stage-worker override (0 = default pipeline).
type cellSpec struct {
	app     *apps.App
	kind    harness.Kind
	phase   string
	trace   *replay.Trace
	repeats int
	faults  *faults.Spec
	workers int
}

// execute runs the cell exactly as a fleet job or the SPA child does.
func (c cellSpec) execute(ctx context.Context) (*harness.Run, error) {
	if c.workers > 0 {
		ctx = harness.WithStageWorkers(ctx, c.workers)
	}
	return harness.ExecuteFaultedRepeatedContext(ctx, c.app, c.kind, c.trace, c.repeats, c.faults)
}

// probeInputs are what a workload feeds the in-process layer probes: its
// pages, and its cells, which make up ops operations of the workload.
type probeInputs struct {
	pages    []*apps.App
	ops      float64
	runCells func(run func(cellSpec) (*harness.Run, error)) error
}

func runSpecs(cells []cellSpec) func(func(cellSpec) (*harness.Run, error)) error {
	return func(run func(cellSpec) (*harness.Run, error)) error {
		for _, c := range cells {
			if _, err := run(c); err != nil {
				return err
			}
		}
		return nil
	}
}

// probeMin is how long each layer probe repeats over the workload's pages.
const probeMin = 100 * time.Millisecond

// timed repeats pass until probeMin has elapsed (and at least twice) and
// returns the mean time per item in nanoseconds; pass returns how many
// items it handled.
func timed(rec *recorder, name string, pass func() int) float64 {
	return timedParts(rec, name, func() (int, time.Duration) {
		t0 := time.Now()
		n := pass()
		return n, time.Since(t0)
	})
}

// timedParts is timed for a pass that does untimed preparation: pass
// returns its items and the time spent on the measured part alone.
func timedParts(rec *recorder, name string, pass func() (int, time.Duration)) float64 {
	t0 := time.Now()
	var spent time.Duration
	items, passes := 0, 0
	for passes < 2 || time.Since(t0) < probeMin {
		n, d := pass()
		items += n
		spent += d
		passes++
	}
	rec.add(-1, 0, name, "probe", t0, time.Since(t0), map[string]string{
		"items": fmt.Sprint(items), "passes": fmt.Sprint(passes), "measured_us": fmt.Sprint(spent.Microseconds()),
	})
	if items == 0 {
		return 0
	}
	return float64(spent) / float64(items)
}

// page is one workload page with the parses the probes reuse.
type page struct {
	app     *apps.App
	doc     *dom.Document
	styles  []string
	scripts []string
	sheets  []*css.Stylesheet
	targets []*dom.Listener // listeners the page's scripts registered
}

func us(nanos float64) float64 { return nanos / 1e3 }

// probeLayers times calls into each layer's public functions on the
// workload's own pages, and fills the per-layer metrics it measures.
func probeLayers(in probeInputs, rec *recorder, frames float64, m map[string]float64) error {
	pages := make([]*page, len(in.pages))
	nodes := 0
	for i, a := range in.pages {
		p := &page{app: a, doc: html.Parse(a.HTML())}
		p.styles, p.scripts = html.StyleSources(p.doc), html.ScriptSources(p.doc)
		for _, src := range p.styles {
			sh, _ := css.Parse(src)
			p.sheets = append(p.sheets, sh)
		}
		pages[i] = p
		nodes += p.doc.CountNodes()
	}
	m["dom.nodes"] = float64(nodes) / float64(len(pages))

	m["html.parse_us"] = us(timed(rec, "html.Parse", func() int {
		for _, p := range pages {
			html.Parse(p.app.HTML())
		}
		return len(pages)
	}))
	m["dom.clone_us"] = us(timed(rec, "dom.Clone", func() int {
		for _, p := range pages {
			p.doc.Clone()
		}
		return len(pages)
	}))
	m["css.parse_us"] = us(timed(rec, "css.Parse", func() int {
		for _, p := range pages {
			for _, src := range p.styles {
				css.Parse(src)
			}
		}
		return len(pages)
	}))
	m["css.cascade_us"] = us(timed(rec, "css.Cascade", func() int {
		for _, p := range pages {
			css.Cascade(p.doc.Clone(), p.sheets...)
		}
		return len(pages)
	}))
	var compileErr error
	m["js.compile_us"] = us(timed(rec, "js.Compile", func() int {
		for _, p := range pages {
			for _, src := range p.scripts {
				prog, err := js.Parse(src)
				if err != nil {
					compileErr = fmt.Errorf("%s: %w", p.app.Name, err)
					continue
				}
				js.Compile(prog)
			}
		}
		return len(pages)
	}))
	if compileErr != nil {
		return compileErr
	}
	var loadErr error
	m["browser.load_us"] = us(timed(rec, "browser.LoadPage", func() int {
		for _, p := range pages {
			e, err := loadPage(p.app)
			if err != nil {
				loadErr = err
				continue
			}
			p.targets = e.Doc().ListenerTargets()
		}
		return len(pages)
	}))
	if loadErr != nil {
		return loadErr
	}
	m["css.lookup_ns"] = timed(rec, "css.AnnotationSet.Lookup", func() int {
		n := 0
		for _, p := range pages {
			as := css.NewAnnotationSet(p.sheets...)
			for _, l := range p.targets {
				as.Lookup(l.Node, l.Event)
				n++
			}
		}
		return n
	})

	models := make([]*core.Model, len(pages))
	pm := acmp.DefaultPower()
	for i, p := range pages {
		ti := p.app.QoSTarget.TI
		models[i] = core.NewModel(p.app.Name, qos.Annotation{Type: p.app.QoSType, Target: p.app.QoSTarget})
		models[i].RecordProfile(ti/2, acmp.PeakConfig())
		models[i].RecordProfile(3*ti, acmp.LowestConfig())
	}
	m["core.select_ns"] = timed(rec, "core.Model.Select", func() int {
		for i, md := range models {
			md.Invalidate()
			md.Select(pages[i].app.QoSTarget.TI, pm, 0.9)
		}
		return len(models)
	})

	const events = 4096
	m["sim.event_ns"] = timed(rec, "sim.Simulator", func() int {
		s := sim.New()
		for i := 0; i < events; i++ {
			s.At(sim.Time(i*37%events)*sim.Time(sim.Microsecond), "probe", func() {})
		}
		s.Run()
		return events
	})

	// The ledger probes replay as many frames as the workload's cells
	// produce on average.
	nFrames := max(int(frames), 1)
	m["ledger.frame_ns"] = timed(rec, "ledger.Frame", func() int {
		s := sim.New()
		led := ledger.New(acmp.NewCPU(s, pm))
		for i := 1; i <= nFrames; i++ {
			led.BeginFrame()
			s.RunUntil(s.Now().Add(4 * sim.Millisecond))
			led.EndFrame(i, acmp.PeakConfig())
			s.RunUntil(s.Now().Add(12 * sim.Millisecond))
		}
		return nFrames
	})
	var checkErr error
	m["ledger.check_us"] = us(timedParts(rec, "ledger.Check", func() (int, time.Duration) {
		s := sim.New()
		l := ledger.New(acmp.NewCPU(s, pm))
		for i := 1; i <= nFrames; i++ {
			l.BeginFrame()
			s.RunUntil(s.Now().Add(4 * sim.Millisecond))
			l.EndFrame(i, acmp.PeakConfig())
		}
		t0 := time.Now()
		l.Finish()
		if err := l.Check(); err != nil {
			checkErr = err
		}
		return 1, time.Since(t0)
	}))
	return checkErr
}

// gcMetrics are the Go runtime metrics the cell probe reads.
var gcMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGC() [4]float64 {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, name := range gcMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [4]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// mb is the unit of every memory metric: 2^20 bytes.
const mb = 1 << 20

// probeCells runs the workload's cells in-process, one at a time, and fills
// the harness and gc metrics. It returns the summed cell time per op.
func probeCells(in probeInputs, rec *recorder, m map[string]float64) (time.Duration, error) {
	runtime.GC()
	var peak uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			peak = max(peak, heap[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	before := readGC()
	var total time.Duration
	var cells, frames, spans, decisions, produced float64
	err := in.runCells(func(c cellSpec) (*harness.Run, error) {
		t0 := time.Now()
		run, err := c.execute(context.Background())
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		rec.add(-1, 0, c.app.Name+"/"+string(c.kind), "cell", t0, d, map[string]string{
			"phase": c.phase, "repeats": fmt.Sprint(c.repeats), "stage_workers": fmt.Sprint(c.workers),
			"frames": fmt.Sprint(run.Frames),
		})
		total += d
		cells++
		frames += float64(run.Frames)
		spans += float64(len(run.Spans))
		decisions += float64(len(run.Decisions))
		produced += float64(len(run.FrameResults) * c.repeats)
		return run, nil
	})
	after := readGC()
	close(stop)
	wg.Wait()
	if err != nil {
		return 0, err
	}
	if cells == 0 {
		return 0, fmt.Errorf("workload has no cells")
	}
	m["harness.cell_ms"] = float64(total) / cells / float64(time.Millisecond)
	m["harness.frames"] = frames / cells
	m["harness.spans"] = spans / cells
	m["harness.decisions"] = decisions / cells
	m["harness.us_per_frame"] = us(float64(total)) / produced
	gcCPU, allCPU, idle := after[1]-before[1], after[2]-before[2], after[3]-before[3]
	m["gc.cpu_frac"] = gcCPU / (allCPU - idle)
	m["gc.alloc_mb_per_op"] = (after[0] - before[0]) / in.ops / mb
	m["gc.heap_peak_mb"] = float64(peak) / mb
	return time.Duration(float64(total) / in.ops), nil
}

// loadPage loads a page on a fresh simulated device and runs the load to
// quiescence: parse, script startup, initial cascade and first frame.
func loadPage(a *apps.App) (*browser.Engine, error) {
	s := sim.New()
	cpu := acmp.NewCPU(s, acmp.DefaultPower())
	e := browser.New(s, cpu, nil)
	e.SetGovernor(governor.NewPerf())
	if _, err := e.LoadPage(a.HTML()); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	for limit := s.Now().Add(60 * sim.Second); s.Now() < limit; {
		s.RunUntil(s.Now().Add(20 * sim.Millisecond))
		if e.Quiescent() && !cpu.Busy() {
			return e, nil
		}
	}
	return nil, fmt.Errorf("%s: page load did not settle", a.Name)
}
