// Command greenbench regenerates every table and figure of the paper's
// evaluation section against the simulated substrate and prints a plain-
// text report (the data recorded in EXPERIMENTS.md).
//
// The report's cells run -workers at a time (0 = GOMAXPROCS, 1 =
// sequential), each on an isolated simulated device, and merge
// deterministically, so the report bytes are the same at any worker count.
//
// With -trace, greenbench instead runs a single (app, governor) cell and
// writes its per-frame/per-event energy-attribution timeline as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto:
//
//	greenbench -trace out.json [-trace-app Name] [-trace-kind GreenWeb-U]
//
// With -faults, greenbench runs a deterministic fault sweep instead of the
// report: every catalog app under Perf, GreenWeb-I, and GreenWeb-U with the
// given fault spec active, streamed as one NDJSON row per cell (fault
// counters, retry provenance, quarantine state). The spec is "default", an
// inline JSON object, or @file; a fixed -fault-seed makes the output
// byte-reproducible. -trace honors -faults too, tracing one faulted run.
//
// -stage-workers N renders every execution — the report's cells, the fault
// sweep's jobs, and the -trace run — on the staged pipeline with N stage
// threads (0 or 1 = serial frame production, the default).
//
// Profiling and observability (see EXPERIMENTS.md):
//
//   - -cpuprofile f / -memprofile f write standard pprof profiles of the
//     run for `go tool pprof`;
//   - -no-obs disables the observability layer (metrics counters and the
//     per-frame decision recorder). It is out-of-band: report and sweep
//     bytes are identical with obs on or off (CI diffs them).
//
// Usage:
//
//	greenbench [-o report.txt] [-workers N] [-stage-workers N] [-no-obs]
//	greenbench [-cpuprofile cpu.pb] [-memprofile mem.pb] ...
//	greenbench -faults default|JSON|@file [-fault-seed S] [-o rows.ndjson]
//	greenbench -trace out.json [-trace-app NAME] [-trace-kind KIND]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/obs"
)

func main() {
	os.Exit(run())
}

// run carries main's body so deferred profile/file finalizers execute
// before the process exits (os.Exit skips defers when called directly).
func run() int {
	out := flag.String("o", "", "write the report to a file instead of stdout")
	workers := flag.Int("workers", 0, "executions run at once (0 = GOMAXPROCS, 1 = sequential)")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON for one run and exit (skips the report)")
	traceApp := flag.String("trace-app", "", "application for -trace (default: first catalog app)")
	traceKind := flag.String("trace-kind", string(harness.GreenWebU), "governor kind for -trace")
	faultsArg := flag.String("faults", "", `fault spec: "default", inline JSON, or @file (runs the fault sweep instead of the report)`)
	faultSeed := flag.Int64("fault-seed", 0, "override the fault spec's seed (0 = keep the spec's own)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to a file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to a file (go tool pprof)")
	noObs := flag.Bool("no-obs", false, "disable metrics and decision recording (output must be identical)")
	stageWorkers := flag.Int("stage-workers", 0, "render-pipeline stage threads per engine (0 or 1 = serial frame production)")
	flag.Parse()

	if *noObs {
		obs.SetEnabled(false)
	}
	if !harness.ValidStageWorkers(*stageWorkers) {
		fmt.Fprintf(os.Stderr, "greenbench: -stage-workers %d out of range [0, %d]\n", *stageWorkers, browser.MaxStageWorkers)
		return 1
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greenbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "greenbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "greenbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "greenbench:", err)
			}
		}()
	}

	spec, err := parseFaultSpec(*faultsArg, *faultSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenbench:", err)
		return 1
	}

	// The -trace run and the fault sweep execute in ctx; the report's
	// suite stamps the count on its cells itself.
	ctx := harness.WithStageWorkers(context.Background(), *stageWorkers)

	if *trace != "" {
		if err := writeTrace(ctx, *trace, *traceApp, *traceKind, spec); err != nil {
			fmt.Fprintln(os.Stderr, "greenbench:", err)
			return 1
		}
		return 0
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "greenbench:", err)
			return 1
		}
		defer f.Close()
		w = f
	}

	if spec != nil {
		if err := faultSweep(ctx, w, spec, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "greenbench:", err)
			return 1
		}
		return 0
	}

	suite := harness.NewSuite()
	suite.SetStageWorkers(*stageWorkers)
	suite.SetWorkers(*workers)
	if err := harness.RenderAll(w, suite); err != nil {
		fmt.Fprintln(os.Stderr, "greenbench:", err)
		return 1
	}
	return 0
}

// parseFaultSpec resolves the -faults argument: "" (no faults), "default"
// (the stock spec), an inline JSON object, or @file. A non-zero seed
// overrides the spec's own.
func parseFaultSpec(arg string, seed int64) (*faults.Spec, error) {
	if arg == "" {
		return nil, nil
	}
	var spec *faults.Spec
	switch {
	case arg == "default":
		spec = faults.Default(seed)
	case strings.HasPrefix(arg, "@"):
		data, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, fmt.Errorf("-faults: %w", err)
		}
		spec = new(faults.Spec)
		if err := json.Unmarshal(data, spec); err != nil {
			return nil, fmt.Errorf("-faults %s: %w", arg, err)
		}
	default:
		spec = new(faults.Spec)
		if err := json.Unmarshal([]byte(arg), spec); err != nil {
			return nil, fmt.Errorf("-faults: %w (want \"default\", JSON, or @file)", err)
		}
	}
	if seed != 0 {
		spec.Seed = seed
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// faultSweep fans every catalog app × headline governor across the fleet
// with the fault spec active and streams the deterministic NDJSON merge.
func faultSweep(ctx context.Context, w io.Writer, spec *faults.Spec, workers int) error {
	kinds := []harness.Kind{harness.Perf, harness.GreenWebI, harness.GreenWebU}
	var jobs []fleet.Job
	for _, name := range apps.Names() {
		for _, k := range kinds {
			jobs = append(jobs, fleet.Job{App: name, Kind: k, Phase: fleet.Full, Faults: spec})
		}
	}
	c := fleet.New(fleet.Options{Workers: workers, MaxAttempts: 3})
	defer c.Close()
	// The stage-worker count rides on ctx rather than Job.StageWorkers:
	// rows echo a job's own count, and these rows carry no stage column.
	return fleet.WriteResults(w, c.RunSweep(ctx, jobs), true)
}

// writeTrace runs one full-interaction cell (optionally faulted) and exports
// its attribution timeline as Chrome trace-event JSON.
func writeTrace(ctx context.Context, path, appName, kindName string, spec *faults.Spec) error {
	if appName == "" {
		appName = apps.Names()[0]
	}
	app, ok := apps.ByName(appName)
	if !ok {
		return fmt.Errorf("unknown app %q (have %v)", appName, apps.Names())
	}
	kind, err := harness.ParseKind(kindName)
	if err != nil {
		return err
	}
	run, err := harness.ExecuteCell(ctx, harness.Cell{App: app, Kind: kind, Full: true, Faults: spec})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	proc := ledger.Process{
		PID:   1,
		Name:  fmt.Sprintf("%s/%s", app.Name, kind),
		Spans: run.Spans,
		Marks: run.ConfigMarks,
	}
	if err := ledger.WriteTrace(f, proc); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "greenbench: wrote %d spans (%.3f J frames, %.3f J idle) to %s\n",
		len(run.Spans), float64(run.FrameEnergy), float64(run.IdleEnergy), path)
	return nil
}
