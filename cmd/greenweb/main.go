// Command greenweb runs one evaluation application (or an HTML file) under
// a chosen CPU policy and reports energy, QoS violations, configuration
// residency, and switching.
//
// Usage:
//
//	greenweb -app MSN -policy greenweb-i [-trace full|micro]
//	greenweb -file page.html -policy interactive
//
// -policy takes any governor of the evaluation by name, in any case (perf,
// interactive, ondemand, powersave, greenweb-i, greenweb-u, ebs, ...), for
// catalog applications and files alike, except GreenWeb-I-staged: greenweb
// renders serially, and greenbench -stage-workers or a greensrv sweep's
// stage_workers runs the staged runtime.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/sim"

	greenweb "github.com/wattwiseweb/greenweb"
)

func main() {
	var kinds []string
	for _, k := range harness.Kinds() {
		if _, err := greenweb.ParsePolicy(string(k)); err == nil {
			kinds = append(kinds, string(k))
		}
	}
	appName := flag.String("app", "", "evaluation application name (see -list)")
	file := flag.String("file", "", "run an HTML file instead of a catalog application")
	policy := flag.String("policy", "greenweb-i", "CPU policy, in any case: "+strings.Join(kinds, "|"))
	traceKind := flag.String("trace", "full", "which interaction trace to replay: full|micro (catalog apps)")
	list := flag.Bool("list", false, "list catalog applications and exit")
	framesOut := flag.String("frames", "", "write the frame timeline as JSON to this file")
	flag.Parse()

	if *list {
		for _, a := range apps.All() {
			fmt.Printf("%-11s  %-8s %-10s %v\n", a.Name, a.Interaction, a.QoSType, a.QoSTarget)
		}
		return
	}

	p, err := greenweb.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *file != "" {
		runFile(*file, p)
		return
	}

	kind := harness.Kind(p.Name())
	app, ok := apps.ByName(*appName)
	if !ok {
		fail("unknown app %q (use -list)", *appName)
	}
	// One run of either trace: the full interaction, or a single
	// microbenchmark repetition.
	cell, trace := harness.Cell{App: app, Kind: kind, Repeats: 1}, app.Micro
	switch *traceKind {
	case "full":
		cell.Full, trace = true, app.Full
	case "micro":
	default:
		fail("unknown trace kind %q", *traceKind)
	}

	run, err := harness.ExecuteCell(context.Background(), cell)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("app:          %s (%s, %s %v)\n", app.Name, app.Interaction, app.QoSType, app.QoSTarget)
	fmt.Printf("policy:       %s\n", kind)
	fmt.Printf("trace:        %s (%d events over %v)\n", trace.Name, trace.Events(), trace.Duration())
	fmt.Printf("load latency: %v\n", run.LoadLatency)
	fmt.Printf("frames:       %d\n", run.Frames)
	fmt.Printf("energy:       %.3f J (interaction), %.3f J (total)\n", float64(run.Energy), float64(run.TotalEnergy))
	fmt.Printf("violations:   %.2f%% (imperceptible), %.2f%% (usable)\n", run.ViolationI, run.ViolationU)
	fmt.Printf("switches:     %d frequency, %d migrations\n", run.Switches.FreqSwitches, run.Switches.Migrations)
	fmt.Println("residency:")
	printResidency(run.Residency)

	if *framesOut != "" {
		data, err := browser.ExportFrames(run.FrameResults)
		if err != nil {
			fail("%v", err)
		}
		if err := os.WriteFile(*framesOut, data, 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("frame timeline written to %s (%d frames)\n", *framesOut, len(run.FrameResults))
	}
}

func printResidency(res map[acmp.Config]sim.Duration) {
	var total float64
	for _, d := range res {
		total += d.Seconds()
	}
	if total == 0 {
		return
	}
	cfgs := make([]acmp.Config, 0, len(res))
	for cfg := range res {
		cfgs = append(cfgs, cfg)
	}
	acmp.SortConfigs(cfgs)
	for _, cfg := range cfgs {
		fmt.Printf("  %-14s %5.1f%%\n", cfg.String(), res[cfg].Seconds()/total*100)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "greenweb: "+format+"\n", args...)
	os.Exit(1)
}

func runFile(path string, p greenweb.Policy) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	s, err := greenweb.Open(string(data), p)
	if err != nil {
		fail("%v", err)
	}
	s.Settle()
	if err := s.Stop(); err != nil {
		fail("%v", err)
	}
	fmt.Printf("policy:       %s\n", p.Name())
	fmt.Printf("load latency: %v\n", s.LoadLatency())
	fmt.Printf("frames:       %d\n", len(s.Frames()))
	fmt.Printf("energy:       %.3f J\n", s.Energy())
	fmt.Printf("violations:   %.2f%% (I), %.2f%% (U)\n",
		s.Violation(greenweb.Imperceptible), s.Violation(greenweb.Usable))
	fmt.Println("annotations:")
	for _, a := range s.Annotations() {
		fmt.Println("  " + a)
	}
	res := s.Residency()
	keys := make([]string, 0, len(res))
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("residency:")
	for _, k := range keys {
		fmt.Printf("  %-14s %5.1f%%\n", k, res[k]*100)
	}
}
