// Command bench is the repository's benchmark: it measures the programs as
// users run them, end to end, and each layer from outside, by timing calls
// into the layers' public functions and reading the surfaces the programs
// already expose. It reports host wall-clock time only; the simulator's
// modeled time is checked for exact equality and never scored.
//
// Run it from the repository root:
//
//	bash bench/run.sh [-workload NAME|all] [-seed S] [-seconds N] [-trace] [-runs R] [-o FILE]
//	bash bench/run.sh compare A.json B.json
//
// See README.md for the workloads, the metrics and their units.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of the programs
// sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of a traced run. Layers a workload does not
// use read 0 there: its ops spend no time and do no work in them.
var perLayer = []metricDef{
	{"html.parse_us", "us"},
	{"dom.clone_us", "us"},
	{"dom.nodes", "count"},
	{"css.parse_us", "us"},
	{"css.cascade_us", "us"},
	{"css.lookup_ns", "ns"},
	{"js.compile_us", "us"},
	{"browser.load_us", "us"},
	{"core.select_ns", "ns"},
	{"sim.event_ns", "ns"},
	{"ledger.frame_ns", "ns"},
	{"ledger.check_us", "us"},
	{"harness.cell_ms", "ms"},
	{"harness.cell_share", "ratio"},
	{"harness.load_share", "ratio"},
	{"harness.frames", "count"},
	{"harness.spans", "count"},
	{"harness.decisions", "count"},
	{"harness.us_per_frame", "us"},
	{"gc.cpu_frac", "ratio"},
	{"gc.alloc_mb_per_op", "MB"},
	{"gc.heap_peak_mb", "MB"},
	{"http.submit_share", "ratio"},
	{"http.first_row_share", "ratio"},
	{"http.stream_share", "ratio"},
	{"fleet.admission_share", "ratio"},
	{"shard.queue_wait_share", "ratio"},
	{"shard.dispatch_share", "ratio"},
	{"fleet.execute_share", "ratio"},
	{"shard.wire_share", "ratio"},
	{"trace.coverage_frac", "ratio"},
	{"shard.steals_per_op", "count"},
	{"store.fsyncs_per_op", "count"},
	{"store.fsync_share", "ratio"},
	{"store.wal_kb_per_op", "KB"},
	{"fleet.retries_per_kjob", "count"},
	{"proc.system_cpu_ms", "ms"},
	{"proc.client_cpu_ms", "ms"},
	{"proc.node_cpu_share", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// system is one fresh instance of the programs under test.
type system interface {
	// op performs one operation and checks its output.
	op(ctx context.Context, o *opCtx) error
	// cpu is the CPU time the system's processes have used so far, and the
	// part of it used by greennode workers.
	cpu() (total, node time.Duration, err error)
	// counters scrapes the server's /metrics; nil for systems without one.
	counters() (map[string]float64, error)
	// rss is the peak resident set, in bytes, of the system's processes so
	// far, summed over the processes that run at the same time.
	rss() (int64, error)
	// stop ends every process and waits until each has been reaped.
	stop()
}

// workload is one set of inputs and the system it drives.
type workload struct {
	name    string
	clients int // concurrent closed-loop clients, capped at nproc
	// fixedOps is the work rss_peak_mb is read at: the peak after this
	// many ops of the window, which an untraced window always completes.
	// Servers keep every sweep, so their peak at a fixed time would grow
	// with the host's speed.
	fixedOps int
	start    func(*config, *checker) (system, error)
	inputs   func(*config) probeInputs
}

var workloads = []workload{
	{"report", 1, 2 * minTail, startReport, reportInputs},
	{"spa", 1, 2 * minTail, startSPA, spaInputs},
	{"sweep", 2, 1000, startSweep, sweepInputs(localShape)},
	{"sweep-remote", 2, 50, startSweepRemote, sweepInputs(remoteShape)},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A run sets its system up at least setupsPerRun times and until
// minSetupTime has passed, so quick set-ups are repeated more; setup_s is
// the median, which a few slow process starts cannot move.
const (
	setupsPerRun = 9
	minSetupTime = 500 * time.Millisecond
)

// config is one run of one workload.
type config struct {
	bin, tmp  string
	workload  workload
	clients   int
	seed      int64
	window    time.Duration
	trace     bool
	setups    int    // least set-ups per run; setup_s is their median
	minOps    int    // an untraced window runs at least this many ops; rss_peak_mb is read after them
	reportRef string // the pinned report the report workload compares against
	traceOut  string
}

// result is a run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opCtx carries one op's tracing state in and its phases out.
type opCtx struct {
	warmup bool // the set-up's op, not measured
	traced bool // record the op's phases as spans
	sample bool // also read the program's own trace of the op
	phases []phaseSpan
	http   *httpPhases
	chain  *chain
}

type phaseSpan struct {
	name  string
	start time.Time
	dur   time.Duration
}

type httpPhases struct{ submit, firstRow, stream time.Duration }

func (o *opCtx) phase(name string, start time.Time, d time.Duration) {
	if o.traced {
		o.phases = append(o.phases, phaseSpan{name, start, d})
	}
}

// recorder keeps the benchmark's spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []trace.Span
}

// add records a span; a nil recorder records nothing.
func (r *recorder) add(job int, parent uint64, name, cat string, start time.Time, d time.Duration, attrs map[string]string) uint64 {
	if r == nil {
		return 0
	}
	id := trace.NewSpanID()
	sp := trace.Span{ID: id, Parent: parent, Name: name, Cat: cat, Job: job, Node: "bench",
		PID: os.Getpid(), StartUS: start.UnixMicro(), DurUS: d.Microseconds(), Attrs: attrs}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
	return id
}

func (r *recorder) write(path, name string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteFleetTrace(f, name, r.spans, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sample is one measured op.
type sample struct {
	latency time.Duration // the op itself
	cycle   time.Duration // the op plus the client's tracing work after it
	end     time.Time
	traced  bool
	http    *httpPhases
	chain   *chain
}

// window drives the system closed-loop from cfg.clients clients until the
// window has passed and, for an untraced run, at least cfg.minOps ops ran;
// it reads the system's peak resident set once cfg.minOps ops completed.
// In a traced run the clients trace every second op and read the program's
// own trace of every tenth.
func window(cfg *config, sys system, rec *recorder, errs *errLog) (samples []sample, start time.Time, rss int64, rssErr error) {
	start = time.Now()
	var started atomic.Int64
	minOps := int64(cfg.minOps)
	if cfg.trace {
		minOps = 4 // at least two ops of each kind
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if n := started.Add(1); n > minOps && time.Since(start) >= cfg.window {
					return
				}
				o := &opCtx{traced: cfg.trace && i%2 == 1}
				o.sample = o.traced && i%10 == 9
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				t0 := time.Now()
				err := sys.op(ctx, o)
				lat := time.Since(t0)
				cancel()
				if err != nil {
					errs.add(err)
				}
				if o.traced {
					id := rec.add(client, 0, "op", cfg.workload.name, t0, lat, map[string]string{"op": fmt.Sprint(i)})
					for _, p := range o.phases {
						rec.add(client, id, p.name, "phase", p.start, p.dur, nil)
					}
				}
				s := sample{latency: lat, end: time.Now(), traced: o.traced, http: o.http, chain: o.chain}
				s.cycle = s.end.Sub(t0)
				mu.Lock()
				samples = append(samples, s)
				if len(samples) == cfg.minOps {
					rss, rssErr = sys.rss()
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return samples, start, rss, rssErr
}

// errLog counts op failures and keeps the first few messages.
type errLog struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (e *errLog) add(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.n++
	if len(e.first) < 5 {
		e.first = append(e.first, err.Error())
	}
}

// checker holds the first output seen for each input of a run; every later
// output for the same input must match it byte for byte.
type checker struct {
	mu    sync.Mutex
	first map[string]string
}

func newChecker() *checker { return &checker{first: make(map[string]string)} }

func (c *checker) same(key string, got []byte) error {
	sum := sha256.Sum256(got)
	h := hex.EncodeToString(sum[:])
	c.mu.Lock()
	defer c.mu.Unlock()
	want, ok := c.first[key]
	if !ok {
		c.first[key] = h
		return nil
	}
	if want != h {
		return fmt.Errorf("output for %s differs from the first one seen in this run", key)
	}
	return nil
}

// setUp starts fresh systems, each followed by one warm-up op, at least
// cfg.setups times and until minSetupTime has passed, and keeps the last.
// The earlier ones are stopped at once.
func setUp(cfg *config, chk *checker, errs *errLog) (system, []float64, error) {
	var times []float64
	var spent float64
	for i := 0; ; i++ {
		t0 := time.Now()
		sys, err := cfg.workload.start(cfg, chk)
		if err != nil {
			return nil, nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err = sys.op(ctx, &opCtx{warmup: true})
		cancel()
		times = append(times, time.Since(t0).Seconds())
		spent += times[i]
		if err != nil {
			errs.add(fmt.Errorf("warm-up: %w", err))
		}
		if i+1 >= cfg.setups && spent >= minSetupTime.Seconds() {
			return sys, times, nil
		}
		sys.stop()
	}
}

// runWorkload performs one run and returns its result and a human-readable
// account of it.
func runWorkload(cfg *config) (*result, []string, error) {
	chk := newChecker()
	errs := &errLog{}
	// Only end-to-end times are rescaled; a traced run leaves the probe out
	// of its CPU accounting.
	var speed *speedProbe
	if !cfg.trace {
		speed = startSpeedProbe()
		defer speed.end()
	}
	sys, setupTimes, err := setUp(cfg, chk, errs)
	if err != nil {
		return nil, nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			sys.stop()
		}
	}()
	var rec *recorder
	if cfg.trace {
		rec = &recorder{}
	}
	cpu0, node0, err := sys.cpu()
	if err != nil {
		return nil, nil, err
	}
	ctr0, err := sys.counters()
	if err != nil {
		return nil, nil, err
	}
	self0 := selfCPU()
	samples, start, rss, err := window(cfg, sys, rec, errs)
	if err != nil && !cfg.trace {
		return nil, nil, fmt.Errorf("reading the resident set: %w", err)
	}
	self1 := selfCPU()
	cpu1, node1, err := sys.cpu()
	if err != nil {
		return nil, nil, err
	}
	ctr1, err := sys.counters()
	if err != nil {
		return nil, nil, err
	}
	sys.stop()
	stopped = true

	res := &result{Attempted: len(setupTimes) + len(samples), Failed: errs.n, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	var notes []string
	for _, e := range errs.first {
		notes = append(notes, "failed op: "+e)
	}
	var end time.Time
	var lat []float64
	for _, s := range samples {
		if s.end.After(end) {
			end = s.end
		}
		lat = append(lat, float64(s.latency)/float64(time.Millisecond))
	}
	ops := float64(len(samples))

	if !cfg.trace {
		p50, err := percentile(lat, 50)
		if err != nil {
			return nil, nil, fmt.Errorf("latency_p50_ms: %w", err)
		}
		passMS, passes := speed.end()
		scale := refKernelMS / passMS
		raw := map[string]float64{
			"setup_s":        median(setupTimes),
			"ops_per_s":      ops / end.Sub(start).Seconds(),
			"latency_p50_ms": p50,
		}
		v := map[string]float64{
			"setup_s":        raw["setup_s"] * scale,
			"ops_per_s":      raw["ops_per_s"] / scale,
			"latency_p50_ms": raw["latency_p50_ms"] * scale,
			"rss_peak_mb":    float64(rss) / mb,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{v[d.name], d.unit}
		}
		notes = append(notes, fmt.Sprintf("host speed: probe pass %.4f ms (median of %d), reference %.1f ms, so times x %.4f; unscaled setup_s %.6g s, ops_per_s %.6g 1/s, latency_p50_ms %.6g ms",
			passMS, passes, refKernelMS, scale, raw["setup_s"], raw["ops_per_s"], raw["latency_p50_ms"]))
		notes = append(notes, fmt.Sprintf("%d ops in %.1f s, %d clients; resident set read after %d ops; %d set-ups, unscaled median %.4g s",
			len(samples), end.Sub(start).Seconds(), cfg.clients, cfg.minOps, len(setupTimes), raw["setup_s"]))
		for _, p := range []float64{90, 99} {
			if v, err := percentile(lat, p); err == nil {
				notes = append(notes, fmt.Sprintf("latency_p%g_ms %.4f ms", p, v))
			}
		}
		return res, notes, nil
	}

	v := map[string]float64{}
	layerWindow(samples, ctr0, ctr1, v)
	v["proc.system_cpu_ms"] = ms(cpu1-cpu0) / ops
	v["proc.client_cpu_ms"] = ms(self1-self0) / ops
	if cpu1 > cpu0 {
		v["proc.node_cpu_share"] = float64(node1-node0) / float64(cpu1-cpu0)
	}
	notes = append(notes, sweepDetails(samples)...)

	in := cfg.workload.inputs(cfg)
	cellPerOp, err := probeCells(in, rec, v)
	if err != nil {
		return nil, nil, fmt.Errorf("cell probe: %w", err)
	}
	if err := probeLayers(in, rec, v["harness.frames"], v); err != nil {
		return nil, nil, fmt.Errorf("layer probe: %w", err)
	}
	var untraced []float64
	for _, s := range samples {
		if !s.traced {
			untraced = append(untraced, float64(s.latency))
		}
	}
	v["harness.cell_share"] = float64(cellPerOp) / mean(untraced)
	v["harness.load_share"] = v["browser.load_us"] / 1000 / v["harness.cell_ms"]
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{v[d.name], d.unit}
	}
	if err := rec.write(cfg.traceOut, "bench/"+cfg.workload.name); err != nil {
		return nil, nil, err
	}
	notes = append(notes, fmt.Sprintf("%d ops, %d spans written to %s", len(samples), len(rec.spans), cfg.traceOut))
	return res, notes, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerWindow derives the per-layer metrics of a traced window: the
// tracing overhead, the client's HTTP phases, the blocking chain from the
// program's fleet traces, and the server's counters.
func layerWindow(samples []sample, ctr0, ctr1 map[string]float64, v map[string]float64) {
	var cycU, cycT []float64
	var latAll, latSampled, submit, firstRow, stream float64
	var c chain
	for _, s := range samples {
		if s.traced {
			cycT = append(cycT, float64(s.cycle))
		} else {
			cycU = append(cycU, float64(s.cycle))
		}
		latAll += float64(s.latency)
		if s.http != nil {
			submit += float64(s.http.submit)
			firstRow += float64(s.http.firstRow)
			stream += float64(s.http.stream)
		}
		if s.chain != nil {
			latSampled += float64(s.latency)
			c.admission += s.chain.admission
			c.queue += s.chain.queue
			c.dispatch += s.chain.dispatch
			c.execute += s.chain.execute
		}
	}
	// Closed-loop throughput is clients over mean cycle time, so the ratio
	// of the two modes' throughputs is the inverse ratio of their cycles.
	v["trace.overhead_frac"] = 1 - mean(cycU)/mean(cycT)
	v["http.submit_share"] = submit / latAll
	v["http.first_row_share"] = firstRow / latAll
	v["http.stream_share"] = stream / latAll
	if latSampled > 0 {
		v["fleet.admission_share"] = float64(c.admission) / latSampled
		v["shard.queue_wait_share"] = float64(c.queue) / latSampled
		v["shard.dispatch_share"] = float64(c.dispatch) / latSampled
		v["fleet.execute_share"] = float64(c.execute) / latSampled
		v["shard.wire_share"] = float64(c.dispatch-c.execute) / latSampled
		v["trace.coverage_frac"] = float64(c.admission+c.queue+c.dispatch) / latSampled
	}
	if ctr0 != nil {
		ops := float64(len(samples))
		d := func(name string) float64 { return ctr1[name] - ctr0[name] }
		v["shard.steals_per_op"] = d("greenweb_shard_steals_total") / ops
		v["store.fsyncs_per_op"] = d("greenweb_store_fsync_seconds_count") / ops
		v["store.fsync_share"] = d("greenweb_store_fsync_seconds_sum") * float64(time.Second) / latAll
		v["store.wal_kb_per_op"] = d("greenweb_store_wal_bytes") / 1024 / ops
		if jobs := d("greenweb_fleet_jobs_done_total"); jobs > 0 {
			v["fleet.retries_per_kjob"] = d("greenweb_fleet_retries_total") * 1000 / jobs
		}
	}
}

// sweepDetails reports, for a human reader, the HTTP submit and queue-wait
// times behind the shares, as percentiles where enough samples exist.
func sweepDetails(samples []sample) []string {
	var submit, queue []float64
	for _, s := range samples {
		if s.http != nil {
			submit = append(submit, ms(s.http.submit))
		}
		if s.chain != nil {
			queue = append(queue, ms(s.chain.queue))
		}
	}
	var out []string
	for _, series := range []struct {
		name string
		v    []float64
	}{{"http.submit_ms", submit}, {"shard.queue_wait_ms", queue}} {
		for _, p := range []float64{50, 99} {
			if x, err := percentile(series.v, p); err == nil {
				out = append(out, fmt.Sprintf("%s p%g %.4f ms (%d samples)", series.name, p, x, len(series.v)))
			}
		}
	}
	return out
}

func main() {
	if os.Getenv(spaChildEnv) != "" {
		if err := spaChild(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(cli(os.Args[1:], os.Stdout))
}

// runLimit bounds one run: it must end well within three minutes.
const runLimit = 170 * time.Second

func cli(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	traced := fs.Bool("trace", false, "measure the per-layer metrics instead of the end-to-end ones")
	runs := fs.Int("runs", 1, "runs per workload, each on the next seed, each in a fresh process")
	out := fs.String("o", "", "write every run's result, with a machine fingerprint, to this file")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [-workload NAME] [-seed S] [-seconds N] [-trace] [-runs R] [-o FILE]")
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		killAll()
		os.Exit(1)
	}()
	defer killAll()

	if len(selected) > 1 || *runs > 1 || *out != "" {
		return orchestrate(root, selected, *seed, *seconds, *traced, *runs, *out, stdout)
	}

	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded", runLimit)
		killAll()
		os.Exit(1)
	})
	defer watchdog.Stop()
	cfg, err := newConfig(root, selected[0], *seed, *seconds, *traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return runAndPrint(cfg, stdout)
}

// runAndPrint performs one run, prints each metric with its unit and the
// result line, and returns the exit code.
func runAndPrint(cfg *config, stdout io.Writer) int {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer"
	}
	fmt.Fprintf(stdout, "bench: %s, seed %d, %s window, %s metrics\n", cfg.workload.name, cfg.seed, cfg.window, mode)
	res, notes, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "bench: %s is not finite\n", d.name)
			return 1
		}
		fmt.Fprintf(stdout, "  %-24s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, "  #", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %d of %d ops failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// newConfig builds the programs and prepares a run's directories.
func newConfig(root string, w workload, seed int64, seconds int, traced bool) (*config, error) {
	build := filepath.Join(root, ".bench_build")
	cfg := &config{
		bin: filepath.Join(build, "bin"), tmp: filepath.Join(build, "tmp"),
		workload: w, clients: min(w.clients, runtime.NumCPU()), seed: seed,
		window: time.Duration(seconds) * time.Second, trace: traced,
		setups: setupsPerRun, minOps: w.fixedOps,
		reportRef: filepath.Join(root, "docs", "greenbench-report.txt"),
		traceOut:  filepath.Join(build, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed)),
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	return cfg, buildPrograms(root, cfg.bin)
}

// buildPrograms builds the commands the workloads run from source.
func buildPrograms(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/greenbench", "./cmd/greensrv", "./cmd/greennode")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building the programs: %w", err)
	}
	return nil
}

// findRoot walks up from the working directory to the repository root: the
// directory holding the module the benchmark measures.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.Contains(string(b), "module github.com/wattwiseweb/greenweb\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the greenweb repository (no go.mod of github.com/wattwiseweb/greenweb above the working directory)")
		}
		dir = parent
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// normalizeTrace accepts "--trace 0" and "--trace 1" as well as the bare
// boolean flag, which alone would leave the 0 or 1 as a stray argument.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a = "-trace=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}
