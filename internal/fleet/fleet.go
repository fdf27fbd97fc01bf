// Package fleet is the concurrent experiment scheduler: it fans experiment
// jobs — one per app × governor × trace cell of the paper's evaluation —
// out across a pool of workers, each running an isolated simulated device
// (fresh sim/CPU/engine/governor per job, no shared mutable state).
//
// The scheduler provides the guarantees a sweep needs to be both fast and
// trustworthy:
//
//   - a bounded job queue (Submit blocks when full; TrySubmit rejects);
//   - per-job timeout and cancellation via context.Context, checked at
//     simulation-chunk granularity inside the harness;
//   - panic recovery, converting a crashed cell into a failed-job Result
//     instead of killing the sweep;
//   - a deterministic merge: RunSweep returns results in submission order
//     regardless of completion order, and every cell executes with
//     harness.ExecuteCell semantics on a private device, so aggregated
//     output is byte-identical to the sequential harness path.
//
// On top of the pool, Manager tracks named sweeps for the cmd/greensrv job
// server (sharded registry, per-job completion signals for NDJSON result
// streaming), and SuiteRunner plugs the pool into harness.Suite so the
// figure/table generators prefetch their working set concurrently.
package fleet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// Phase selects which interaction trace a job replays.
type Phase string

// The two measurement phases of the paper's protocol.
const (
	Micro Phase = "micro" // single-primitive microbenchmark, repeated runs
	Full  Phase = "full"  // Table 3 full-interaction trace, one cold run
)

// Job is one experiment cell: an application under a governor, replaying
// one of its traces. Jobs are plain values — the worker materializes the
// simulated device fresh per job.
type Job struct {
	App     string       `json:"app"`
	Kind    harness.Kind `json:"kind"`
	Phase   Phase        `json:"phase"`
	Repeats int          `json:"repeats,omitempty"` // 0 → phase default (micro: harness.MicroRepeats, full: 1)
	// Faults optionally runs the cell on a faulted device (thermal caps,
	// DVFS transition failures, DAQ dropout). nil → pristine hardware.
	Faults *faults.Spec `json:"faults,omitempty"`
	// StageWorkers is the render pipeline's stage-thread count for this
	// cell: 1 → serial frame production, 2..browser.MaxStageWorkers →
	// staged with that many cores, 0 → the count the submitting context
	// carries (harness.WithStageWorkers), serial when it carries none. Only
	// the field crosses the wire to remote workers, never the context.
	StageWorkers int `json:"stage_workers,omitempty"`
	// Trace is the distributed-tracing context (sweep id, job index,
	// attempt, parent span id), stamped by the manager on traced sweeps.
	// Out-of-band by construction: no output path reads it, the WAL never
	// persists it (the manager strips it before persistMeta), and the shard
	// transport strips it for workers that did not negotiate tracing in the
	// handshake.
	Trace *trace.Context `json:"trace,omitempty"`
}

func (j Job) String() string { return fmt.Sprintf("%s/%s/%s", j.App, j.Kind, j.Phase) }

// Validate resolves the job against the application catalog and governor
// list without running it, so external input (the job server) fails fast
// with a useful error instead of a failed job.
func (j Job) Validate() error {
	if _, ok := apps.ByName(j.App); !ok {
		return fmt.Errorf("fleet: unknown app %q", j.App)
	}
	if _, err := harness.ParseKind(string(j.Kind)); err != nil {
		return err
	}
	switch j.Phase {
	case Micro, Full:
	default:
		return fmt.Errorf("fleet: unknown phase %q", j.Phase)
	}
	if j.Repeats < 0 {
		return fmt.Errorf("fleet: negative repeats %d", j.Repeats)
	}
	if !harness.ValidStageWorkers(j.StageWorkers) {
		return fmt.Errorf("fleet: stage workers %d out of range", j.StageWorkers)
	}
	if err := j.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// execute runs the cell on a fresh simulated device. Default repeats follow
// the suite's protocol exactly (see harness.ExecuteCell), so a fleet result
// is interchangeable with a sequentially computed one.
func (j Job) execute(ctx context.Context) (*harness.Run, error) {
	app, ok := apps.ByName(j.App)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown app %q", j.App)
	}
	trace, repeats := app.Micro, harness.MicroRepeats
	if j.Phase == Full {
		trace, repeats = app.Full, 1
	}
	if j.Repeats > 0 {
		repeats = j.Repeats
	}
	if j.StageWorkers > 0 {
		ctx = harness.WithStageWorkers(ctx, j.StageWorkers)
	}
	return harness.ExecuteFaultedRepeatedContext(ctx, app, j.Kind, trace, repeats, j.Faults)
}

// State is a job's lifecycle position.
type State string

// Job states, in order.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Result is one finished job.
type Result struct {
	Job    Job
	Run    *harness.Run // nil when Err != nil
	Err    error
	Worker int // index of the worker that ran the job (-1 if never scheduled)
	// Latency is the wall-clock execution time, excluding queueing (all
	// attempts, including backoff sleeps).
	Latency time.Duration

	// Attempts is how many executions the job consumed (1 for a clean
	// first run; up to Options.MaxAttempts for a flaky or doomed one).
	Attempts int
	// History holds each failed attempt's error string, in attempt order —
	// the quarantine record, and the provenance of a retried success.
	History []string
	// Quarantined marks a job that failed on its own account (panic,
	// timeout, fault storm) through every allowed attempt. Jobs killed by
	// sweep-level cancellation are failed but not quarantined.
	Quarantined bool

	// Spans carries the executing process's trace spans for a traced job
	// (execute attempts, backoff sleeps), shipped alongside the result —
	// never inside any byte-compared output. SpanDrops counts spans the
	// per-job budget discarded.
	Spans     []trace.Span
	SpanDrops int
}

// State reports the terminal state the result represents.
func (r Result) State() State {
	if r.Err != nil {
		return StateFailed
	}
	return StateDone
}

// Sentinel errors for submission.
var (
	ErrQueueFull = errors.New("fleet: job queue full")
	ErrClosed    = errors.New("fleet: pool closed")
)

// Runner is the execution backend a Manager schedules sweeps onto: the
// single-process Pool, or a multi-node shard.Cluster. Start enqueues one job
// (blocking while the backend is saturated, aborting on ctx) and guarantees
// deliver is called exactly once with the job's terminal Result; started, if
// non-nil, fires when the job leaves the queue for a worker.
type Runner interface {
	Start(ctx context.Context, job Job, started func(), deliver func(Result)) error
	// Workers is the total concurrent execution slots.
	Workers() int
	// Stats snapshots the backend's live counters (queue depth feeds
	// admission control).
	Stats() Stats
	// RegisterMetrics exposes the backend's counters on an obs registry.
	RegisterMetrics(reg *obs.Registry)
	// Close stops intake, drains queued jobs, and waits for the workers.
	Close()
}

// Options configures a Pool.
type Options struct {
	// Workers is the number of concurrent simulated devices; 0 → GOMAXPROCS.
	Workers int
	// QueueDepth bounds the job queue; 0 → 4×Workers. Submit blocks while
	// the queue is full; TrySubmit rejects with ErrQueueFull instead.
	QueueDepth int
	// JobTimeout caps one job attempt's execution; 0 disables. An expired
	// attempt becomes a failed attempt (context.DeadlineExceeded), not a
	// dead worker — and is retried like any other failure.
	JobTimeout time.Duration
	// MaxAttempts is the total executions a failing job may consume before
	// quarantine (1 = no retry); 0 → 1. Failures covered: panics, per-
	// attempt timeouts, and harness errors such as injected fault storms.
	MaxAttempts int
	// RetryBaseDelay is the first retry's backoff (doubled per further
	// attempt, capped at RetryMaxDelay). 0 → 50ms. The worker sleeps the
	// backoff in place: a quarantine-bound cell should not hammer the CPU.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the exponential backoff. 0 → 2s.
	RetryMaxDelay time.Duration
	// RetrySeed drives the deterministic backoff jitter (±25%, an FNV hash
	// of seed × job × attempt — no global randomness, so a replayed sweep
	// backs off identically).
	RetrySeed int64
	// Execute overrides the cell executor; tests use it to inject slow,
	// panicking, or instant jobs. nil → the real harness execution.
	Execute func(ctx context.Context, j Job) (*harness.Run, error)
	// SpanBudget caps one traced job's recorded spans; 0 →
	// trace.DefaultJobBudget. Overflow increments the result's SpanDrops.
	SpanBudget int
}

type task struct {
	job     Job
	ctx     context.Context
	started func()       // optional: job left the queue
	deliver func(Result) // called exactly once, from the worker goroutine
}

// Pool is the worker-pool scheduler. Create with New, stop with Close.
type Pool struct {
	opts  Options
	queue chan task
	wg    sync.WaitGroup
	start time.Time

	mu     sync.RWMutex
	closed bool

	queued      atomic.Int64
	running     atomic.Int64
	done        atomic.Int64
	failed      atomic.Int64
	retried     atomic.Int64 // attempts beyond each job's first
	quarantined atomic.Int64 // jobs that exhausted every attempt
	spanDrops   atomic.Int64 // trace spans discarded to per-job budgets
	busy        atomic.Int64 // accumulated busy nanoseconds across workers
	hist        *obs.Histogram
}

// New builds the pool and starts its workers.
func New(opts Options) *Pool {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 4 * opts.Workers
	}
	if opts.Execute == nil {
		opts.Execute = func(ctx context.Context, j Job) (*harness.Run, error) { return j.execute(ctx) }
	}
	p := &Pool{
		opts:  opts,
		queue: make(chan task, opts.QueueDepth),
		start: time.Now(),
		hist:  obs.NewLatencyHistogram(),
	}
	for i := 0; i < opts.Workers; i++ {
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.opts.Workers }

// Close stops intake, drains queued jobs, and waits for the workers.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// Submit enqueues the job, blocking while the queue is full. It returns
// ctx's error if cancelled while waiting, or ErrClosed after Close.
// deliver is called exactly once, from a worker goroutine, when the job
// finishes — including failure and cancellation.
func (p *Pool) Submit(ctx context.Context, job Job, deliver func(Result)) error {
	return p.submit(task{job: job, ctx: ctx, deliver: deliver}, true)
}

// TrySubmit is Submit without blocking: a full queue rejects the job with
// ErrQueueFull and deliver is never called.
func (p *Pool) TrySubmit(ctx context.Context, job Job, deliver func(Result)) error {
	return p.submit(task{job: job, ctx: ctx, deliver: deliver}, false)
}

// Start implements Runner: Submit with a started hook that fires when the
// job leaves the queue for a worker.
func (p *Pool) Start(ctx context.Context, job Job, started func(), deliver func(Result)) error {
	return p.submit(task{job: job, ctx: ctx, started: started, deliver: deliver}, true)
}

func (p *Pool) submit(t task, wait bool) error {
	if t.ctx == nil {
		t.ctx = context.Background()
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	p.queued.Add(1)
	if wait {
		select {
		case p.queue <- t:
			return nil
		case <-t.ctx.Done():
			p.queued.Add(-1)
			return t.ctx.Err()
		}
	}
	select {
	case p.queue <- t:
		return nil
	default:
		p.queued.Add(-1)
		return ErrQueueFull
	}
}

func (p *Pool) worker(idx int) {
	defer p.wg.Done()
	for t := range p.queue {
		p.queued.Add(-1)
		p.running.Add(1)
		if t.started != nil {
			t.started()
		}
		start := time.Now()
		res := p.runOne(t.ctx, idx, t.job)
		res.Latency = time.Since(start)
		p.busy.Add(int64(res.Latency))
		p.hist.Observe(res.Latency.Seconds())
		p.running.Add(-1)
		if res.Err != nil {
			p.failed.Add(1)
		} else {
			p.done.Add(1)
		}
		if t.deliver != nil {
			t.deliver(res)
		}
	}
}

// runOne executes one job through the retry ladder: each attempt runs with
// panic recovery and the per-attempt timeout; failed attempts back off
// (capped exponential, deterministically jittered) and retry until success,
// MaxAttempts exhaustion (→ quarantine), or sweep-level cancellation.
func (p *Pool) runOne(ctx context.Context, worker int, job Job) Result {
	res := Result{Job: job, Worker: worker}
	// A traced job records its execute attempts and backoff sleeps into a
	// bounded per-job recorder; the spans ride back beside the result. Nil
	// recorder (untraced, or obs off) records nothing.
	var rec *trace.JobRecorder
	if job.Trace != nil && obs.EnabledIn(ctx) {
		rec = trace.NewJobRecorder(*job.Trace, p.opts.SpanBudget)
	}
	max := p.opts.MaxAttempts
	if max < 1 {
		max = 1
	}
	for attempt := 1; attempt <= max; attempt++ {
		res.Attempts = attempt
		t0 := time.Now()
		run, err := p.attempt(ctx, job)
		attrs := map[string]string{"try": strconv.Itoa(attempt), "worker": strconv.Itoa(worker)}
		if err != nil {
			attrs["err"] = err.Error()
		}
		rec.Record("execute", "execute", t0, time.Since(t0), attrs)
		if err == nil {
			res.Run, res.Err = run, nil
			res.Spans, res.SpanDrops = rec.Drain()
			p.spanDrops.Add(int64(res.SpanDrops))
			return res
		}
		res.Err = err
		res.History = append(res.History, err.Error())
		if ctx.Err() != nil || attempt == max {
			break
		}
		p.retried.Add(1)
		t0 = time.Now()
		select {
		case <-time.After(p.backoff(job, attempt)):
		case <-ctx.Done():
			// The sweep died while we waited; the attempt's own error
			// stands as the job's cause of death.
		}
		rec.Record("backoff", "backoff", t0, time.Since(t0),
			map[string]string{"try": strconv.Itoa(attempt)})
	}
	if ctx.Err() == nil {
		res.Quarantined = true
		p.quarantined.Add(1)
	}
	res.Spans, res.SpanDrops = rec.Drain()
	p.spanDrops.Add(int64(res.SpanDrops))
	return res
}

// attempt is one isolated execution: its own recovery scope (so a panicking
// cell is retryable) and its own timeout budget.
func (p *Pool) attempt(ctx context.Context, job Job) (run *harness.Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			run, err = nil, fmt.Errorf("fleet: %s panicked: %v", job, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.opts.JobTimeout)
		defer cancel()
	}
	return p.opts.Execute(ctx, job)
}

// backoff computes the sleep before retrying a job after its attempt-th
// failure: base·2^(attempt-1) capped at the max, scaled by a deterministic
// jitter in [0.75, 1.25) hashed from (seed, job, attempt) so concurrent
// retries de-synchronize identically on every run.
func (p *Pool) backoff(job Job, attempt int) time.Duration {
	base := p.opts.RetryBaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := p.opts.RetryMaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p.opts.RetrySeed))
	h.Write(buf[:])
	io.WriteString(h, job.String())
	binary.LittleEndian.PutUint64(buf[:], uint64(attempt))
	h.Write(buf[:])
	frac := float64(h.Sum64()>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
}

// RunSweep fans the jobs out and blocks until every one has a result. The
// returned slice is the deterministic merge: results[i] corresponds to
// jobs[i] regardless of completion order. Cancellation mid-sweep converts
// the not-yet-finished cells into failed results carrying ctx's error; the
// slice is always fully populated.
func (p *Pool) RunSweep(ctx context.Context, jobs []Job) []Result {
	return RunSweep(ctx, p, jobs)
}

// RunSweep fans the jobs out over any Runner and blocks until every one has
// a result, merged back in submission order — the deterministic merge is a
// property of the merge step, not the backend, so a shard cluster inherits
// it unchanged.
func RunSweep(ctx context.Context, r Runner, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i, job := range jobs {
		i, job := i, job
		err := r.Start(ctx, job, nil, func(res Result) {
			results[i] = res
			wg.Done()
		})
		if err != nil {
			results[i] = Result{Job: job, Worker: -1, Err: err}
			wg.Done()
		}
	}
	wg.Wait()
	return results
}

// Stats is a snapshot of the fleet counters, served by /metrics.
type Stats struct {
	Workers     int                   `json:"workers"`
	Queued      int64                 `json:"queued"`
	Running     int64                 `json:"running"`
	Done        int64                 `json:"done"`
	Failed      int64                 `json:"failed"`
	Retried     int64                 `json:"retried"`     // attempts beyond each job's first
	Quarantined int64                 `json:"quarantined"` // jobs that exhausted every attempt
	Utilization float64               `json:"utilization"` // busy worker-time / available worker-time since start
	Latency     obs.HistogramSnapshot `json:"latency"`     // wall-clock job latency, seconds
}

// Stats snapshots the counters.
func (p *Pool) Stats() Stats {
	elapsed := time.Since(p.start)
	util := 0.0
	if elapsed > 0 {
		util = float64(p.busy.Load()) / (float64(elapsed) * float64(p.opts.Workers))
	}
	queued := p.queued.Load()
	if queued < 0 { // transient submit/drain race on the gauge
		queued = 0
	}
	return Stats{
		Workers:     p.opts.Workers,
		Queued:      queued,
		Running:     p.running.Load(),
		Done:        p.done.Load(),
		Failed:      p.failed.Load(),
		Retried:     p.retried.Load(),
		Quarantined: p.quarantined.Load(),
		Utilization: util,
		Latency:     p.hist.Snapshot(),
	}
}

// RegisterMetrics exposes the pool's live counters on an obs registry under
// the greenweb_fleet_* names. Values are read from the pool's own atomics at
// scrape time — no shadow counters to keep in sync. Register on a
// per-server registry (not obs.Default) so multiple pools in one process
// (tests) do not fight over sources.
func (p *Pool) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("greenweb_fleet_workers",
		"Worker goroutines in the pool", func() float64 { return float64(p.opts.Workers) })
	reg.GaugeFunc("greenweb_fleet_queue_depth",
		"Jobs waiting in the queue", func() float64 {
			if q := p.queued.Load(); q > 0 {
				return float64(q)
			}
			return 0
		})
	reg.GaugeFunc("greenweb_fleet_running_jobs",
		"Jobs executing right now", func() float64 { return float64(p.running.Load()) })
	reg.CounterFunc("greenweb_fleet_jobs_done_total",
		"Jobs finished successfully", func() float64 { return float64(p.done.Load()) })
	reg.CounterFunc("greenweb_fleet_jobs_failed_total",
		"Jobs that ended in failure (including cancellation)", func() float64 { return float64(p.failed.Load()) })
	reg.CounterFunc("greenweb_fleet_retries_total",
		"Job attempts beyond each job's first", func() float64 { return float64(p.retried.Load()) })
	reg.CounterFunc("greenweb_fleet_quarantines_total",
		"Jobs that exhausted every allowed attempt", func() float64 { return float64(p.quarantined.Load()) })
	reg.CounterFunc("greenweb_fleet_span_drops_total",
		"Trace spans discarded to per-job span budgets", func() float64 { return float64(p.spanDrops.Load()) })
	reg.GaugeFunc("greenweb_fleet_utilization",
		"Busy worker-time over available worker-time since start", func() float64 { return p.Stats().Utilization })
	reg.AttachHistogram("greenweb_fleet_job_latency_seconds",
		"Wall-clock job latency in seconds (all attempts incl. backoff)", p.hist)
}
