// Package fleet is the concurrent experiment scheduler: it fans experiment
// jobs — one per app × governor × trace cell of the paper's evaluation —
// out across a Cluster of nodes, each job running on an isolated simulated
// device (fresh sim/CPU/engine/governor per job, no shared mutable state).
//
// The scheduler provides the guarantees a sweep needs to be both fast and
// trustworthy:
//
//   - one FIFO job queue that every node's workers share (Start never
//     blocks, a free worker always takes the oldest job, and the queue's
//     length is the whole backlog, which admission control reads);
//   - per-job timeout and cancellation via context.Context, checked at
//     simulation-chunk granularity inside the harness;
//   - panic recovery and a retry and quarantine ladder, converting a
//     crashed cell into a failed-job Result instead of killing the sweep;
//   - a deterministic merge: RunSweep returns results in submission order
//     regardless of completion order or of which node ran a job, and every
//     cell executes through harness.ExecuteCell on a private device, so
//     aggregated output is byte-identical at any topology.
//
// Nodes are in-process LocalNodes (New) or any other Node implementation
// (NewWithNodes); internal/shard supplies the remote one. On top of the
// cluster, Manager tracks named sweeps for the cmd/greensrv job server
// (an ID registry, per-job completion signals for NDJSON result
// streaming). The evaluation report does not use the fleet: harness.Suite
// computes its cells on its own workers.
package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"time"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/ledger"
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
	// attempt, parent span id), stamped by the manager on the copy of each
	// job of a traced sweep that it starts on the cluster, and shipped with
	// the job to remote workers. Out-of-band by construction: no output path
	// reads it, and the WAL, which persists result rows only, never sees it.
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

// execute runs the cell on a fresh simulated device through
// harness.ExecuteCell, the one place the measurement protocol is decided.
func (j Job) execute(ctx context.Context) (*harness.Run, error) {
	app, ok := apps.ByName(j.App)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown app %q", j.App)
	}
	return harness.ExecuteCell(ctx, harness.Cell{App: app, Kind: j.Kind, Full: j.Phase == Full,
		Repeats: j.Repeats, Faults: j.Faults, StageWorkers: j.StageWorkers})
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

// Result is one finished job. Every node hands a finished run over as the
// same two projections, made once on the goroutine that ran it: Row and
// Timeline.
type Result struct {
	Job    Job
	Err    error
	Worker int // cluster-global slot index of the puller that ran the job (-1 if never scheduled)
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

	// Row holds the run's columns (RowOf reads them) and Timeline the run's
	// ledger spans, with their frame decisions, and config marks as one
	// exact-size ledger.AppendTimeline block, nil when both are empty. Both
	// are nil when Err != nil. A remote result's Attempts and History are
	// its row's, so they are zero for a job that did not retry.
	Row      *ResultRow
	Timeline []byte
}

// State reports the terminal state the result represents.
func (r Result) State() State {
	if r.Err != nil {
		return StateFailed
	}
	return StateDone
}

// ErrClosed rejects submissions to a closed cluster.
var ErrClosed = errors.New("fleet: cluster closed")

// Options configures a Cluster of LocalNodes.
type Options struct {
	// Nodes is the in-process node count; 0 → 1.
	Nodes int
	// Workers is each node's concurrent simulated devices; 0 →
	// max(1, GOMAXPROCS/Nodes).
	Workers int
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
}

// LocalNode is the in-process Node: each Run executes one job through the
// retry and quarantine ladder on the calling puller's goroutine, so a
// "node" is Workers cluster pullers sharing one retry configuration.
type LocalNode struct {
	opts Options
}

// NewLocalNode builds a node from opts' ladder settings. opts.Workers
// defaults to 1; Nodes is the cluster's, not the node's.
func NewLocalNode(opts Options) *LocalNode {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.RetryBaseDelay <= 0 {
		opts.RetryBaseDelay = 50 * time.Millisecond
	}
	if opts.RetryMaxDelay <= 0 {
		opts.RetryMaxDelay = 2 * time.Second
	}
	if opts.Execute == nil {
		opts.Execute = func(ctx context.Context, j Job) (*harness.Run, error) { return j.execute(ctx) }
	}
	return &LocalNode{opts: opts}
}

// Workers reports the node's concurrent execution slots.
func (n *LocalNode) Workers() int { return n.opts.Workers }

// Close is a no-op: a local node holds nothing beyond its pullers, which
// the cluster owns. An evicted node's in-flight jobs finish normally.
func (n *LocalNode) Close() {}

// Run executes one job through the retry ladder: each attempt runs with
// panic recovery and the per-attempt timeout; failed attempts back off
// (capped exponential, deterministically jittered) and retry until success,
// MaxAttempts exhaustion (→ quarantine), or sweep-level cancellation. slot
// is the calling puller's cluster-global index, recorded as the result's
// Worker.
func (n *LocalNode) Run(ctx context.Context, slot int, job Job) Result {
	start := time.Now()
	res := Result{Job: job, Worker: slot}
	// A traced job records its execute attempts and backoff sleeps into the
	// span buffer its context carries: its sweep's on the server, its own on
	// a worker, which ships it with the result.
	var tr *trace.SweepTrace
	if job.Trace != nil {
		tr = trace.SweepIn(ctx)
	}
	max := n.opts.MaxAttempts
	if max < 1 {
		max = 1
	}
	for attempt := 1; attempt <= max; attempt++ {
		res.Attempts = attempt
		t0 := time.Now()
		run, err := n.attempt(ctx, job)
		if tr != nil {
			attrs := map[string]string{"try": strconv.Itoa(attempt), "worker": strconv.Itoa(slot)}
			if err != nil {
				attrs["err"] = err.Error()
			}
			tr.Record(*job.Trace, "execute", "execute", t0, time.Since(t0), attrs)
		}
		if err == nil {
			res.Err = nil
			res.Row, res.Timeline = project(run)
			break
		}
		res.Err = err
		res.History = append(res.History, err.Error())
		if ctx.Err() != nil {
			break
		}
		if attempt == max {
			res.Quarantined = true
			break
		}
		wait := Backoff(n.opts.RetryBaseDelay, n.opts.RetryMaxDelay, n.opts.RetrySeed, job.String(), attempt)
		t0 = time.Now()
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			// The sweep died while we waited; the attempt's own error
			// stands as the job's cause of death.
		}
		if tr != nil {
			tr.Record(*job.Trace, "backoff", "backoff", t0, time.Since(t0),
				map[string]string{"try": strconv.Itoa(attempt)})
		}
	}
	res.Latency = time.Since(start)
	return res
}

// project is what a result keeps of a finished run: the row's run columns
// and the run's timeline block, exact size. Nothing past the node keeps the
// run itself, so a server can hold many finished sweeps: a run's frame
// results, span structs, decision log and residency map cost several times
// its block.
func project(run *harness.Run) (*ResultRow, []byte) {
	row := runColumns(run)
	if len(run.Spans) == 0 && len(run.ConfigMarks) == 0 {
		return &row, nil
	}
	return &row, bytes.Clone(ledger.AppendTimeline(nil, run.Spans, run.ConfigMarks))
}

// attempt is one isolated execution: its own recovery scope (so a panicking
// cell is retryable) and its own timeout budget.
func (n *LocalNode) attempt(ctx context.Context, job Job) (run *harness.Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			run, err = nil, fmt.Errorf("fleet: %s panicked: %v", job, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, n.opts.JobTimeout)
		defer cancel()
	}
	return n.opts.Execute(ctx, job)
}

// Backoff is a caller's sleep after its attempt-th consecutive failure:
// base·2^(attempt-1) capped at max, scaled by a deterministic jitter in
// [0.75, 1.25) hashed from (seed, key, attempt), so concurrent callers
// de-synchronize identically on every run. The retry ladder keys it by job,
// the remote transport's reconnect loop by node.
func Backoff(base, max time.Duration, seed int64, key string, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	d = min(d, max)
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	io.WriteString(h, key)
	binary.LittleEndian.PutUint64(buf[:], uint64(attempt))
	h.Write(buf[:])
	frac := float64(h.Sum64()>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
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
