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
//   - panic recovery, converting a crashed cell into a failed-job Result
//     instead of killing the sweep; a failed cell runs once, since every
//     cell is a deterministic function of its job and fails the same way
//     again;
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
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/ledger"
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
	// job of a traced sweep that it starts on the cluster. Out-of-band by
	// construction: no output path reads it, and neither the wire to remote
	// workers nor the WAL carries it, since the server draws every span of
	// the job itself.
	Trace *trace.Context `json:"-"`
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
	// Start is when a node started running the job and Latency how long
	// it ran, excluding queueing. Start is on the clock of the process
	// that holds the result: a LocalNode reads it as it starts the job,
	// and a RemoteNode places the worker's run in the middle of the job's
	// round trip. Start is zero if no node ran the job.
	Start   time.Time
	Latency time.Duration

	// Row holds the run's columns (RowOf reads them) and Timeline the run's
	// ledger spans, with their frame decisions, and config marks as one
	// exact-size ledger.AppendTimeline block, nil when both are empty. Both
	// are nil when Err != nil.
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
	// JobTimeout caps one job's execution; 0 disables. An expired job fails
	// with context.DeadlineExceeded, like any other failed cell, and the
	// worker takes the next job.
	JobTimeout time.Duration
	// Execute overrides the cell executor; tests use it to inject slow,
	// panicking, or instant jobs. nil → the real harness execution.
	Execute func(ctx context.Context, j Job) (*harness.Run, error)
}

// LocalNode is the in-process Node: each Run executes one job on the
// calling puller's goroutine, so a "node" is Workers cluster pullers
// sharing one executor and timeout.
type LocalNode struct {
	opts Options
}

// NewLocalNode builds a node from opts' executor and timeout. opts.Workers
// defaults to 1; Nodes is the cluster's, not the node's.
func NewLocalNode(opts Options) *LocalNode {
	if opts.Workers <= 0 {
		opts.Workers = 1
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

// Run executes the job once, with panic recovery and the JobTimeout cap. A
// failed cell is not run again: every cell is a deterministic function of
// its job, so a second run fails the same way. slot is the calling puller's
// cluster-global index, recorded as the result's Worker. A traced job's
// execute span (ExecuteSpan) goes into the span buffer its context carries.
func (n *LocalNode) Run(ctx context.Context, slot int, job Job) Result {
	start := time.Now()
	run, err := n.execute(ctx, job)
	res := Result{Job: job, Worker: slot, Err: err, Start: start}
	if err == nil {
		res.Row, res.Timeline = project(run)
	}
	res.Latency = time.Since(start)
	if job.Trace != nil {
		trace.SweepIn(ctx).Add(ExecuteSpan(*job.Trace, res))
	}
	return res
}

// ExecuteSpan is the execute span of r's job, traced under tc: the window
// [r.Start, r.Start+r.Latency] a node ran the job in, on the clock r.Start
// was read from, with the running slot and any error as attributes. Every
// kind of node draws it alike: a LocalNode from the result it returns, a
// remote node from the one its worker ships.
func ExecuteSpan(tc trace.Context, r Result) trace.Span {
	attrs := map[string]string{"worker": strconv.Itoa(r.Worker)}
	if r.Err != nil {
		attrs["err"] = r.Err.Error()
	}
	return trace.Span{ID: trace.NewSpanID(), Parent: tc.Parent, Name: "execute", Cat: "execute",
		Job: tc.Job, Attempt: tc.Attempt, StartUS: r.Start.UnixMicro(),
		DurUS: int64(r.Latency / time.Microsecond), Attrs: attrs}
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

// execute runs the job in its own recovery scope, so a panicking cell
// fails its job, not the worker, and under its own timeout.
func (n *LocalNode) execute(ctx context.Context, job Job) (run *harness.Run, err error) {
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
