package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
	"github.com/wattwiseweb/greenweb/internal/store"
)

// SweepID identifies an enqueued sweep.
type SweepID string

// Sweep tracks one enqueued batch of jobs: per-job states, finished jobs'
// records indexed by submission position (the deterministic merge the
// server streams), and completion signals for status polling and NDJSON
// streaming.
type Sweep struct {
	ID      SweepID
	Created time.Time

	mu      sync.Mutex
	jobs    []Job
	records []record
	state   []State
	rowDone []chan struct{} // closed as each job reaches a terminal state
	pending int
	allDone chan struct{}
	cancel  context.CancelFunc

	// persisted is closed once the sweep's end record has been fsynced to
	// the manager's store; nil when the manager has no store.
	persisted chan struct{}
}

// Persisted reports whether the sweep is durable in the manager's store (a
// restarted server can replay it). Always false without a store.
func (s *Sweep) Persisted() bool {
	if s.persisted == nil {
		return false
	}
	select {
	case <-s.persisted:
		return true
	default:
		return false
	}
}

// Len reports the job count.
func (s *Sweep) Len() int { return len(s.jobs) }

// Done is closed once every job has a terminal state.
func (s *Sweep) Done() <-chan struct{} { return s.allDone }

// Cancel aborts the sweep's outstanding jobs; finished results keep their
// values and the rest fail with context.Canceled.
func (s *Sweep) Cancel() { s.cancel() }

// record is what a sweep keeps of a finished job: the row that /results,
// the status and the store serve, and the timeline that /trace and /events
// decode on request. Keeping no *harness.Run lets a server hold many
// finished sweeps: a run's frame results, span structs, decision log and
// residency map cost several times its block.
type record struct {
	row ResultRow
	// timeline is the job's ledger.AppendTimeline block, exact size; nil
	// for a failed job or an empty timeline.
	timeline []byte
	decided  bool // the run derived a decision log (observability on)
}

// recordOf keeps the endpoints' share of job i's result, projected here,
// once, so executions outside a sweep (greenbench's fault sweep) pay
// nothing.
func recordOf(i int, r Result) record {
	rec := record{row: RowOf(i, r)}
	if r.Err == nil {
		rec.timeline, rec.decided = r.TimelineBlock()
	}
	return rec
}

// TimelineBlock returns the run's ledger spans, with their frame decisions,
// and config marks as one ledger.AppendTimeline block of exact size, nil
// when both are empty, and whether the run derived its decision log
// (obs.EnabledIn). A remote node's result carries both as they arrived; a
// local run's block is encoded on each call.
func (r Result) TimelineBlock() ([]byte, bool) {
	run := r.Run
	if run == nil {
		return r.Timeline, r.Decided
	}
	var block []byte
	if len(run.Spans) > 0 || len(run.ConfigMarks) > 0 {
		block = bytes.Clone(ledger.AppendTimeline(nil, run.Spans, run.ConfigMarks))
	}
	return block, run.Decisions != nil
}

// decode returns the kept timeline's spans and marks. Every kept block was
// either written by ledger.AppendTimeline in this process or checked by
// ledger.CheckTimeline on receipt, so a block that fails to decode now is a
// bug.
func (r record) decode() ([]ledger.Span, []ledger.ConfigMark) {
	if len(r.timeline) == 0 {
		return nil, nil
	}
	spans, marks, err := ledger.DecodeTimeline(r.timeline)
	if err != nil {
		panic(fmt.Sprintf("fleet: job %d's kept timeline does not decode: %v", r.row.Index, err))
	}
	return spans, marks
}

// Row blocks until job i finishes (or ctx is done) and returns its result
// row.
func (s *Sweep) Row(ctx context.Context, i int) (ResultRow, error) {
	rec, err := s.wait(ctx, i)
	return rec.row, err
}

// wait blocks until job i finishes (or ctx is done) and returns its record.
func (s *Sweep) wait(ctx context.Context, i int) (record, error) {
	if i < 0 || i >= len(s.jobs) {
		return record{}, fmt.Errorf("fleet: job index %d out of range", i)
	}
	select {
	case <-s.rowDone[i]:
	case <-ctx.Done():
		return record{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records[i], nil
}

func (s *Sweep) finish(i int, r Result) {
	rec := recordOf(i, r)
	s.mu.Lock()
	s.records[i] = rec
	s.state[i] = rec.row.State
	s.pending--
	last := s.pending == 0
	s.mu.Unlock()
	close(s.rowDone[i])
	if last {
		close(s.allDone)
	}
}

// JobStatus is one job's row in a sweep status report.
type JobStatus struct {
	Index     int          `json:"index"`
	App       string       `json:"app"`
	Kind      harness.Kind `json:"kind"`
	Phase     Phase        `json:"phase"`
	State     State        `json:"state"`
	LatencyMS float64      `json:"latency_ms,omitempty"`
	// Attempts surfaces retries (only when >1); Quarantined marks a job
	// that failed through every allowed attempt.
	Attempts    int    `json:"attempts,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
	Error       string `json:"error,omitempty"`
}

// SweepStatus is the GET /v1/sweeps/{id} body.
type SweepStatus struct {
	ID       SweepID   `json:"id"`
	Created  time.Time `json:"created"`
	Total    int       `json:"total"`
	Queued   int       `json:"queued"`
	Running  int       `json:"running"`
	Done     int       `json:"done"`
	Failed   int       `json:"failed"`
	Finished bool      `json:"finished"`
	// Persisted is true once the sweep is durable in the server's store
	// (omitted entirely when the server runs without one).
	Persisted bool `json:"persisted,omitempty"`
	// Replayed marks a status reconstructed from the store after a restart.
	Replayed bool        `json:"replayed,omitempty"`
	Jobs     []JobStatus `json:"jobs"`
}

// Status snapshots the sweep.
func (s *Sweep) Status() SweepStatus {
	persisted := s.Persisted()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SweepStatus{ID: s.ID, Created: s.Created, Total: len(s.jobs),
		Finished: s.pending == 0, Persisted: persisted}
	for i, j := range s.jobs {
		js := JobStatus{Index: i, App: j.App, Kind: j.Kind, Phase: j.Phase, State: s.state[i]}
		row := &s.records[i].row
		switch s.state[i] {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
			js.LatencyMS, js.Attempts = row.LatencyMS, row.Attempts
		case StateFailed:
			st.Failed++
			js.LatencyMS, js.Attempts = row.LatencyMS, row.Attempts
			js.Error, js.Quarantined = row.Error, row.Quarantined
		}
		st.Jobs = append(st.Jobs, js)
	}
	return st
}

// Manager owns the cluster-facing sweep lifecycle for the job server: it
// assigns IDs, submits jobs asynchronously (absorbing queue backpressure
// off the HTTP handler), resolves IDs through its registry, and — when
// given a store — persists every finished sweep and replays persisted ones
// that predate this process.
type Manager struct {
	ctx     context.Context // parents every sweep; server lifetime
	cluster *Cluster
	st      *store.Store // nil → in-memory only
	seq     atomic.Uint64
	mu      sync.RWMutex
	sweeps  map[SweepID]*Sweep // guarded by mu
}

// TracingEnabled reports whether new sweeps will be traced: unless the
// manager's context disables observability (greensrv -no-obs).
func (m *Manager) TracingEnabled() bool { return obs.EnabledIn(m.ctx) }

// NewManager builds a manager over a cluster; ctx bounds the lifetime of
// every sweep it enqueues (pass the server's base context).
func NewManager(ctx context.Context, c *Cluster) *Manager {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Manager{ctx: ctx, cluster: c, sweeps: make(map[SweepID]*Sweep)}
}

// SetTraceCollector swaps the trace registry that sweeps register in and
// the cluster records scheduling spans into. Production uses the process-
// global trace.Default(); tests inject isolated collectors because managers
// sharing a process would collide on their per-manager sequential sweep
// ids. Call before the first Enqueue.
func (m *Manager) SetTraceCollector(c *trace.Collector) { m.cluster.traces = c }

// Traces exposes the manager's trace registry (the /trace?fleet=1 handler
// reads it).
func (m *Manager) Traces() *trace.Collector { return m.cluster.traces }

// Cluster exposes the scheduler (for /metrics, /v1/nodes and admission).
func (m *Manager) Cluster() *Cluster { return m.cluster }

// Store exposes the durable sweep store (nil without one).
func (m *Manager) Store() *store.Store { return m.st }

// SetStore attaches the durable store. Must be called before the first
// Enqueue. The ID sequence skips past every persisted sweep so restarted
// servers never mint a colliding ID.
func (m *Manager) SetStore(st *store.Store) {
	m.st = st
	for _, id := range st.IDs() {
		var n uint64
		if _, err := fmt.Sscanf(id, "s-%d", &n); err == nil && n > m.seq.Load() {
			m.seq.Store(n)
		}
	}
}

// persistMeta is the store's opaque registration payload for a sweep.
type persistMeta struct {
	Jobs []Job `json:"jobs"`
}

// persist streams the sweep's rows into the store as they finish (in
// submission order — the same deterministic merge the HTTP stream serves)
// and fsyncs the end record, then marks the sweep persisted.
func (m *Manager) persist(s *Sweep) {
	meta, err := json.Marshal(persistMeta{Jobs: s.jobs})
	if err != nil {
		return
	}
	if err := m.st.Begin(string(s.ID), s.Created, meta); err != nil {
		return
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < s.Len(); i++ {
		row, err := s.Row(m.ctx, i)
		if err != nil {
			return // server shutting down
		}
		buf.Reset()
		if err := enc.Encode(row); err != nil {
			return
		}
		line := append([]byte(nil), bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
		if err := m.st.AppendRow(string(s.ID), i, line); err != nil {
			return
		}
	}
	if err := m.st.End(string(s.ID)); err != nil {
		return
	}
	close(s.persisted)
}

// StoredStatus reconstructs a replayed sweep's status from the store. It
// answers for completed sweeps from before this process's lifetime.
func (m *Manager) StoredStatus(id SweepID) (SweepStatus, bool) {
	if m.st == nil {
		return SweepStatus{}, false
	}
	rec, ok := m.st.Get(string(id))
	if !ok {
		return SweepStatus{}, false
	}
	st := SweepStatus{ID: id, Created: rec.Created, Total: len(rec.Rows),
		Finished: true, Persisted: true, Replayed: true}
	for i, raw := range rec.Rows {
		var row ResultRow
		if err := json.Unmarshal(raw, &row); err != nil {
			continue
		}
		js := JobStatus{Index: i, App: row.App, Kind: row.Kind, Phase: row.Phase,
			State: row.State, LatencyMS: row.LatencyMS, Quarantined: row.Quarantined, Error: row.Error}
		if row.Attempts > 1 {
			js.Attempts = row.Attempts
		}
		if row.State == StateFailed {
			st.Failed++
		} else {
			st.Done++
		}
		st.Jobs = append(st.Jobs, js)
	}
	return st, true
}

// StoredRows returns a replayed sweep's NDJSON result lines.
func (m *Manager) StoredRows(id SweepID) ([]json.RawMessage, bool) {
	if m.st == nil {
		return nil, false
	}
	rec, ok := m.st.Get(string(id))
	if !ok {
		return nil, false
	}
	return rec.Rows, true
}

// Get resolves a sweep ID.
func (m *Manager) Get(id SweepID) (*Sweep, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.sweeps[id]
	return s, ok
}

// Enqueue validates the jobs, registers a sweep, and starts feeding the
// cluster in the background. It returns as soon as the sweep is registered;
// queue backpressure is absorbed by the feeding goroutine, not the caller.
func (m *Manager) Enqueue(jobs []Job) (*Sweep, error) {
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	ctx, cancel := context.WithCancel(m.ctx)
	s := &Sweep{
		ID:      SweepID(fmt.Sprintf("s-%06d", m.seq.Add(1))),
		Created: time.Now(),
		jobs:    append([]Job(nil), jobs...),
		records: make([]record, len(jobs)),
		state:   make([]State, len(jobs)),
		rowDone: make([]chan struct{}, len(jobs)),
		pending: len(jobs),
		allDone: make(chan struct{}),
		cancel:  cancel,
	}
	for i := range s.state {
		s.state[i] = StateQueued
		s.rowDone[i] = make(chan struct{})
	}
	if m.st != nil {
		s.persisted = make(chan struct{})
	}
	if len(jobs) == 0 {
		close(s.allDone)
	}
	m.mu.Lock()
	m.sweeps[s.ID] = s
	m.mu.Unlock()

	if m.st != nil {
		go m.persist(s)
	}
	// Traced sweeps get a merged span buffer; each job is fed to the cluster
	// as a copy carrying its trace context, so s.jobs (and therefore the
	// WAL's persistMeta bytes) never see tracing fields.
	var tr *trace.SweepTrace
	if m.TracingEnabled() && len(jobs) > 0 {
		tr = m.cluster.traces.Register(string(s.ID), len(jobs))
	}
	go func() {
		for i, job := range s.jobs {
			i := i
			started := func() {
				s.mu.Lock()
				if s.state[i] == StateQueued {
					s.state[i] = StateRunning
				}
				s.mu.Unlock()
			}
			deliver := func(r Result) { s.finish(i, r) }
			if tr != nil {
				// Root span id is minted up front so queue-wait, worker
				// spans, and the root itself all agree on parentage.
				rootID := tr.NewID()
				job.Trace = &trace.Context{Sweep: string(s.ID), Job: i, Parent: rootID}
				submitted := time.Now()
				innerStarted := started
				started = func() {
					tr.Record(i, rootID, "queue-wait", "queue", submitted, time.Since(submitted), nil)
					innerStarted()
				}
				deliver = func(r Result) {
					tr.AddSpans(r.Spans, r.SpanDrops)
					tr.RecordSpan(trace.Span{
						ID: rootID, Name: "job", Cat: "job", Job: i,
						StartUS: submitted.UnixMicro(),
						DurUS:   int64(time.Since(submitted) / time.Microsecond),
						Attrs: map[string]string{
							"app": job.App, "kind": string(job.Kind), "state": string(r.State()),
						},
					})
					s.finish(i, r)
				}
			}
			err := m.cluster.Start(ctx, job, started, deliver)
			if err != nil {
				s.finish(i, Result{Job: job, Worker: -1, Err: err})
			}
		}
	}()
	return s, nil
}

// Drain blocks until every registered sweep has finished, or ctx expires.
// On expiry the stragglers are cancelled and Drain waits for their jobs to
// deliver (cancellation propagates at simulation-chunk granularity inside
// the harness, so this wait is bounded), then returns ctx's error. greensrv
// runs this between "stop accepting sweeps" and "shut the cluster down".
func (m *Manager) Drain(ctx context.Context) error {
	for _, s := range m.Sweeps() {
		select {
		case <-s.Done():
		case <-ctx.Done():
			// Deadline passed: cancel everything still in flight, then wait
			// for the cancellations to deliver so the cluster can close cleanly.
			for _, s2 := range m.Sweeps() {
				select {
				case <-s2.Done():
				default:
					s2.Cancel()
				}
			}
			for _, s2 := range m.Sweeps() {
				<-s2.Done()
			}
			return ctx.Err()
		}
	}
	return nil
}

// Counts reports how many sweeps are registered and how many have finished,
// for metrics exposition.
func (m *Manager) Counts() (total, finished int) {
	for _, s := range m.Sweeps() {
		total++
		select {
		case <-s.Done():
			finished++
		default:
		}
	}
	return total, finished
}

// Sweeps lists all registered sweeps (newest last by ID order not
// guaranteed; callers sort as needed).
func (m *Manager) Sweeps() []*Sweep {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Sweep, 0, len(m.sweeps))
	for _, s := range m.sweeps {
		out = append(out, s)
	}
	return out
}
