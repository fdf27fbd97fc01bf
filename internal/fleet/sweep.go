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
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
	"github.com/wattwiseweb/greenweb/internal/store"
)

// SweepID identifies an enqueued sweep.
type SweepID string

// Sweep tracks one batch of jobs: per-job states, finished jobs' records
// indexed by submission position (the deterministic merge the server
// streams), and completion signals for status polling and NDJSON
// streaming. A sweep enqueued by this process fills in as its jobs finish;
// one replayed from the store at startup is finished when registered.
type Sweep struct {
	ID      SweepID
	Created time.Time

	mu sync.Mutex
	// records holds each job's record; until the job finishes, its row
	// carries only the job's coordinates, which the status reports.
	records []record
	state   []State
	rowDone []chan struct{} // closed as each job reaches a terminal state
	pending int
	allDone chan struct{}
	cancel  context.CancelFunc

	// persistDone is closed once the manager's store has taken the sweep's
	// end record (durable) or persisting it failed; nil without a store.
	persistDone chan struct{}
	durable     bool // set before persistDone closes
	// replayed marks a sweep recovered from the store: rows only, no
	// timelines and no fleet trace.
	replayed bool
	// fleetTrace is the sweep's fleet span buffer: nil when the sweep is
	// untraced, or once newer sweeps took its place (maxTracedSweeps).
	fleetTrace atomic.Pointer[trace.SweepTrace]
}

// newSweep builds a sweep of n pending jobs.
func newSweep(id SweepID, created time.Time, n int) *Sweep {
	return &Sweep{
		ID:      id,
		Created: created,
		records: make([]record, n),
		state:   make([]State, n),
		rowDone: make([]chan struct{}, n),
		pending: n,
		allDone: make(chan struct{}),
		cancel:  func() {},
	}
}

// Persisted reports whether the sweep is durable in the manager's store (a
// restarted server can replay it). Always false without a store.
func (s *Sweep) Persisted() bool {
	if s.persistDone == nil {
		return false
	}
	select {
	case <-s.persistDone:
		return s.durable
	default:
		return false
	}
}

// Len reports the job count.
func (s *Sweep) Len() int { return len(s.records) }

// Done is closed once every job has a terminal state.
func (s *Sweep) Done() <-chan struct{} { return s.allDone }

// Cancel aborts the sweep's outstanding jobs; finished results keep their
// values and the rest fail with context.Canceled.
func (s *Sweep) Cancel() { s.cancel() }

// record is what a sweep keeps of a finished job: the row that /results,
// the status and the store serve, and the timeline that /trace and /events
// decode on request.
type record struct {
	row ResultRow
	// timeline is the job's ledger.AppendTimeline block, exact size; nil
	// for a failed job or an empty timeline.
	timeline []byte
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
	if i < 0 || i >= len(s.records) {
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
	rec := record{row: RowOf(i, r), timeline: r.Timeline}
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
	Error     string       `json:"error,omitempty"`
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
	// Replayed marks a sweep recovered from the store after a restart.
	Replayed bool        `json:"replayed,omitempty"`
	Jobs     []JobStatus `json:"jobs"`
}

// Status snapshots the sweep.
func (s *Sweep) Status() SweepStatus {
	persisted := s.Persisted()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SweepStatus{ID: s.ID, Created: s.Created, Total: len(s.records),
		Finished: s.pending == 0, Persisted: persisted, Replayed: s.replayed}
	for i := range s.records {
		row := &s.records[i].row
		js := JobStatus{Index: i, App: row.App, Kind: row.Kind, Phase: row.Phase, State: s.state[i]}
		switch s.state[i] {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
			js.LatencyMS = row.LatencyMS
		case StateFailed:
			st.Failed++
			js.LatencyMS, js.Error = row.LatencyMS, row.Error
		}
		st.Jobs = append(st.Jobs, js)
	}
	return st
}

// Manager owns the cluster-facing sweep lifecycle for the job server: it
// assigns IDs, puts every job of a sweep on the cluster's queue, and
// resolves IDs through its registry, the only one a sweep lives in. Given
// a store, it persists every sweep it enqueues and registers the sweeps the
// store recovered, which predate this process.
type Manager struct {
	ctx     context.Context // parents every sweep; server lifetime
	cluster *Cluster
	st      *store.Store // nil → in-memory only
	tracing bool         // new sweeps get a fleet trace; see SetTracing
	seq     atomic.Uint64
	mu      sync.RWMutex
	sweeps  map[SweepID]*Sweep // guarded by mu
	// traced rings the last maxTracedSweeps sweeps given a fleet trace;
	// tracing one more drops the trace of the sweep it replaces. Guarded
	// by mu.
	traced     [maxTracedSweeps]*Sweep
	tracedNext int
}

// maxTracedSweeps bounds how many sweeps keep their fleet trace: a traced
// micro job's spans cost about as much as everything else the server keeps
// of it.
const maxTracedSweeps = 1024

// TracingEnabled reports whether new sweeps will be traced.
func (m *Manager) TracingEnabled() bool { return m.tracing }

// SetTracing switches fleet tracing for the sweeps the manager enqueues: on
// by default, off under greensrv -no-obs. An untraced sweep's jobs carry no
// Job.Trace, so no node records spans for them, and its /trace?fleet=1
// answers no_fleet_trace; its rows, decision log and energy trace are the
// same either way. Must be called before the first Enqueue.
func (m *Manager) SetTracing(on bool) { m.tracing = on }

// NewManager builds a manager over a cluster, whose pullers then record
// the scheduling spans of traced sweeps; ctx bounds the lifetime of every
// sweep it enqueues (pass the server's base context).
func NewManager(ctx context.Context, c *Cluster) *Manager {
	if ctx == nil {
		ctx = context.Background()
	}
	c.managed.Store(true)
	return &Manager{ctx: ctx, cluster: c, tracing: true, sweeps: make(map[SweepID]*Sweep)}
}

// Cluster exposes the scheduler (for /metrics, /v1/nodes and admission).
func (m *Manager) Cluster() *Cluster { return m.cluster }

// Store exposes the durable sweep store (nil without one).
func (m *Manager) Store() *store.Store { return m.st }

// SetStore attaches the durable store and registers the sweeps it
// recovered (store.Open's) as finished, replayed sweeps. Must be called
// before the first Enqueue. The ID sequence skips past every ID the store
// refuses to begin, a dropped sweep's too, so a restarted server never
// mints an ID that a client may still poll. It returns the IDs of the
// recovered sweeps it could not register, whose rows it could not serve
// byte for byte (see replay).
func (m *Manager) SetStore(st *store.Store, recovered []store.SweepRecord) (refused []SweepID) {
	m.st = st
	for _, id := range st.Known() {
		var n uint64
		if _, err := fmt.Sscanf(id, "s-%d", &n); err == nil && n > m.seq.Load() {
			m.seq.Store(n)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, sr := range recovered {
		s, ok := replay(sr)
		if !ok {
			refused = append(refused, SweepID(sr.ID))
			continue
		}
		m.sweeps[s.ID] = s
	}
	return refused
}

// replay rebuilds a recovered sweep as a finished, persisted one, each row
// decoded once. A row that is not a finished job's ResultRow, or that does
// not encode back to its stored bytes, refuses the whole sweep: the
// results stream could not reproduce what was persisted.
func replay(sr store.SweepRecord) (*Sweep, bool) {
	s := newSweep(SweepID(sr.ID), sr.Created, len(sr.Rows))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, raw := range sr.Rows {
		row := &s.records[i].row
		buf.Reset()
		if json.Unmarshal(raw, row) != nil || (row.State != StateDone && row.State != StateFailed) ||
			enc.Encode(row) != nil || !bytes.Equal(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), raw) {
			return nil, false
		}
		s.state[i] = row.State
		s.rowDone[i] = s.allDone
	}
	close(s.allDone)
	s.pending, s.replayed, s.durable = 0, true, true
	s.persistDone = s.allDone // closed: the sweep is durable
	return s, true
}

// persist streams the sweep's rows into the store as they finish (in
// submission order — the same deterministic merge the HTTP stream serves)
// and fsyncs the end record, then marks the sweep durable. Each row is
// appended once: the cluster delivers each job once.
func (m *Manager) persist(s *Sweep) {
	defer close(s.persistDone)
	if err := m.st.Begin(string(s.ID), s.Created); err != nil {
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
		if err := m.st.AppendRow(string(s.ID), i, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))); err != nil {
			return
		}
	}
	if err := m.st.End(string(s.ID)); err != nil {
		return
	}
	s.durable = true
}

// Get resolves a sweep ID.
func (m *Manager) Get(id SweepID) (*Sweep, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.sweeps[id]
	return s, ok
}

// Enqueue validates the jobs, registers a sweep, and puts every job on the
// cluster's queue, which never blocks, so the sweep's whole backlog is
// queued (and visible to admission control) when Enqueue returns.
func (m *Manager) Enqueue(jobs []Job) (*Sweep, error) {
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	ctx, cancel := context.WithCancel(m.ctx)
	s := newSweep(SweepID(fmt.Sprintf("s-%06d", m.seq.Add(1))), time.Now(), len(jobs))
	s.cancel = cancel
	for i, j := range jobs {
		s.records[i].row = ResultRow{Index: i, App: j.App, Kind: j.Kind, Phase: j.Phase}
		s.state[i] = StateQueued
		s.rowDone[i] = make(chan struct{})
	}
	if m.st != nil {
		s.persistDone = make(chan struct{})
	}
	if len(jobs) == 0 {
		close(s.allDone)
	}
	// A traced sweep gets a span buffer, which rides the context its jobs
	// start with to the cluster's pullers and nodes. It holds every phase of
	// every job with re-home headroom (96 spans a job, at least 512), so one
	// sweep's trace stays a few MB at most. The context is derived after the
	// cancel context, which the sweep keeps, so the buffer is garbage once
	// the sweep's jobs are done and its trace was dropped.
	var tr *trace.SweepTrace
	if m.TracingEnabled() && len(jobs) > 0 {
		tr = trace.NewSweepTrace(max(96*len(jobs), 512))
		s.fleetTrace.Store(tr)
		ctx = trace.WithSweep(ctx, tr)
	}
	m.mu.Lock()
	m.sweeps[s.ID] = s
	if tr != nil {
		if old := m.traced[m.tracedNext]; old != nil {
			old.fleetTrace.Store(nil)
		}
		m.traced[m.tracedNext] = s
		m.tracedNext = (m.tracedNext + 1) % maxTracedSweeps
	}
	m.mu.Unlock()

	if m.st != nil {
		go m.persist(s)
	}
	for i, job := range jobs {
		started := func() {
			s.mu.Lock()
			if s.state[i] == StateQueued {
				s.state[i] = StateRunning
			}
			s.mu.Unlock()
		}
		deliver := func(r Result) { s.finish(i, r) }
		if tr != nil {
			// Root span id is minted up front so queue-wait, node spans,
			// and the root itself all agree on parentage. Each job goes to
			// the cluster as a copy carrying its context.
			rootID := trace.NewSpanID()
			tc := trace.Context{Sweep: string(s.ID), Job: i, Parent: rootID}
			job.Trace = &tc
			submitted := time.Now()
			innerStarted := started
			started = func() {
				tr.Record(tc, "queue-wait", "queue", submitted, time.Since(submitted), nil)
				innerStarted()
			}
			deliver = func(r Result) {
				tr.Add([]trace.Span{{
					ID: rootID, Name: "job", Cat: "job", Job: i,
					StartUS: submitted.UnixMicro(),
					DurUS:   int64(time.Since(submitted) / time.Microsecond),
					Attrs: map[string]string{
						"app": job.App, "kind": string(job.Kind), "state": string(r.State()),
					},
				}}, 0)
				s.finish(i, r)
			}
		}
		if err := m.cluster.Start(ctx, job, started, deliver); err != nil {
			s.finish(i, Result{Job: job, Worker: -1, Err: err})
		}
	}
	return s, nil
}

// Drain blocks until every registered sweep has finished and, with a
// store, its persistence has ended (durable, or failed and counted in
// greenweb_store_errors_total), or ctx expires. On expiry the stragglers
// are cancelled and Drain waits for their jobs to deliver (cancellation
// propagates at simulation-chunk granularity inside the harness, so this
// wait is bounded) and persist, then returns ctx's error. greensrv runs
// this between "stop accepting sweeps" and "shut the cluster and the store
// down". It waits sweep by sweep, so a sweep enqueued late is waited for
// if it is listed when Drain reaches it.
func (m *Manager) Drain(ctx context.Context) error {
	settled := func(s *Sweep, ctx context.Context) bool {
		for _, c := range []<-chan struct{}{s.allDone, s.persistDone} {
			if c == nil {
				continue
			}
			select {
			case <-c:
			case <-ctx.Done():
				return false
			}
		}
		return true
	}
	for _, s := range m.Sweeps() {
		if !settled(s, ctx) {
			// Deadline passed: cancel everything still in flight, then wait
			// for the cancellations to deliver and persist so the cluster
			// and the store can close cleanly.
			for _, s2 := range m.Sweeps() {
				s2.Cancel()
			}
			for _, s2 := range m.Sweeps() {
				settled(s2, context.Background())
			}
			return ctx.Err()
		}
	}
	return nil
}

// Counts reports how many sweeps this process registered and how many of
// them have finished, for metrics exposition; replayed sweeps are not
// counted.
func (m *Manager) Counts() (total, finished int) {
	for _, s := range m.Sweeps() {
		if s.replayed {
			continue
		}
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
