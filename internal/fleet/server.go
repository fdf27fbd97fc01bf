package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// SweepRequest is the POST /v1/sweeps body. Empty fields take defaults:
// every Table 3 application, the paper's two baselines plus both GreenWeb
// scenarios, and the full-interaction phase.
type SweepRequest struct {
	Apps    []string `json:"apps,omitempty"`
	Kinds   []string `json:"kinds,omitempty"`
	Phase   string   `json:"phase,omitempty"`
	Repeats int      `json:"repeats,omitempty"`
	// Faults optionally runs every cell of the sweep on a faulted device
	// (see faults.Spec). Invalid specs answer 400 before any job runs.
	Faults *faults.Spec `json:"faults,omitempty"`
	// StageWorkers adds a render-pipeline dimension to the grid: the sweep
	// runs every (app, kind) cell once per listed stage-worker count
	// (0 or 1 = serial, 2.. = staged). Empty keeps the grid two-dimensional
	// and every cell serial.
	StageWorkers []int `json:"stage_workers,omitempty"`
}

// DefaultKinds is the sweep the evaluation section revolves around.
var DefaultKinds = []harness.Kind{harness.Perf, harness.Interactive, harness.GreenWebI, harness.GreenWebU}

// Jobs expands the request into the job grid (apps × kinds × stage-worker
// counts). Request-level fields are validated before grid expansion, so a
// bad phase or repeat count fails once with a request-shaped error instead of
// per generated job. A dimension that lists a value twice is refused: its
// cells would run twice, and duplicates let a kilobyte body expand to half a
// million jobs. Without them a grid holds at most every app × every kind ×
// every stage-worker count.
func (r SweepRequest) Jobs() ([]Job, error) {
	if r.Repeats < 0 {
		return nil, fmt.Errorf("fleet: negative repeats %d", r.Repeats)
	}
	if err := r.Faults.Validate(); err != nil {
		return nil, err
	}
	phase := Full
	if r.Phase != "" {
		// Case-insensitive, matching harness.ParseKind for governor kinds.
		phase = Phase(strings.ToLower(r.Phase))
		switch phase {
		case Micro, Full:
		default:
			return nil, fmt.Errorf("fleet: unknown phase %q (want %q or %q)", r.Phase, Micro, Full)
		}
	}
	names := r.Apps
	if len(names) == 0 {
		names = apps.Names()
	}
	kinds := DefaultKinds
	if len(r.Kinds) > 0 {
		kinds = make([]harness.Kind, 0, len(r.Kinds))
		for _, k := range r.Kinds {
			kind, err := harness.ParseKind(k)
			if err != nil {
				return nil, err
			}
			kinds = append(kinds, kind)
		}
	}
	stageWorkers := r.StageWorkers
	if len(stageWorkers) == 0 {
		stageWorkers = []int{0}
	}
	for _, n := range stageWorkers {
		if !harness.ValidStageWorkers(n) {
			return nil, fmt.Errorf("fleet: stage workers %d out of range", n)
		}
	}
	// Apps compare by catalog name: ByName resolves any case.
	resolved := make([]string, len(names))
	for i, name := range names {
		app, ok := apps.ByName(name)
		if !ok {
			return nil, fmt.Errorf("fleet: unknown app %q", name)
		}
		resolved[i] = app.Name
	}
	if app, ok := repeated(resolved); ok {
		return nil, fmt.Errorf("fleet: app %q listed twice", app)
	}
	if kind, ok := repeated(kinds); ok {
		return nil, fmt.Errorf("fleet: kind %q listed twice", kind)
	}
	if n, ok := repeated(stageWorkers); ok {
		return nil, fmt.Errorf("fleet: stage workers %d listed twice", n)
	}
	var jobs []Job
	for _, name := range resolved {
		for _, kind := range kinds {
			for _, n := range stageWorkers {
				j := Job{App: name, Kind: kind, Phase: phase, Repeats: r.Repeats,
					Faults: r.Faults, StageWorkers: n}
				if err := j.Validate(); err != nil {
					return nil, err
				}
				jobs = append(jobs, j)
			}
		}
	}
	return jobs, nil
}

// repeated returns the first element of xs that an earlier one equals.
func repeated[K comparable](xs []K) (K, bool) {
	seen := make(map[K]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return x, true
		}
		seen[x] = true
	}
	var zero K
	return zero, false
}

// ResultRow is the NDJSON wire form of one finished job, streamed by
// GET /v1/sweeps/{id}/results in submission order.
type ResultRow struct {
	Index int          `json:"index"`
	App   string       `json:"app"`
	Kind  harness.Kind `json:"kind"`
	Phase Phase        `json:"phase"`
	State State        `json:"state"`
	// StageWorkers echoes the job's own stage-worker count; omitted when
	// the job has none (0).
	StageWorkers int     `json:"stage_workers,omitempty"`
	LatencyMS    float64 `json:"latency_ms"`
	EnergyJ      float64 `json:"energy_j,omitempty"`
	Frames       int     `json:"frames,omitempty"`
	ViolationI   float64 `json:"violation_i,omitempty"`
	ViolationU   float64 `json:"violation_u,omitempty"`
	LoadMS       float64 `json:"load_latency_ms,omitempty"`
	FreqSwitches int     `json:"freq_switches,omitempty"`
	Migrations   int     `json:"migrations,omitempty"`
	// Ledger attribution columns (whole run including load): frame + idle
	// partition the meter integral; event sums the input→completion
	// overlays.
	FrameEnergyJ float64 `json:"frame_energy_j,omitempty"`
	IdleEnergyJ  float64 `json:"idle_energy_j,omitempty"`
	EventEnergyJ float64 `json:"event_energy_j,omitempty"`
	// StageEnergyJ sums the per-stage overlay spans of staged frame
	// production; zero (and omitted) on serial-pipeline jobs.
	StageEnergyJ float64 `json:"stage_energy_j,omitempty"`
	// Fault-adversity columns (zero, and omitted, on pristine hardware).
	ThermalTrips int    `json:"thermal_trips,omitempty"`
	DVFSDenied   int    `json:"dvfs_denied,omitempty"`
	DVFSDelayed  int    `json:"dvfs_delayed,omitempty"`
	DAQDropped   int    `json:"daq_dropped,omitempty"`
	CapClamps    int    `json:"cap_clamps,omitempty"`
	Degradations int    `json:"degradations,omitempty"`
	Recoveries   int    `json:"recoveries,omitempty"`
	Error        string `json:"error,omitempty"`
}

// RowOf projects job index's result onto its row, the one projection every
// row greensrv serves or stores goes through. The run's columns come from
// r.Row, which the node that ran the job filled (a remote worker with this
// same function); the job's coordinates, state, latency and error columns
// always come from r itself, so a worker's row cannot restate what the
// server knows.
func RowOf(index int, r Result) ResultRow {
	var row ResultRow
	if r.Err == nil && r.Row != nil {
		row = *r.Row
	}
	row.Index = index
	row.App, row.Kind, row.Phase = r.Job.App, r.Job.Kind, r.Job.Phase
	row.StageWorkers = r.Job.StageWorkers
	row.State = r.State()
	row.LatencyMS = float64(r.Latency) / float64(time.Millisecond)
	row.Error = ""
	if r.Err != nil {
		row.Error = r.Err.Error()
	}
	return row
}

// runColumns is the row's share of a run: every column but the job's
// coordinates and the result's envelope.
func runColumns(run *harness.Run) ResultRow {
	return ResultRow{
		EnergyJ:      float64(run.Energy),
		Frames:       run.Frames,
		ViolationI:   run.ViolationI,
		ViolationU:   run.ViolationU,
		LoadMS:       run.LoadLatency.Milliseconds(),
		FreqSwitches: run.Switches.FreqSwitches,
		Migrations:   run.Switches.Migrations,
		FrameEnergyJ: float64(run.FrameEnergy),
		IdleEnergyJ:  float64(run.IdleEnergy),
		EventEnergyJ: float64(run.EventEnergy),
		StageEnergyJ: float64(run.StageEnergy),
		ThermalTrips: run.ThermalTrips,
		DVFSDenied:   run.DVFSDenied,
		DVFSDelayed:  run.DVFSDelayed,
		DAQDropped:   run.DAQDropped,
		CapClamps:    run.CapClamps,
		Degradations: run.Degradations,
		Recoveries:   run.Recoveries,
	}
}

// WriteResults renders a finished sweep's results as NDJSON — byte-for-byte
// the rows greensrv streams. deterministic zeroes the wall-clock latency
// column, so two runs of an identical sweep (same jobs, same fault seeds)
// produce byte-identical output; the CI determinism job diffs exactly this.
func WriteResults(w io.Writer, results []Result, deterministic bool) error {
	enc := json.NewEncoder(w)
	for i, r := range results {
		row := RowOf(i, r)
		if deterministic {
			row.LatencyMS = 0
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

// maxSweepRequestBytes bounds the POST /v1/sweeps body. The largest
// legitimate request — every app, every kind, a fault spec — is a few
// kilobytes; 1 MiB leaves two orders of magnitude of headroom while keeping
// a hostile or misconfigured client from buffering arbitrary payloads.
const maxSweepRequestBytes = 1 << 20

// Server is the greensrv HTTP API over a manager:
//
//	POST /v1/sweeps              enqueue a sweep (202 + id; 503 while draining)
//	GET  /v1/sweeps/{id}         status snapshot
//	GET  /v1/sweeps/{id}/results NDJSON rows, streamed as jobs finish
//	                             (?deterministic=1 zeroes latency_ms for
//	                             byte-comparable streams across topologies)
//	GET  /v1/sweeps/{id}/events  NDJSON per-frame decision log, streamed per job
//	GET  /v1/sweeps/{id}/trace   Chrome trace-event JSON of the whole sweep
//	                             (?fleet=1 serves the distributed fleet trace:
//	                             admission/queue/dispatch/re-home/execute
//	                             spans merged across server and worker
//	                             processes, clock-aligned)
//	GET  /v1/nodes               per-node liveness, heartbeat RTT, job and
//	                             re-home federation
//	GET  /healthz                liveness (503 while draining)
//	GET  /metrics                Prometheus text exposition
//	GET  /debug/pprof/           net/http/pprof profiles
//
// Method mismatches answer 405 (ServeMux method patterns). Every other
// error is a JSON body {"error":..., "code":...} whose code is one of the
// Code constants: an unknown sweep ID answers unknown_sweep (404), and the
// trace and event endpoints of a WAL-replayed sweep answer
// replayed_no_trace (404) — the replayed store keeps result rows, not the
// observability overlay.
type Server struct {
	m        *Manager
	mux      *http.ServeMux
	draining atomic.Bool
	adm      atomic.Pointer[admission]
}

// ConfigureAdmission (re)arms admission control on POST /v1/sweeps:
// queue-depth-aware shedding and per-client token buckets, both answering
// 429 with a rejection body and Retry-After. Safe to call at any time; a
// zero options value disables both gates.
func (s *Server) ConfigureAdmission(opts AdmissionOptions) {
	s.adm.Store(newAdmission(opts))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StartDrain flips the server into draining mode: new sweep submissions
// answer 503 (with Retry-After) and healthz reports draining, while reads —
// status, results, events, metrics — keep working so clients can collect
// what is already in flight. Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// WriteMetrics writes the server's Prometheus exposition: its cluster's
// families, the sweep counts, then its store's. /metrics serves it, and
// greensrv writes it once more when it drains.
func (s *Server) WriteMetrics(w io.Writer) error {
	e := obs.NewExposition(w)
	s.m.Cluster().WriteMetrics(e)
	total, finished := s.m.Counts()
	e.Counter("greenweb_fleet_sweeps_total", "Sweeps ever registered", float64(total))
	e.Counter("greenweb_fleet_sweeps_finished_total",
		"Sweeps whose every job reached a terminal state", float64(finished))
	if st := s.m.Store(); st != nil {
		st.WriteMetrics(e)
	}
	return e.Flush()
}

// eventRow is one NDJSON line of GET /v1/sweeps/{id}/events: the job's
// coordinates plus the embedded, rendered per-frame decision.
type eventRow struct {
	Index int          `json:"index"`
	App   string       `json:"app"`
	Kind  harness.Kind `json:"kind"`
	obs.DecisionRow
}

// NewServer builds the HTTP API (see Server for the route table).
func NewServer(m *Manager) *Server {
	srv := &Server{m: m, mux: http.NewServeMux()}
	mux := srv.mux

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if srv.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		srv.WriteMetrics(w)
	})

	// Profiling endpoints. pprof.Index dispatches /debug/pprof/<name> to the
	// named runtime profile (heap, goroutine, block, ...) itself.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		queued := int64(m.cluster.q.len())
		if srv.draining.Load() {
			writeRejection(w, http.StatusServiceUnavailable, &rejection{
				Error:        "server is draining; not accepting new sweeps",
				Code:         CodeDraining,
				RetryAfterMS: 10_000,
				QueueDepth:   queued,
			})
			return
		}
		if adm := srv.adm.Load(); adm != nil {
			if rej := adm.admit(clientKey(r), queued); rej != nil {
				writeRejection(w, http.StatusTooManyRequests, rej)
				return
			}
		}
		// Reject non-JSON payloads up front (415) and bound the body (400 on
		// overflow): a sweep request is a small job grid, never megabytes.
		if ct := r.Header.Get("Content-Type"); ct != "" {
			mt, _, _ := strings.Cut(ct, ";")
			if !strings.EqualFold(strings.TrimSpace(mt), "application/json") {
				httpError(w, http.StatusUnsupportedMediaType, CodeUnsupportedMediaType,
					fmt.Errorf("content type %q not supported; use application/json", ct))
				return
			}
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxSweepRequestBytes)
		var req SweepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				httpError(w, http.StatusBadRequest, CodeInvalidRequest,
					fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
				return
			}
			httpError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		jobs, err := req.Jobs()
		if err != nil {
			httpError(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		admitted := time.Now()
		s, err := m.Enqueue(jobs)
		if err != nil {
			httpError(w, http.StatusBadRequest, CodeInvalidRequest, err)
			return
		}
		// Sweep-level admission span (job -1 → the trace's "sweep" lane):
		// the HTTP-side cost of validating and registering the sweep.
		if tr := s.fleetTrace.Load(); tr != nil {
			tr.Record(trace.Context{Job: -1}, "admission", "admission", admitted, time.Since(admitted),
				map[string]string{"jobs": fmt.Sprintf("%d", s.Len()), "client": clientKey(r)})
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"id":          s.ID,
			"jobs":        s.Len(),
			"status_url":  fmt.Sprintf("/v1/sweeps/%s", s.ID),
			"results_url": fmt.Sprintf("/v1/sweeps/%s/results", s.ID),
		})
	})

	// A replayed sweep takes the live paths: the status and the results
	// stream read its rows like any finished sweep's.
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		if s, ok := lookup(m, w, r, ""); ok {
			writeJSON(w, http.StatusOK, s.Status())
		}
	})

	mux.HandleFunc("GET /v1/sweeps/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		s, ok := lookup(m, w, r, "")
		if !ok {
			return
		}
		// ?deterministic=1 zeroes the wall-clock latency column — the only
		// nondeterministic byte in a row — so streams from different
		// topologies (node counts, remote workers, mid-sweep failures) can be
		// compared byte-for-byte. The CI chaos smoke diffs exactly this.
		deterministic := r.URL.Query().Get("deterministic") == "1"
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		// Submission order: row i is not emitted before rows 0..i-1, so
		// the stream is the sweep's deterministic merge.
		for i := 0; i < s.Len(); i++ {
			row, err := s.Row(r.Context(), i)
			if err != nil {
				return // client went away
			}
			if deterministic {
				row.LatencyMS = 0
			}
			if err := enc.Encode(row); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	})

	mux.HandleFunc("GET /v1/sweeps/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		s, ok := lookup(m, w, r, "decision events")
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		// Per-job decision logs in submission order, each derived from the
		// job's timeline and flushed as its job finishes. Failed jobs
		// contribute no rows.
		for i := 0; i < s.Len(); i++ {
			rec, err := s.wait(r.Context(), i)
			if err != nil {
				return // client went away
			}
			spans, _ := rec.decode()
			decisions := obs.DecisionsOf(spans)
			for j := range decisions {
				row := eventRow{Index: i, App: rec.row.App, Kind: rec.row.Kind, DecisionRow: decisions[j].Row()}
				if err := enc.Encode(row); err != nil {
					return
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	})

	mux.HandleFunc("GET /v1/sweeps/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		s, ok := lookup(m, w, r, "trace spans")
		if !ok {
			return
		}
		// ?fleet=1 serves the distributed trace: the sweep's span buffer
		// (admission, queue-wait, dispatch, re-home, and each job's execute
		// span, clock-aligned under the pid of the process that ran it),
		// one Chrome trace process row per real OS process.
		if r.URL.Query().Get("fleet") == "1" {
			tr := s.fleetTrace.Load()
			if tr == nil {
				httpError(w, http.StatusNotFound, CodeNoFleetTrace, fmt.Errorf(
					"sweep %q has no fleet trace (tracing disabled, -no-obs, or the buffer was evicted)", s.ID))
				return
			}
			// Wait for the sweep so the artifact covers every job's spans.
			select {
			case <-s.Done():
			case <-r.Context().Done():
				return
			}
			spans, drops := tr.Snapshot()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			trace.WriteFleetTrace(w, string(s.ID), spans, drops)
			return
		}
		// One trace process per finished job (pid = index+1), waiting for
		// each in submission order and decoding its timeline — the trace
		// covers the finished sweep.
		var procs []ledger.Process
		for i := 0; i < s.Len(); i++ {
			rec, err := s.wait(r.Context(), i)
			if err != nil {
				return // client went away
			}
			if rec.row.State != StateDone {
				continue
			}
			spans, marks := rec.decode()
			procs = append(procs, ledger.Process{
				PID:   i + 1,
				Name:  fmt.Sprintf("%s/%s/%s", rec.row.App, rec.row.Kind, rec.row.Phase),
				Spans: spans,
				Marks: marks,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		ledger.WriteTrace(w, procs...)
	})

	mux.HandleFunc("GET /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"nodes": m.Cluster().NodeInfos()})
	})

	return srv
}

// lookup resolves the request's sweep, answering unknown_sweep when no
// sweep has its ID. overlay names what an endpoint reads beyond the rows
// ("" for none): a replayed sweep answers replayed_no_trace for it, since
// the store keeps rows only.
func lookup(m *Manager, w http.ResponseWriter, r *http.Request, overlay string) (*Sweep, bool) {
	s, ok := m.Get(SweepID(r.PathValue("id")))
	switch {
	case !ok:
		httpError(w, http.StatusNotFound, CodeUnknownSweep, fmt.Errorf("unknown sweep %q", r.PathValue("id")))
	case s.replayed && overlay != "":
		httpError(w, http.StatusNotFound, CodeReplayedNoTrace, fmt.Errorf(
			"sweep %q was replayed from the store; %s are not persisted", s.ID, overlay))
		return nil, false
	}
	return s, ok
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Error codes. Every JSON error body the server sends carries one, so a
// client branches on the code, never on the prose; the admission
// rejections (draining, rate_limited, queue_full) add retry hints.
const (
	CodeDraining    = "draining"     // 503: shutting down, no new sweeps
	CodeRateLimited = "rate_limited" // 429: the client's token bucket is dry
	CodeQueueFull   = "queue_full"   // 429: the job queue is past the admission ceiling
	// CodeInvalidRequest (400): the sweep request is oversized, is not valid
	// JSON, or names an unknown app, kind or phase, a negative repeat
	// count, an out-of-range stage-worker count or an invalid fault spec.
	CodeInvalidRequest       = "invalid_request"
	CodeUnsupportedMediaType = "unsupported_media_type" // 415: the body is not application/json
	CodeUnknownSweep         = "unknown_sweep"          // 404: no live or replayed sweep has the id
	// CodeReplayedNoTrace (404): the sweep exists but was replayed from the
	// WAL, which persists result rows, not the trace/event overlay.
	CodeReplayedNoTrace = "replayed_no_trace"
	// CodeNoFleetTrace (404): the sweep ran without fleet tracing (greensrv
	// -no-obs) or newer sweeps took its span buffer's place.
	CodeNoFleetTrace = "no_fleet_trace"
)

// httpError sends a JSON error body carrying its code.
func httpError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}
