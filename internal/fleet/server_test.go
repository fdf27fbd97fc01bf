package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/ledger"
)

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Manager) {
	t.Helper()
	cluster := New(opts)
	m := NewManager(context.Background(), cluster)
	srv := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		srv.Close()
		cluster.Close()
	})
	return srv, m
}

func postSweep(t *testing.T, srv *httptest.Server, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d, want 202", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestServerSweepLifecycle(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 2})

	ack := postSweep(t, srv, `{"apps":["Todo","Google"],"kinds":["Perf"],"phase":"full"}`)
	id, _ := ack["id"].(string)
	if id == "" || ack["jobs"].(float64) != 2 {
		t.Fatalf("ack = %v", ack)
	}

	// Poll status until finished.
	deadline := time.After(30 * time.Second)
	var status SweepStatus
	for !status.Finished {
		select {
		case <-deadline:
			t.Fatalf("sweep never finished: %+v", status)
		case <-time.After(5 * time.Millisecond):
		}
		resp, err := http.Get(srv.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET status = %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if status.Done != 2 || status.Failed != 0 || status.Total != 2 {
		t.Fatalf("status = %+v", status)
	}
	for i, j := range status.Jobs {
		if j.Index != i || j.State != StateDone || j.LatencyMS <= 0 {
			t.Fatalf("job %d = %+v", i, j)
		}
	}

	// Results stream: NDJSON rows in submission order with measurements.
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results Content-Type = %q", ct)
	}
	var rows []ResultRow
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row ResultRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	wantApps := []string{"Todo", "Google"}
	for i, row := range rows {
		if row.Index != i || row.App != wantApps[i] || row.State != StateDone {
			t.Fatalf("row %d = %+v", i, row)
		}
		if row.EnergyJ <= 0 || row.Frames <= 0 {
			t.Fatalf("row %d carries no measurements: %+v", i, row)
		}
	}
}

// The results endpoint streams: rows for finished jobs arrive while later
// jobs are still running.
func TestServerResultsStreamBeforeCompletion(t *testing.T) {
	release := make(chan struct{})
	gate := make(chan Job, 16)
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		gate <- j
		if j.App == "Google" { // second job blocks until released
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &harness.Run{Frames: 1}, nil
	}
	srv, _ := newTestServer(t, Options{Workers: 1, Execute: exec})

	ack := postSweep(t, srv, `{"apps":["Todo","Google"],"kinds":["Perf"]}`)
	id := ack["id"].(string)

	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	// First row must arrive while Google still blocks the single worker.
	line := make(chan string, 1)
	go func() {
		if sc.Scan() {
			line <- sc.Text()
		}
	}()
	select {
	case l := <-line:
		var row ResultRow
		if err := json.Unmarshal([]byte(l), &row); err != nil {
			t.Fatal(err)
		}
		if row.App != "Todo" || row.Index != 0 {
			t.Fatalf("first streamed row = %+v", row)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first row did not stream before sweep completion")
	}
	close(release)
	if !sc.Scan() {
		t.Fatal("second row missing")
	}
}

// invalidSweepBodies each answer 400 invalid_request. The last, 1,334
// bytes, would expand to 80³ = 512,000 jobs if duplicates were accepted.
var invalidSweepBodies = []string{
	`{bad json`,
	`{"apps":["NoSuchApp"]}`,
	`{"kinds":["Warp9"]}`,
	`{"phase":"half"}`,
	`{"repeats":-3}`,
	`{"apps":["Todo","todo"]}`,
	`{"kinds":["Perf","GreenWeb-I","perf"]}`,
	`{"stage_workers":[4,1,4]}`,
	`{"apps":["Todo"` + strings.Repeat(`,"Todo"`, 79) + `],"kinds":["Perf"` + strings.Repeat(`,"Perf"`, 79) +
		`],"stage_workers":[0` + strings.Repeat(`,0`, 79) + `],"phase":"micro"}`,
}

func TestServerValidationErrors(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	for _, body := range invalidSweepBodies {
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("POST %s: Content-Type = %q, want application/json", body, ct)
		}
		var errBody struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
			t.Errorf("POST %s: body is not a JSON error object: %v", body, err)
		} else if errBody.Error == "" {
			t.Errorf("POST %s: error body has no message", body)
		} else if errBody.Code != CodeInvalidRequest {
			t.Errorf("POST %s: code = %q, want %q", body, errBody.Code, CodeInvalidRequest)
		}
		resp.Body.Close()
	}
}

// FuzzSweepRequest: arbitrary bytes decoded as a POST /v1/sweeps body, as
// the server decodes one, and expanded by Jobs never panic, and a grid Jobs
// accepts holds at most one job per app × kind × stage-worker count.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range invalidSweepBodies {
		f.Add([]byte(body))
	}
	for _, body := range []string{
		`{}`,
		`{"apps":["Todo","MSN"],"kinds":["Perf","GreenWeb-U"]}`,
		`{"apps":["Todo","Google","BBC"],"kinds":["Perf","GreenWeb-U"],"phase":"micro"}`,
		`{"apps":["Todo"],"kinds":["Perf"],"faults":{"seed":9,"dvfs":{"deny_prob":0.1}}}`,
		`{"apps":["Todo"],"kinds":["Perf"],"faults":{"dvfs":{"deny_prob":2}}}`,
		`{"apps":["Todo"],"kinds":["GreenWeb-I"],"phase":"full","repeats":2,"stage_workers":[0,4]}`,
	} {
		f.Add([]byte(body))
	}
	limit := (len(apps.All()) + len(apps.SPAApps())) * len(harness.Kinds()) * (browser.MaxStageWorkers + 1)
	f.Fuzz(func(t *testing.T, b []byte) {
		var req SweepRequest
		if json.NewDecoder(bytes.NewReader(b)).Decode(&req) != nil {
			return
		}
		if jobs, err := req.Jobs(); err == nil && len(jobs) > limit {
			t.Fatalf("%d jobs from a %d-byte request, more than %d", len(jobs), len(b), limit)
		}
	})
}

// Unknown phases and negative repeat counts must be rejected before the
// job grid is expanded — not silently swept with defaults.
func TestSweepRequestRejectsBadPhaseAndRepeats(t *testing.T) {
	if _, err := (&SweepRequest{Phase: "bogus"}).Jobs(); err == nil {
		t.Error("unknown phase accepted")
	}
	if _, err := (&SweepRequest{Repeats: -1}).Jobs(); err == nil {
		t.Error("negative repeats accepted")
	}
	jobs, err := (&SweepRequest{Apps: []string{"Todo"}, Kinds: []string{"Perf"}, Phase: "MICRO"}).Jobs()
	if err != nil {
		t.Fatalf("case-insensitive phase rejected: %v", err)
	}
	if len(jobs) != 1 || jobs[0].Phase != Micro {
		t.Fatalf("jobs = %+v", jobs)
	}
}

// TestServerTraceEndpoint checks GET /v1/sweeps/{id}/trace: it waits for
// the sweep and decodes each finished job's kept timeline into one Chrome
// trace (one process per job, a job with an empty timeline included), the
// bytes ledger.WriteTrace writes for the jobs' own runs, and it skips
// failed jobs rather than erroring.
func TestServerTraceEndpoint(t *testing.T) {
	runOf := func(j Job) *harness.Run {
		if j.App == "MSN" {
			return &harness.Run{} // done, with nothing on its timeline
		}
		return &harness.Run{
			Frames: 1,
			Spans: []ledger.Span{
				{ID: 1, Kind: ledger.KindIdle, Name: "idle/other", Start: 0, End: 1000, Energy: 0.001},
				{ID: 2, Kind: ledger.KindFrame, Name: "frame 1", Seq: 1, Start: 1000, End: 2000, Energy: 0.002},
			},
			ConfigMarks: []ledger.ConfigMark{{At: 1000, From: acmp.LowestConfig(), To: acmp.PeakConfig()}},
		}
	}
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		if j.App == "Google" {
			return nil, context.Canceled // a failed job must be skipped, not fatal
		}
		return runOf(j), nil
	}
	srv, _ := newTestServer(t, Options{Workers: 2, Execute: exec})

	ack := postSweep(t, srv, `{"apps":["Todo","Google","MSN"],"kinds":["Perf"]}`)
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + ack["id"].(string) + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	todo, msn := Job{App: "Todo", Kind: harness.Perf}, Job{App: "MSN", Kind: harness.Perf}
	if err := ledger.WriteTrace(&want,
		ledger.Process{PID: 1, Name: "Todo/Perf/full", Spans: runOf(todo).Spans, Marks: runOf(todo).ConfigMarks},
		ledger.Process{PID: 3, Name: "MSN/Perf/full", Spans: runOf(msn).Spans, Marks: runOf(msn).ConfigMarks},
	); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("trace body differs from ledger.WriteTrace of the jobs' runs:\n--- got\n%s--- want\n%s", body, want.Bytes())
	}
	var tf struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			PID int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var complete int
	pids := make(map[int]bool)
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			complete++
			pids[ev.PID] = true
		}
	}
	if complete != 2 { // only Todo's two spans; Google failed
		t.Errorf("complete events = %d, want 2", complete)
	}
	if len(pids) != 1 || !pids[1] {
		t.Errorf("trace pids = %v, want just pid 1 (Todo)", pids)
	}

	// Unknown sweep → 404 with a JSON error body.
	resp404, err := http.Get(srv.URL + "/v1/sweeps/s-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown trace = %d, want 404", resp404.StatusCode)
	}
}

func TestServerNotFoundAndMethodNotAllowed(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})

	for _, path := range []string{"/v1/sweeps/s-999999", "/v1/sweeps/s-999999/results",
		"/v1/sweeps/s-999999/events", "/v1/sweeps/s-999999/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var errBody struct {
			Code string `json:"code"`
		}
		json.NewDecoder(resp.Body).Decode(&errBody)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || errBody.Code != CodeUnknownSweep {
			t.Errorf("GET %s = %d code %q, want 404 %q", path, resp.StatusCode, errBody.Code, CodeUnknownSweep)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/sweeps") // only POST is registered
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweeps = %d, want 405", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/healthz", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /healthz = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /no/such/route = %d, want 404", resp.StatusCode)
	}
}

// scrapeMetrics fetches /metrics and returns the sample lines (no comments)
// as a name{labels} → value map, plus the raw body for format assertions.
func scrapeMetrics(t *testing.T, srv *httptest.Server) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples, string(raw)
}

func TestServerHealthAndMetrics(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 3})

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}

	// Run a tiny sweep so the counters are non-trivial.
	ack := postSweep(t, srv, `{"apps":["Todo"],"kinds":["Perf"],"phase":"micro"}`)
	m2, _ := http.Get(srv.URL + "/v1/sweeps/" + ack["id"].(string))
	m2.Body.Close()

	deadline := time.After(30 * time.Second)
	for {
		samples, raw := scrapeMetrics(t, srv)
		if samples["greenweb_fleet_workers"] != 3 || samples["greenweb_fleet_sweeps_total"] != 1 {
			t.Fatalf("metrics:\n%s", raw)
		}
		if samples["greenweb_fleet_jobs_done_total"] == 1 {
			if samples["greenweb_fleet_job_latency_seconds_count"] != 1 {
				t.Fatalf("latency histogram missing:\n%s", raw)
			}
			for _, want := range []string{
				"# TYPE greenweb_fleet_workers gauge",
				"# TYPE greenweb_fleet_jobs_done_total counter",
				"# TYPE greenweb_fleet_job_latency_seconds histogram",
				`greenweb_fleet_job_latency_seconds_bucket{le="+Inf"} 1`,
			} {
				if !strings.Contains(raw, want) {
					t.Errorf("exposition missing %q:\n%s", want, raw)
				}
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job never finished:\n%s", raw)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// /debug/pprof/ smoke: the index and a profile endpoint answer 200 with
// non-empty, well-typed bodies.
func TestServerPprofSmoke(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})

	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("GET /debug/pprof/ = %d, body %.80q", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine profile:") {
		t.Fatalf("GET /debug/pprof/goroutine = %d, body %.80q", resp.StatusCode, body)
	}
}

// GET /v1/sweeps/{id}/events streams the per-frame decision log as NDJSON:
// one row per frame span, tagged with the job index and app, energies summing
// to each run's frame-energy total. Decoded from each job's kept timeline,
// the rows are the bytes the jobs' own runs' decision logs render; a failed
// job and a job with an empty timeline contribute none.
func TestServerEventsEndpoint(t *testing.T) {
	var mu sync.Mutex
	runs := make(map[string]*harness.Run)
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		switch j.App {
		case "Google":
			return nil, errors.New("injected failure")
		case "BBC":
			return &harness.Run{Kind: j.Kind}, nil
		}
		run, err := j.execute(ctx)
		mu.Lock()
		runs[j.String()] = run
		mu.Unlock()
		return run, err
	}
	srv, _ := newTestServer(t, Options{Workers: 2, Execute: exec})

	req := SweepRequest{Apps: []string{"Todo", "Google", "BBC"}, Kinds: []string{"Perf", "GreenWeb-U"}, Phase: "micro"}
	ack := postSweep(t, srv, `{"apps":["Todo","Google","BBC"],"kinds":["Perf","GreenWeb-U"],"phase":"micro"}`)
	id := ack["id"].(string)

	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := req.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	mu.Lock()
	defer mu.Unlock()
	for i, j := range jobs {
		run := runs[j.String()]
		if run == nil {
			continue
		}
		for k := range run.Decisions {
			if err := enc.Encode(eventRow{Index: i, App: j.App, Kind: j.Kind, DecisionRow: run.Decisions[k].Row()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("events body differs from the jobs' own decision logs:\n--- got\n%s--- want\n%s", body, want.Bytes())
	}
	type row struct {
		Index   int     `json:"index"`
		App     string  `json:"app"`
		Span    int     `json:"span"`
		StartUS int64   `json:"start_us"`
		EndUS   int64   `json:"end_us"`
		EnergyJ float64 `json:"energy_j"`
	}
	perJob := make(map[int]int)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if r.App != "Todo" || r.Span <= 0 || r.EndUS < r.StartUS || r.EnergyJ < 0 {
			t.Fatalf("row = %+v", r)
		}
		perJob[r.Index]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(perJob) != 2 || perJob[0] == 0 || perJob[1] == 0 {
		t.Fatalf("decision rows per job = %v, want both jobs represented", perJob)
	}

	resp404, err := http.Get(srv.URL + "/v1/sweeps/s-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown events = %d, want 404", resp404.StatusCode)
	}
}

// A draining server refuses new sweeps with 503 but keeps serving reads, and
// Manager.Drain returns once in-flight sweeps finish.
func TestServerDrain(t *testing.T) {
	release := make(chan struct{})
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		select {
		case <-release:
			return &harness.Run{Frames: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	cluster := New(Options{Workers: 1, Execute: exec})
	m := NewManager(context.Background(), cluster)
	api := NewServer(m)
	srv := httptest.NewServer(api)
	t.Cleanup(func() {
		srv.Close()
		cluster.Close()
	})

	ack := postSweep(t, srv, `{"apps":["Todo"],"kinds":["Perf"]}`)
	id := ack["id"].(string)

	api.StartDrain()

	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(`{"apps":["Todo"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 has no Retry-After header")
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz while draining = %d, want 503", resp.StatusCode)
	}
	// Reads keep working for in-flight sweeps.
	resp, err = http.Get(srv.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status while draining = %d, want 200", resp.StatusCode)
	}

	done := make(chan error, 1)
	go func() { done <- m.Drain(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("Drain returned %v before the sweep finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Drain = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned after jobs finished")
	}
}

// An expired drain deadline cancels the stragglers: Drain returns the
// context error and every job delivers a terminal state.
func TestManagerDrainDeadlineCancels(t *testing.T) {
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		<-ctx.Done() // never finishes voluntarily
		return nil, ctx.Err()
	}
	cluster := New(Options{Workers: 1, Execute: exec})
	defer cluster.Close()
	m := NewManager(context.Background(), cluster)
	s, err := m.Enqueue([]Job{{App: "Todo", Kind: harness.Perf, Phase: Full}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	select {
	case <-s.Done():
	default:
		t.Fatal("sweep not terminal after expired drain")
	}
	r, err := s.Row(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != StateFailed || r.Error == "" {
		t.Fatalf("cancelled job row = %+v, want a failure", r)
	}
}

func TestServerDefaultsSweepTheWholeGrid(t *testing.T) {
	// An empty body sweeps all 12 apps under the 4 default kinds.
	req := SweepRequest{}
	jobs, err := req.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 12*len(DefaultKinds) {
		t.Fatalf("default grid = %d jobs, want %d", len(jobs), 12*len(DefaultKinds))
	}
	for _, j := range jobs {
		if j.Phase != Full {
			t.Fatalf("default phase = %q", j.Phase)
		}
		if j.Kind == harness.Ondemand {
			t.Fatal("Ondemand is not a default sweep kind")
		}
	}
}
