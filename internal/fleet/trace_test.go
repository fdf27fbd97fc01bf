package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/harness"
)

// fleetTraceDoc is the slice of the Chrome trace artifact these tests read.
type fleetTraceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	OtherData struct {
		Sweep     string `json:"sweep"`
		SpanDrops int64  `json:"span_drops"`
	} `json:"otherData"`
}

// TestFleetTraceEndpoint runs a sweep and pins the distributed trace
// artifact's shape: admission + per-job queue-wait/execute/job spans, the
// sweep id in otherData, and nondecreasing rebased timestamps starting at 0.
func TestFleetTraceEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 2})
	ack := postSweep(t, srv, `{"apps":["Todo","Google"],"kinds":["Perf"],"phase":"micro"}`)
	id := ack["id"].(string)

	// ?fleet=1 waits for sweep completion, so one GET covers submit-to-done.
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id + "/trace?fleet=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("trace?fleet=1 = %d: %s", resp.StatusCode, body)
	}
	var doc fleetTraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData.Sweep != id {
		t.Errorf("otherData.sweep = %q, want %q", doc.OtherData.Sweep, id)
	}

	counts := map[string]int{}
	var lastTS int64
	sawZero := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		counts[ev.Name]++
		if ev.TS < lastTS {
			t.Fatalf("timestamps regress: %q at %d after %d", ev.Name, ev.TS, lastTS)
		}
		lastTS = ev.TS
		if ev.TS == 0 {
			sawZero = true
		}
	}
	if !sawZero {
		t.Error("no event at rebased ts=0")
	}
	if counts["admission"] != 1 {
		t.Errorf("admission spans = %d, want 1", counts["admission"])
	}
	for _, name := range []string{"job", "queue-wait", "execute"} {
		if counts[name] != 2 {
			t.Errorf("%s spans = %d, want one per job (2)", name, counts[name])
		}
	}
}

// TestTracingOffReturnsNoFleetTrace: a manager with tracing off (greensrv
// -no-obs) traces nothing and answers the fleet-trace endpoint with the
// structured no_fleet_trace 404, while its results stream, its decision log
// and its energy trace are byte-identical to a traced server's, and the
// last two are not empty.
func TestTracingOffReturnsNoFleetTrace(t *testing.T) {
	on, _ := newTestServer(t, Options{Workers: 2})
	off, m := newTestServer(t, Options{Workers: 2})
	m.SetTracing(false)
	if m.TracingEnabled() {
		t.Fatal("manager traces after SetTracing(false)")
	}

	const body = `{"apps":["Todo","BBC"],"kinds":["Perf","GreenWeb-U"],"phase":"micro"}`
	idOn := postSweep(t, on, body)["id"].(string)
	idOff := postSweep(t, off, body)["id"].(string)

	get := func(srv *httptest.Server, id, path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/sweeps/" + id + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	// Each body must hold what makes it non-empty: a finished row, a
	// decision row, a decision span.
	for _, c := range []struct{ path, want string }{
		{"/results?deterministic=1", `"state":"done"`},
		{"/events", `"decision":`},
		{"/trace", `"decide:`},
	} {
		traced, untraced := get(on, idOn, c.path), get(off, idOff, c.path)
		if traced != untraced {
			t.Fatalf("tracing changed %s:\n--- tracing on\n%s--- tracing off\n%s", c.path, traced, untraced)
		}
		if !strings.Contains(untraced, c.want) {
			t.Fatalf("%s with tracing off holds no %s: %.300s", c.path, c.want, untraced)
		}
	}

	resp, err := http.Get(off.URL + "/v1/sweeps/" + idOff + "/trace?fleet=1")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(b), "no_fleet_trace") {
		t.Fatalf("untraced fleet trace = %d %s, want structured no_fleet_trace 404", resp.StatusCode, b)
	}
}

// TestNodesEndpoint: a one-node server federates /v1/nodes — one
// always-up local row whose job count reflects finished work.
func TestNodesEndpoint(t *testing.T) {
	srv, m := newTestServer(t, Options{Workers: 2})
	id := postSweep(t, srv, `{"apps":["Todo"],"kinds":["Perf"],"phase":"micro"}`)["id"].(string)
	s, _ := m.Get(SweepID(id))
	select {
	case <-s.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("sweep never finished")
	}

	resp, err := http.Get(srv.URL + "/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/nodes = %d", resp.StatusCode)
	}
	var out struct {
		Nodes []NodeInfo `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Nodes) != 1 {
		t.Fatalf("nodes = %+v, want one local row", out.Nodes)
	}
	n := out.Nodes[0]
	if n.Kind != "local" || !n.Up || n.Workers != 2 || n.Jobs < 1 {
		t.Errorf("node row = %+v, want up local node with finished jobs", n)
	}
}

// TestFleetTraceBound: a manager keeps the fleet traces of its last
// maxTracedSweeps traced sweeps. Once that many newer sweeps hold one, the
// first sweep answers no_fleet_trace, while its status and results still
// serve.
func TestFleetTraceBound(t *testing.T) {
	srv, m := newTestServer(t, Options{Workers: 2, Execute: instantRun})
	var sweeps []*Sweep
	for i := 0; i <= maxTracedSweeps; i++ {
		s, err := m.Enqueue([]Job{{App: "Todo", Kind: harness.Perf, Phase: Micro}})
		if err != nil {
			t.Fatal(err)
		}
		sweeps = append(sweeps, s)
	}
	for _, s := range sweeps {
		<-s.Done()
	}
	get := func(s *Sweep, ep string) (int, string) {
		t.Helper()
		return getBody(t, srv.URL+"/v1/sweeps/"+string(s.ID)+ep)
	}
	first, second, last := sweeps[0], sweeps[1], sweeps[maxTracedSweeps]
	if code, body := get(first, "/trace?fleet=1"); code != http.StatusNotFound || !strings.Contains(body, CodeNoFleetTrace) {
		t.Fatalf("first of %d sweeps: fleet trace = %d %q, want 404 no_fleet_trace", len(sweeps), code, body)
	}
	if code, _ := get(first, ""); code != http.StatusOK {
		t.Fatalf("first sweep's status = %d, want 200", code)
	}
	if code, body := get(first, "/results"); code != http.StatusOK || strings.Count(body, "\n") != 1 {
		t.Fatalf("first sweep's results = %d %q, want its one row", code, body)
	}
	for _, s := range []*Sweep{second, last} {
		if code, body := get(s, "/trace?fleet=1"); code != http.StatusOK || !strings.Contains(body, `"queue-wait"`) {
			t.Fatalf("sweep %s: fleet trace = %d %.200q, want its spans", s.ID, code, body)
		}
	}
}
