package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/store"
)

// getBody fetches a URL and returns status code + body.
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// storeServer stands up a manager + HTTP server over a durable store rooted
// at dir, returning a teardown that closes everything in order. It fails
// the test if the manager refuses a recovered sweep other than refuse's.
func storeServer(t *testing.T, dir string, refuse ...SweepID) (*httptest.Server, *Manager, func()) {
	t.Helper()
	cluster := New(Options{Workers: 2})
	m := NewManager(context.Background(), cluster)
	st, recovered, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if refused := m.SetStore(st, recovered); !slices.Equal(refused, refuse) {
		t.Fatalf("manager refused recovered sweeps %v, want %v", refused, refuse)
	}
	srv := httptest.NewServer(NewServer(m))
	return srv, m, func() {
		srv.Close()
		cluster.Close()
		st.Close()
	}
}

// getStatus decodes the (indented) status body into a map.
func getStatus(t *testing.T, srv *httptest.Server, id string) (int, map[string]any) {
	t.Helper()
	code, body := getBody(t, srv.URL+"/v1/sweeps/"+id)
	st := map[string]any{}
	if code == http.StatusOK {
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("status body unparsable: %v\n%s", err, body)
		}
	}
	return code, st
}

// waitPersisted polls the status endpoint until the sweep reports durable.
func waitPersisted(t *testing.T, srv *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, st := getStatus(t, srv, id); st["persisted"] == true {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reported persisted", id)
}

// TestStoreReplayByteIdentical is the restart guarantee end to end: results
// streamed live, then replayed from disk by a fresh process, must be the
// same bytes. A recovered sweep whose row is not a result row, or carries
// columns a row no longer has (the retired retry columns), is not served at
// all: serving it would drop those columns from the bytes it persisted.
func TestStoreReplayByteIdentical(t *testing.T) {
	dir := t.TempDir()
	srv, _, shutdown := storeServer(t, dir)

	ack := postSweep(t, srv, `{"apps":["Todo","MSN"],"kinds":["Perf","GreenWeb-I"],"phase":"micro"}`)
	id := ack["id"].(string)
	waitPersisted(t, srv, id)

	code, live := getBody(t, srv.URL+"/v1/sweeps/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("live results = %d", code)
	}
	if n := strings.Count(live, "\n"); n != 4 {
		t.Fatalf("live stream has %d rows, want 4", n)
	}
	shutdown()

	// Two sweeps persisted with a row greensrv cannot serve byte for byte:
	// one that does not decode as a ResultRow, and one written with the
	// retired retry columns, which re-encodes byte for byte once they are
	// cut out.
	const kept = `{"index":0,"app":"Todo","kind":"GreenWeb-I","phase":"full","state":"failed",` +
		`"latency_ms":153.07,"error":"fault storm"}`
	retired := strings.Replace(kept, `"error"`,
		`"attempts":3,"attempt_errors":["fault storm","fault storm","fault storm"],"quarantined":true,"error"`, 1)
	var row ResultRow
	if err := json.Unmarshal([]byte(kept), &row); err != nil {
		t.Fatal(err)
	}
	if b, err := json.Marshal(row); err != nil || string(b) != kept {
		t.Fatalf("the retired row without its retry columns re-encodes to %s, want %s", b, kept)
	}
	bad := map[string]string{"s-000777": `{"index":"zero"}`, "s-000778": retired}
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"s-000777", "s-000778"} {
		if err := st.Begin(id, time.Now()); err != nil {
			t.Fatal(err)
		}
		if err := st.AppendRow(id, 0, json.RawMessage(bad[id])); err != nil {
			t.Fatal(err)
		}
		if err := st.End(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new manager over the same directory.
	srv2, m2, shutdown2 := storeServer(t, dir, "s-000777", "s-000778")
	defer shutdown2()
	for id := range bad {
		for _, ep := range []string{"", "/results"} {
			if code, body := getBody(t, srv2.URL+"/v1/sweeps/"+id+ep); code != http.StatusNotFound ||
				!strings.Contains(body, CodeUnknownSweep) {
				t.Fatalf("sweep %s with a bad row: GET %q = %d %q, want 404 unknown_sweep", id, ep, code, body)
			}
		}
	}

	code, replayed := getBody(t, srv2.URL+"/v1/sweeps/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("replayed results = %d", code)
	}
	if replayed != live {
		t.Fatalf("replay diverged from live stream:\n--- live\n%s--- replayed\n%s", live, replayed)
	}

	code, status := getStatus(t, srv2, id)
	if code != http.StatusOK || status["replayed"] != true || status["persisted"] != true {
		t.Fatalf("replayed status = %d %v, want replayed+persisted", code, status)
	}
	// Decision events are deliberately not persisted; the error must say so
	// with a machine-parsable code rather than pretend the sweep doesn't
	// exist. The trace endpoint shares the semantics.
	for _, ep := range []string{"/events", "/trace"} {
		code, body := getBody(t, srv2.URL+"/v1/sweeps/"+id+ep)
		if code != http.StatusNotFound || !strings.Contains(body, "not persisted") ||
			!strings.Contains(body, "replayed_no_trace") {
			t.Fatalf("replayed %s = %d %q, want structured 404 with code replayed_no_trace", ep, code, body)
		}
	}

	// The restarted manager must not reissue a persisted sweep's ID, the
	// refused ones' included.
	ack2 := postSweep(t, srv2, `{"apps":["Todo"],"kinds":["Perf"],"phase":"micro"}`)
	if id2 := ack2["id"].(string); id2 != "s-000779" {
		t.Fatalf("restarted manager minted %s after s-000778", id2)
	}
	s2, ok := m2.Get(SweepID(ack2["id"].(string)))
	if !ok {
		t.Fatal("restart-submitted sweep not registered")
	}
	<-s2.Done()
}

// TestDroppedSweepIDIsNeverReminted: a sweep that began but never ended
// (its server died mid-run) is dropped at recovery, yet a client may still
// poll its ID. A restarted manager mints past it, so that client reads
// unknown_sweep rather than another sweep's rows.
func TestDroppedSweepIDIsNeverReminted(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Begin("s-000001", time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv, m, shutdown := storeServer(t, dir)
	defer shutdown()
	if d := m.Store().Dropped(); d != 1 {
		t.Fatalf("dropped sweeps = %d, want 1", d)
	}
	id := postSweep(t, srv, `{"apps":["Todo"],"kinds":["Perf"],"phase":"micro"}`)["id"].(string)
	if id != "s-000002" {
		t.Fatalf("restarted manager minted %s, want s-000002 past the dropped s-000001", id)
	}
	waitPersisted(t, srv, id)
	if code, body := getBody(t, srv.URL+"/v1/sweeps/s-000001"); code != http.StatusNotFound ||
		!strings.Contains(body, CodeUnknownSweep) {
		t.Fatalf("dropped sweep's ID = %d %q, want 404 unknown_sweep", code, body)
	}
}

// TestStoreSurvivesManagerWithoutStore: managers without a store keep the
// PR 1–5 behaviour — no persisted field, 404 after restart.
func TestStoreSurvivesManagerWithoutStore(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	ack := postSweep(t, srv, `{"apps":["Todo"],"kinds":["Perf"],"phase":"micro"}`)
	id := ack["id"].(string)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, st := getStatus(t, srv, id)
		if st["finished"] == true {
			if _, ok := st["persisted"]; ok {
				t.Fatalf("storeless sweep claims persistence: %v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeterministicResultsParam: ?deterministic=1 zeroes the latency_ms
// column on both the live stream and the store replay, so streams from
// different topologies (or across a restart) compare byte-for-byte. The CI
// remote-chaos smoke diffs exactly this.
func TestDeterministicResultsParam(t *testing.T) {
	dir := t.TempDir()
	srv, _, shutdown := storeServer(t, dir)
	ack := postSweep(t, srv, `{"apps":["Todo"],"kinds":["Perf","GreenWeb-U"],"phase":"micro"}`)
	id := ack["id"].(string)
	waitPersisted(t, srv, id)

	code, live := getBody(t, srv.URL+"/v1/sweeps/"+id+"/results?deterministic=1")
	if code != http.StatusOK {
		t.Fatalf("live deterministic results = %d", code)
	}
	if !strings.Contains(live, `"latency_ms":0,`) || strings.Contains(live, `"latency_ms":0.`) {
		t.Fatalf("latency not zeroed in deterministic stream:\n%s", live)
	}
	code, raw := getBody(t, srv.URL+"/v1/sweeps/"+id+"/results")
	if code != http.StatusOK {
		t.Fatalf("live results = %d", code)
	}
	if live == raw {
		t.Fatal("deterministic stream identical to raw stream; latency was never nonzero")
	}
	shutdown()

	// Fresh process over the same store: the replayed deterministic stream
	// must be the live deterministic bytes.
	srv2, _, shutdown2 := storeServer(t, dir)
	defer shutdown2()
	code, replay := getBody(t, srv2.URL+"/v1/sweeps/"+id+"/results?deterministic=1")
	if code != http.StatusOK {
		t.Fatalf("replayed deterministic results = %d", code)
	}
	if replay != live {
		t.Fatalf("store replay with deterministic=1 diverged from live stream:\n--- replay\n%s--- live\n%s", replay, live)
	}
}

// TestDrainPersistsFinishedSweeps: Drain returns only once every sweep is
// durable, so a server that closes its store right after Drain, as greensrv
// does, finds every sweep at the next Open. Jobs finish instantly, so each
// sweep's persistence is still running when its last job delivers.
func TestDrainPersistsFinishedSweeps(t *testing.T) {
	const trials, sweeps = 20, 8
	jobs := []Job{{App: "Todo", Kind: harness.Perf, Phase: Micro}, {App: "MSN", Kind: harness.Perf, Phase: Micro}}
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		st, _, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cluster := New(Options{Workers: 2, Execute: instantRun})
		m := NewManager(context.Background(), cluster)
		m.SetStore(st, nil)
		for i := 0; i < sweeps; i++ {
			if _, err := m.Enqueue(jobs); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		cluster.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, recovered, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		if len(recovered) != sweeps {
			t.Fatalf("trial %d: %d of %d drained sweeps recovered", trial, len(recovered), sweeps)
		}
	}
}

// instantRun completes every job at once with an empty run.
func instantRun(_ context.Context, j Job) (*harness.Run, error) {
	return &harness.Run{Kind: j.Kind}, nil
}
