package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/store"
)

// instant stands in for the harness: every job finishes at once, and the
// jobs of app MSN fail.
func instant(_ context.Context, j fleet.Job) (*harness.Run, error) {
	if j.App == "MSN" {
		return nil, errors.New("injected failure")
	}
	return &harness.Run{Kind: j.Kind}, nil
}

// stubAPI is greensrv's HTTP API over a one-node cluster that runs jobs with
// instant, keeping finished sweeps in st when it is not nil.
func stubAPI(t *testing.T, st *store.Store) (*fleet.Manager, *fleet.Server) {
	t.Helper()
	cluster := fleet.New(fleet.Options{Workers: 2, Execute: instant})
	t.Cleanup(cluster.Close)
	m := fleet.NewManager(context.Background(), cluster)
	if st != nil {
		m.SetStore(st, nil)
	}
	return m, fleet.NewServer(m)
}

// drive runs greenload against h with one Perf job per listed app.
func drive(t *testing.T, h http.Handler, args ...string) report {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	rep, err := run(append([]string{"-addr", srv.URL, "-kinds", "Perf", "-timeout", "30s"}, args...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRejectionIsAbsorbed: two sweeps submitted at once against a one-token
// bucket refilling twice a second; the second is refused with a 429 whose
// retry_after_ms greenload sleeps before it submits again, so both sweeps
// complete and the rejection is counted.
func TestRejectionIsAbsorbed(t *testing.T) {
	_, api := stubAPI(t, nil)
	api.ConfigureAdmission(fleet.AdmissionOptions{RatePerSec: 2, Burst: 1})
	rep := drive(t, api, "-apps", "Todo", "-sweeps", "2", "-concurrency", "2")
	if rep.Rejections < 1 || rep.FailedSweeps != 0 || len(rep.SweepIDs) != 2 || rep.Jobs != 2 {
		t.Fatalf("report %+v: want both sweeps through after at least one absorbed rejection", rep)
	}
}

// TestFailedRowsAreCounted: each sweep's stream carries one row per job,
// and the row whose job failed counts as a failed job, not a failed sweep.
// The -json report carries the tallies and sweep IDs only.
func TestFailedRowsAreCounted(t *testing.T) {
	m, api := stubAPI(t, nil)
	out := filepath.Join(t.TempDir(), "load.json")
	rep := drive(t, api, "-apps", "Todo,MSN", "-sweeps", "3", "-concurrency", "2", "-json", out)
	if rep.Jobs != 6 || rep.FailedJobs != 3 || rep.FailedSweeps != 0 || len(rep.SweepIDs) != 3 {
		t.Fatalf("report %+v: want 3 sweeps of 2 jobs, one failed job each", rep)
	}
	for _, id := range rep.SweepIDs {
		if s, ok := m.Get(fleet.SweepID(id)); !ok || s.Len() != 2 {
			t.Fatalf("sweep %s was not a 2-job sweep of this server", id)
		}
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	want := []string{"failed_jobs", "failed_sweeps", "jobs", "rejections", "sweep_ids", "sweeps"}
	got := make([]string, 0, len(fields))
	for k := range fields {
		got = append(got, k)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("-json fields %v, want %v", got, want)
	}
}

// TestWaitPersisted: with a durable store behind the server, -wait-persisted
// returns only once each sweep's status says persisted.
func TestWaitPersisted(t *testing.T) {
	st, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	m, api := stubAPI(t, st)
	rep := drive(t, api, "-apps", "Todo,MSN", "-sweeps", "3", "-concurrency", "3", "-wait-persisted")
	if rep.FailedSweeps != 0 || len(rep.SweepIDs) != 3 {
		t.Fatalf("report %+v: want 3 sweeps through", rep)
	}
	for _, id := range rep.SweepIDs {
		if s, ok := m.Get(fleet.SweepID(id)); !ok || !s.Persisted() {
			t.Fatalf("greenload returned before sweep %s was persisted", id)
		}
	}
}

// TestShortStreamFailsTheSweep: a result stream that ends after its first
// row, one short of the sweep's two jobs, fails the sweep.
func TestShortStreamFailsTheSweep(t *testing.T) {
	_, api := stubAPI(t, nil)
	cut := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/results") {
			api.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, r)
		first, _, _ := bytes.Cut(rec.Body.Bytes(), []byte("\n"))
		w.Write(append(first, '\n'))
	})
	rep := drive(t, cut, "-apps", "Todo,MSN", "-sweeps", "1", "-concurrency", "1")
	if rep.FailedSweeps != 1 || rep.Jobs != 2 || len(rep.SweepIDs) != 1 {
		t.Fatalf("report %+v: want the acknowledged sweep failed", rep)
	}
}
