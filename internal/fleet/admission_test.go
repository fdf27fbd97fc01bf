package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/harness"
)

// Sweep request bodies of one job and of four (2 apps × 2 kinds).
const (
	oneJob   = `{"apps":["Todo"],"kinds":["Perf"]}`
	fourJobs = `{"apps":["Todo","MSN"],"kinds":["Perf","GreenWeb-U"]}`
)

// postSweepRaw submits a sweep without asserting on the status code, with
// an optional client identity.
func postSweepRaw(t *testing.T, srv *httptest.Server, clientID, body string) (*http.Response, rejection) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/sweeps", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if clientID != "" {
		req.Header.Set("X-Client-ID", clientID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rej rejection
	if resp.StatusCode != http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
			t.Fatalf("status %d with unparsable body: %v", resp.StatusCode, err)
		}
	}
	return resp, rej
}

// checkRetryAfter asserts the header every rejection must carry: a positive
// integer number of seconds, consistent with the JSON retry_after_ms.
func checkRetryAfter(t *testing.T, resp *http.Response, rej rejection) {
	t.Helper()
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if secs < 1 {
		t.Fatalf("Retry-After = %d, want >= 1", secs)
	}
	if rej.RetryAfterMS <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", rej.RetryAfterMS)
	}
	if want := (rej.RetryAfterMS + 999) / 1000; int64(secs) != want {
		t.Fatalf("Retry-After = %ds disagrees with retry_after_ms %d", secs, rej.RetryAfterMS)
	}
}

// TestTokenBucketRefill drives the bucket math on an injected clock: a
// drained client is told exactly how long until its next token, and the
// bucket refills at RatePerSec without exceeding Burst.
func TestTokenBucketRefill(t *testing.T) {
	clock := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	a := newAdmission(AdmissionOptions{
		RatePerSec: 2, Burst: 2,
		now: func() time.Time { return clock },
	})
	for i := 0; i < 2; i++ {
		if rej := a.admit("c1", 0); rej != nil {
			t.Fatalf("burst submission %d rejected: %+v", i, rej)
		}
	}
	rej := a.admit("c1", 0)
	if rej == nil || rej.Code != CodeRateLimited {
		t.Fatalf("dry bucket admitted, rej = %+v", rej)
	}
	// 2 tokens/sec → next token in 500ms.
	if rej.RetryAfterMS != 500 {
		t.Fatalf("retry_after_ms = %d, want 500", rej.RetryAfterMS)
	}
	// Other clients have their own buckets.
	if rej := a.admit("c2", 0); rej != nil {
		t.Fatalf("fresh client rejected alongside drained one: %+v", rej)
	}
	clock = clock.Add(500 * time.Millisecond)
	if rej := a.admit("c1", 0); rej != nil {
		t.Fatalf("refilled bucket rejected: %+v", rej)
	}
	// A long idle stretch must cap at Burst, not accumulate unbounded.
	clock = clock.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if rej := a.admit("c1", 0); rej != nil {
			t.Fatalf("post-idle submission %d rejected: %+v", i, rej)
		}
	}
	if rej := a.admit("c1", 0); rej == nil {
		t.Fatal("bucket exceeded Burst after idle")
	}
}

// TestAdmissionClientCardinalityBound: past maxClients distinct identities,
// new clients share one overflow bucket instead of growing the map.
func TestAdmissionClientCardinalityBound(t *testing.T) {
	clock := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	a := newAdmission(AdmissionOptions{
		RatePerSec: 1, Burst: 1,
		now: func() time.Time { return clock },
	})
	for i := 0; i < maxClients; i++ {
		if rej := a.admit(fmt.Sprintf("c%d", i), 0); rej != nil {
			t.Fatalf("client %d's first submission rejected: %+v", i, rej)
		}
	}
	if rej := a.admit("first-overflow", 0); rej != nil {
		t.Fatalf("first overflow submission rejected: %+v", rej)
	}
	// The next new client shares the overflow bucket, which is now dry.
	if rej := a.admit("second-overflow", 0); rej == nil || rej.Code != CodeRateLimited {
		t.Fatalf("overflow bucket not shared, rej = %+v", rej)
	}
	if len(a.buckets) != maxClients {
		t.Fatalf("bucket map grew to %d, want capped at %d", len(a.buckets), maxClients)
	}
}

// TestServerRateLimitRejection: over HTTP, a client past its budget gets a
// 429 whose body and Retry-After header are machine-parsable.
func TestServerRateLimitRejection(t *testing.T) {
	cluster := New(Options{Workers: 1})
	m := NewManager(context.Background(), cluster)
	api := NewServer(m)
	api.ConfigureAdmission(AdmissionOptions{RatePerSec: 0.001, Burst: 1})
	srv := httptest.NewServer(api)
	t.Cleanup(func() {
		srv.Close()
		cluster.Close()
	})

	if resp, _ := postSweepRaw(t, srv, "loadgen-a", oneJob); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission = %d, want 202", resp.StatusCode)
	}
	resp, rej := postSweepRaw(t, srv, "loadgen-a", oneJob)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submission = %d, want 429", resp.StatusCode)
	}
	if rej.Code != CodeRateLimited {
		t.Fatalf("code = %q, want %q", rej.Code, CodeRateLimited)
	}
	checkRetryAfter(t, resp, rej)

	// A different client identity is not collateral damage.
	if resp, _ := postSweepRaw(t, srv, "loadgen-b", oneJob); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other client = %d, want 202", resp.StatusCode)
	}
}

// TestServerQueueDepthRejection: with workers wedged and the queue past the
// admission ceiling, submissions shed with 429 queue_full and report the
// observed depth. The 202 follows the push, so the first sweep's jobs are
// queued when it returns.
func TestServerQueueDepthRejection(t *testing.T) {
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
	api.ConfigureAdmission(AdmissionOptions{MaxQueueDepth: 2})
	srv := httptest.NewServer(api)
	t.Cleanup(func() {
		close(release)
		srv.Close()
		cluster.Close()
	})

	// The first sweep's 4 jobs wedge the lone worker and leave 3 queued,
	// past the ceiling of 2.
	if resp, _ := postSweepRaw(t, srv, "", fourJobs); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first sweep = %d, want 202", resp.StatusCode)
	}

	resp2, rej := postSweepRaw(t, srv, "", oneJob)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submission over full queue = %d, want 429", resp2.StatusCode)
	}
	if rej.Code != CodeQueueFull {
		t.Fatalf("code = %q, want %q", rej.Code, CodeQueueFull)
	}
	if rej.QueueDepth < 2 {
		t.Fatalf("queue_depth = %d, want >= 2", rej.QueueDepth)
	}
	checkRetryAfter(t, resp2, rej)
}

// TestQueueGateSeesWholeBacklog: the queue gate reads every waiting job,
// however many sweeps queued them. With one wedged worker and a ceiling of
// 8, three 4-job sweeps leave 11 jobs waiting, so the fourth is shed.
func TestQueueGateSeesWholeBacklog(t *testing.T) {
	started := make(chan Job, 16)
	release := make(chan struct{})
	cluster := New(Options{Workers: 1, Execute: fakeExec(started, release)})
	api := NewServer(NewManager(context.Background(), cluster))
	api.ConfigureAdmission(AdmissionOptions{MaxQueueDepth: 8})
	srv := httptest.NewServer(api)
	t.Cleanup(func() {
		close(release)
		srv.Close()
		cluster.Close()
	})

	for i := 1; i <= 3; i++ {
		if resp, _ := postSweepRaw(t, srv, "", fourJobs); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sweep %d = %d, want 202", i, resp.StatusCode)
		}
		if i == 1 {
			<-started // the worker holds one job; 3 wait
		}
	}
	resp, rej := postSweepRaw(t, srv, "", fourJobs)
	if resp.StatusCode != http.StatusTooManyRequests || rej.Code != CodeQueueFull {
		t.Fatalf("sweep 4 = %d %q, want 429 %q", resp.StatusCode, rej.Code, CodeQueueFull)
	}
	if rej.QueueDepth != 11 {
		t.Fatalf("queue_depth = %d, want 11", rej.QueueDepth)
	}
}

// TestDrainRejectionBody: the PR 5 drain path now speaks the same JSON
// rejection dialect as admission control — 503, code "draining", positive
// integer Retry-After.
func TestDrainRejectionBody(t *testing.T) {
	cluster := New(Options{Workers: 1})
	m := NewManager(context.Background(), cluster)
	api := NewServer(m)
	srv := httptest.NewServer(api)
	t.Cleanup(func() {
		srv.Close()
		cluster.Close()
	})

	api.StartDrain()
	resp, rej := postSweepRaw(t, srv, "", oneJob)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining = %d, want 503", resp.StatusCode)
	}
	if rej.Code != CodeDraining {
		t.Fatalf("code = %q, want %q", rej.Code, CodeDraining)
	}
	checkRetryAfter(t, resp, rej)
}
