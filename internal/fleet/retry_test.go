package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/harness"
)

// flakyExec fails each job's first failuresPerJob attempts, then succeeds.
func flakyExec(failuresPerJob int) func(context.Context, Job) (*harness.Run, error) {
	var mu sync.Mutex
	attempts := make(map[string]int)
	return func(ctx context.Context, j Job) (*harness.Run, error) {
		mu.Lock()
		attempts[j.App]++
		n := attempts[j.App]
		mu.Unlock()
		if n <= failuresPerJob {
			return nil, fmt.Errorf("transient failure %d of %s", n, j.App)
		}
		return &harness.Run{}, nil
	}
}

func TestRetryRecoversFlakyJob(t *testing.T) {
	p := New(Options{
		Workers: 1, MaxAttempts: 4,
		RetryBaseDelay: time.Millisecond, RetryMaxDelay: 4 * time.Millisecond,
		Execute: flakyExec(2),
	})
	defer p.Close()
	res := p.RunSweep(context.Background(), []Job{{App: "flaky"}})[0]
	if res.Err != nil {
		t.Fatalf("flaky job failed despite retries: %v", res.Err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (2 failures + 1 success)", res.Attempts)
	}
	if len(res.History) != 2 || !strings.Contains(res.History[0], "transient failure 1") {
		t.Fatalf("history = %v, want the two failed attempts", res.History)
	}
	if res.Quarantined {
		t.Fatal("recovered job marked quarantined")
	}
	st := p.Stats()
	if st.Retried != 2 || st.Quarantined != 0 || st.Done != 1 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want retried=2 quarantined=0 done=1", st)
	}
}

func TestQuarantineAfterExhaustedAttempts(t *testing.T) {
	p := New(Options{
		Workers: 1, MaxAttempts: 3,
		RetryBaseDelay: time.Millisecond,
		Execute:        flakyExec(1 << 30), // never succeeds
	})
	defer p.Close()
	res := p.RunSweep(context.Background(), []Job{{App: "doomed"}})[0]
	if res.Err == nil || !res.Quarantined {
		t.Fatalf("doomed job: err=%v quarantined=%v, want failure + quarantine", res.Err, res.Quarantined)
	}
	if res.Attempts != 3 || len(res.History) != 3 {
		t.Fatalf("attempts=%d history=%v, want 3 recorded attempts", res.Attempts, res.History)
	}
	if !strings.Contains(res.Err.Error(), "transient failure 3") {
		t.Fatalf("final err = %v, want the last attempt's error", res.Err)
	}
	st := p.Stats()
	if st.Retried != 2 || st.Quarantined != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want retried=2 quarantined=1 failed=1", st)
	}
}

func TestPanickingAttemptIsRetried(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	p := New(Options{
		Workers: 1, MaxAttempts: 2, RetryBaseDelay: time.Millisecond,
		Execute: func(ctx context.Context, j Job) (*harness.Run, error) {
			mu.Lock()
			calls++
			first := calls == 1
			mu.Unlock()
			if first {
				panic("first attempt crashes")
			}
			return &harness.Run{}, nil
		},
	})
	defer p.Close()
	res := p.RunSweep(context.Background(), []Job{{App: "crashy"}})[0]
	if res.Err != nil {
		t.Fatalf("panicking job not recovered by retry: %v", res.Err)
	}
	if res.Attempts != 2 || len(res.History) != 1 || !strings.Contains(res.History[0], "panicked") {
		t.Fatalf("attempts=%d history=%v, want the recovered panic on record", res.Attempts, res.History)
	}
}

func TestCancelledSweepIsNotQuarantined(t *testing.T) {
	started := make(chan Job, 1)
	release := make(chan struct{})
	defer close(release)
	p := New(Options{
		Workers: 1, MaxAttempts: 5, RetryBaseDelay: time.Millisecond,
		Execute: fakeExec(started, release),
	})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Result, 1)
	if err := p.Start(ctx, Job{App: "hung"}, nil, func(r Result) { done <- r }); err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	res := <-done
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.Err)
	}
	if res.Quarantined {
		t.Fatal("sweep-level cancellation must not quarantine the job")
	}
	if res.Attempts != 1 {
		t.Fatalf("cancelled job retried %d times; cancellation must stop the ladder", res.Attempts-1)
	}
	if st := p.Stats(); st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want no quarantines", st)
	}
}

// TestBackoffDeterministicCappedAndJittered: both of Backoff's uses — the
// retry ladder keyed by job, the remote transport's reconnect loop keyed by
// node — get a delay that is deterministic, doubles per attempt up to the
// cap within ±25% jitter, and differs between two keys.
func TestBackoffDeterministicCappedAndJittered(t *testing.T) {
	const base, max = 10 * time.Millisecond, 80 * time.Millisecond
	for _, keys := range [][2]string{
		{Job{App: "a", Kind: harness.Perf, Phase: Full}.String(), Job{App: "b", Kind: harness.Perf, Phase: Full}.String()},
		{"reconnect 0", "reconnect 1"},
	} {
		key := keys[0]
		for attempt := 1; attempt <= 8; attempt++ {
			d1 := Backoff(base, max, 42, key, attempt)
			d2 := Backoff(base, max, 42, key, attempt)
			if d1 != d2 {
				t.Fatalf("%s attempt %d: backoff not deterministic (%v vs %v)", key, attempt, d1, d2)
			}
			// Nominal delay doubles per attempt, capped at the max; jitter
			// keeps the realized delay within ±25% of nominal.
			nominal := min(base<<(attempt-1), max)
			lo, hi := nominal*3/4, nominal*5/4
			if d1 < lo || d1 > hi {
				t.Fatalf("%s attempt %d: backoff %v outside [%v, %v]", key, attempt, d1, lo, hi)
			}
		}
		if Backoff(base, max, 42, key, 1) == Backoff(base, max, 42, keys[1], 1) {
			t.Fatalf("%s and %s share a backoff; jitter is not keyed", key, keys[1])
		}
	}
}

// TestSweepNDJSONDeterministicWithRetries: the deterministic NDJSON render
// of a sweep containing a quarantined job is byte-identical across two fresh
// clusters — retry provenance (attempt count, per-attempt errors) included.
func TestSweepNDJSONDeterministicWithRetries(t *testing.T) {
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		if j.App == "doomed" {
			return nil, fmt.Errorf("%w (simulated)", faults.ErrStorm)
		}
		return &harness.Run{}, nil
	}
	jobs := []Job{{App: "ok1"}, {App: "doomed"}, {App: "ok2"}}
	render := func() string {
		p := New(Options{Workers: 3, MaxAttempts: 3, RetryBaseDelay: time.Millisecond, Execute: exec})
		defer p.Close()
		var buf bytes.Buffer
		if err := WriteResults(&buf, p.RunSweep(context.Background(), jobs), true); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("deterministic NDJSON diverged across runs:\n%s\nvs\n%s", a, b)
	}

	// Row 1 carries the full retry provenance.
	rows := strings.Split(strings.TrimSpace(a), "\n")
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	var doomed ResultRow
	if err := json.Unmarshal([]byte(rows[1]), &doomed); err != nil {
		t.Fatal(err)
	}
	if doomed.Attempts != 3 || !doomed.Quarantined || len(doomed.AttemptErrors) != 3 {
		t.Fatalf("doomed row = %+v, want attempts=3 quarantined attempt_errors×3", doomed)
	}
	if !strings.Contains(doomed.Error, "fault storm") {
		t.Fatalf("doomed row error = %q, want last error surfaced", doomed.Error)
	}
	// Clean rows must not grow retry columns (byte-identity with pre-retry
	// output for unfaulted sweeps).
	for _, i := range []int{0, 2} {
		if strings.Contains(rows[i], "attempts") || strings.Contains(rows[i], "quarantined") {
			t.Fatalf("clean row %d leaked retry columns: %s", i, rows[i])
		}
	}
}

// TestFaultSweepThermalCapZeroQuarantines runs a real faulted sweep: under a
// standing thermal cap every cell must complete (graceful degradation, not
// job death), Perf cells must show the trips, and GreenWeb-I must still beat
// Perf on energy per app.
func TestFaultSweepThermalCapZeroQuarantines(t *testing.T) {
	th := acmp.DefaultThermalParams()
	spec := &faults.Spec{Seed: 21, Thermal: &th}
	appNames := []string{"MSN", "Todo"}
	var jobs []Job
	for _, a := range appNames {
		for _, k := range []harness.Kind{harness.Perf, harness.GreenWebI} {
			jobs = append(jobs, Job{App: a, Kind: k, Phase: Full, Faults: spec})
		}
	}
	p := New(Options{Workers: 2, MaxAttempts: 3})
	defer p.Close()
	res := p.RunSweep(context.Background(), jobs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d (%s) failed: %v", i, r.Job, r.Err)
		}
		if r.Quarantined || r.Attempts != 1 {
			t.Fatalf("job %d (%s): attempts=%d quarantined=%v, want clean first-try success",
				i, r.Job, r.Attempts, r.Quarantined)
		}
	}
	if st := p.Stats(); st.Quarantined != 0 || st.Retried != 0 {
		t.Fatalf("stats = %+v, want no retries or quarantines under a pure thermal cap", st)
	}
	for i := 0; i < len(res); i += 2 {
		perf, green := res[i], res[i+1]
		if perf.Row.ThermalTrips == 0 {
			t.Fatalf("%s: Perf never tripped the thermal governor", perf.Job.App)
		}
		if green.Row.EnergyJ >= perf.Row.EnergyJ {
			t.Fatalf("%s: GreenWeb-I %.3f J not below Perf %.3f J under thermal cap",
				green.Job.App, green.Row.EnergyJ, perf.Row.EnergyJ)
		}
	}
}
