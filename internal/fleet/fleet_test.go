package fleet

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/harness"
)

// fakeExec returns an executor that signals started on entry and blocks
// until release is closed (or ctx is done).
func fakeExec(started chan<- Job, release <-chan struct{}) func(context.Context, Job) (*harness.Run, error) {
	return func(ctx context.Context, j Job) (*harness.Run, error) {
		if started != nil {
			started <- j
		}
		select {
		case <-release:
			return &harness.Run{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestRunSweepZeroJobs(t *testing.T) {
	p := New(Options{Workers: 2})
	defer p.Close()
	done := make(chan []Result, 1)
	go func() { done <- p.RunSweep(context.Background(), nil) }()
	select {
	case res := <-done:
		if len(res) != 0 {
			t.Fatalf("got %d results for zero jobs", len(res))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunSweep deadlocked on zero jobs")
	}
}

func TestSubmitAfterCloseRejected(t *testing.T) {
	p := New(Options{Workers: 1, Execute: fakeExec(nil, closedChan())})
	p.Close()
	if err := p.Start(context.Background(), Job{App: "a"}, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Start after Close = %v, want ErrClosed", err)
	}
}

func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

func TestJobPanicBecomesFailedResult(t *testing.T) {
	boom := func(ctx context.Context, j Job) (*harness.Run, error) {
		if j.App == "boom" {
			panic("cell crashed")
		}
		return &harness.Run{}, nil
	}
	p := New(Options{Workers: 2, Execute: boom})
	defer p.Close()
	res := p.RunSweep(context.Background(), []Job{{App: "ok1"}, {App: "boom"}, {App: "ok2"}})
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatalf("healthy cells failed: %v, %v", res[0].Err, res[2].Err)
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "panicked") {
		t.Fatalf("panicking cell: err = %v, want panic conversion", res[1].Err)
	}
	// The sweep survived and the cluster still works.
	again := p.RunSweep(context.Background(), []Job{{App: "ok3"}})
	if again[0].Err != nil {
		t.Fatalf("cluster dead after panic: %v", again[0].Err)
	}
	if d, f := p.done.Load(), p.failed.Load(); f != 1 || d != 3 {
		t.Fatalf("counters done=%d failed=%d, want 3/1", d, f)
	}
}

// The real harness panics on an unknown governor kind; the fleet must turn
// that into a failed result too (a Job built directly, bypassing Validate).
func TestHarnessPanicRecovered(t *testing.T) {
	p := New(Options{Workers: 1})
	defer p.Close()
	res := p.RunSweep(context.Background(), []Job{{App: "Todo", Kind: "no-such-governor", Phase: Full}})
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "panicked") {
		t.Fatalf("err = %v, want recovered panic", res[0].Err)
	}
}

func TestCancellationMidSweep(t *testing.T) {
	started := make(chan Job, 4)
	release := make(chan struct{})
	defer close(release)
	p := New(Options{Workers: 2, Execute: fakeExec(started, release)})
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{App: "x"}
	}
	resc := make(chan []Result, 1)
	go func() { resc <- p.RunSweep(ctx, jobs) }()
	<-started
	<-started // both workers busy, the other six jobs queued
	cancel()

	select {
	case res := <-resc:
		if len(res) != len(jobs) {
			t.Fatalf("got %d results, want %d", len(res), len(jobs))
		}
		cancelled := 0
		for _, r := range res {
			if errors.Is(r.Err, context.Canceled) {
				cancelled++
			}
		}
		if cancelled == 0 {
			t.Fatal("no cell reported cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep did not unwind after cancellation")
	}
}

func TestJobTimeoutBecomesFailedResult(t *testing.T) {
	p := New(Options{Workers: 1, JobTimeout: 10 * time.Millisecond, Execute: fakeExec(nil, make(chan struct{}))})
	defer p.Close()
	res := p.RunSweep(context.Background(), []Job{{App: "slow"}})
	if !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", res[0].Err)
	}
}

// table3Jobs is the full-interaction Table 3 sweep: every application under
// the paper's two baselines and both GreenWeb scenarios.
func table3Jobs() []Job {
	var jobs []Job
	for _, a := range apps.All() {
		for _, k := range DefaultKinds {
			jobs = append(jobs, Job{App: a.Name, Kind: k, Phase: Full})
		}
	}
	return jobs
}

// marshalRuns canonicalizes results for byte-for-byte comparison: the
// sweep's deterministic NDJSON rows, then every job's timeline block, which
// pins each run's spans, decisions and config marks down to the float bits.
func marshalRuns(t *testing.T, res []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResults(&buf, res, true); err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job, r.Err)
		}
		if len(r.Timeline) == 0 {
			t.Fatalf("%s: empty timeline", r.Job)
		}
		buf.Write(r.Timeline)
	}
	return buf.Bytes()
}

// TestParallelSweepMatchesSequentialByteForByte runs the full Table 3
// sweep through a 4-worker fleet and through the plain sequential harness,
// and requires the serialized measurements to be identical bytes.
func TestParallelSweepMatchesSequentialByteForByte(t *testing.T) {
	jobs := table3Jobs()

	p := New(Options{Workers: 4})
	defer p.Close()
	par := marshalRuns(t, p.RunSweep(context.Background(), jobs))

	var seq []Result
	for _, j := range jobs {
		app, _ := apps.ByName(j.App)
		run, err := harness.ExecuteCell(context.Background(), harness.Cell{App: app, Kind: j.Kind, Full: true})
		if err != nil {
			t.Fatalf("%s: %v", j, err)
		}
		row, block := project(run)
		seq = append(seq, Result{Job: j, Row: row, Timeline: block})
	}
	want := marshalRuns(t, seq)

	if string(par) != string(want) {
		t.Fatalf("parallel sweep diverged from sequential harness:\npar: %.400s\nseq: %.400s", par, want)
	}
}

func TestStatsCounters(t *testing.T) {
	p := New(Options{Workers: 2})
	defer p.Close()
	res := p.RunSweep(context.Background(), []Job{
		{App: "Todo", Kind: harness.Perf, Phase: Full},
		{App: "Google", Kind: harness.Perf, Phase: Micro},
	})
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Latency <= 0 {
			t.Fatal("missing job latency")
		}
	}
	if d, f, q, r := p.done.Load(), p.failed.Load(), p.q.len(), p.running.Load(); d != 2 || f != 0 || q != 0 || r != 0 {
		t.Fatalf("done=%d failed=%d queued=%d running=%d, want 2/0/0/0", d, f, q, r)
	}
	if out := scrape(t, p); !strings.Contains(out, "greenweb_fleet_job_latency_seconds_count 2\n") {
		t.Fatalf("latency histogram count is not 2:\n%s", out)
	}
	if u := p.utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestJobValidate(t *testing.T) {
	cases := []struct {
		job Job
		ok  bool
	}{
		{Job{App: "Todo", Kind: harness.Perf, Phase: Full}, true},
		{Job{App: "Todo", Kind: harness.GreenWebI, Phase: Micro, Repeats: 5}, true},
		{Job{App: "Nope", Kind: harness.Perf, Phase: Full}, false},
		{Job{App: "Todo", Kind: "Warp", Phase: Full}, false},
		{Job{App: "Todo", Kind: harness.Perf, Phase: "half"}, false},
		{Job{App: "Todo", Kind: harness.Perf, Phase: Full, Repeats: -1}, false},
	}
	for _, c := range cases {
		if err := c.job.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.job, err, c.ok)
		}
	}
}

// Deliver must be called exactly once per job even under heavy concurrent
// submission (run with -race).
func TestDeliverExactlyOnce(t *testing.T) {
	p := New(Options{Workers: 4, Execute: func(ctx context.Context, j Job) (*harness.Run, error) {
		return &harness.Run{}, nil
	}})
	defer p.Close()
	const n = 200
	var mu sync.Mutex
	counts := make(map[int]int)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Start(context.Background(), Job{App: "x"}, nil, func(Result) {
				mu.Lock()
				counts[i]++
				mu.Unlock()
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// The cluster counts a job done just before it delivers it, so wait for
	// the deliveries themselves.
	deadline := time.After(10 * time.Second)
	for {
		mu.Lock()
		delivered := len(counts)
		mu.Unlock()
		if delivered == n {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("jobs did not drain: %d of %d delivered", delivered, n)
		case <-time.After(time.Millisecond):
		}
	}
	if d := p.done.Load(); d != n {
		t.Fatalf("done = %d, want %d", d, n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if counts[i] != 1 {
			t.Fatalf("job %d delivered %d times", i, counts[i])
		}
	}
}

// TestPoolOverlapsJobs verifies the scheduler actually runs cells
// concurrently, independent of host core count: 8 jobs that each sleep
// 30 ms must finish in far less than 8×30 ms on 4 workers. (The real-sweep
// speedup is BenchmarkFleetSweep's job and needs ≥4 hardware cores.)
func TestPoolOverlapsJobs(t *testing.T) {
	naptime := 30 * time.Millisecond
	nap := func(ctx context.Context, j Job) (*harness.Run, error) {
		select {
		case <-time.After(naptime):
			return &harness.Run{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	p := New(Options{Workers: 4, Execute: nap})
	defer p.Close()
	jobs := make([]Job, 8)
	start := time.Now()
	res := p.RunSweep(context.Background(), jobs)
	elapsed := time.Since(start)
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	// 8 jobs / 4 workers = 2 waves ≈ 60 ms; sequential would be 240 ms.
	// The bound is generous for slow CI machines while still proving
	// overlap.
	if elapsed >= 8*naptime*2/3 {
		t.Fatalf("8×%v jobs took %v on 4 workers — no overlap", naptime, elapsed)
	}
}

func BenchmarkFleetSweep(b *testing.B) {
	jobs := table3Jobs()
	for _, bench := range []struct {
		name    string
		workers int
	}{{"seq-1worker", 1}, {"par-4workers", 4}} {
		b.Run(bench.name, func(b *testing.B) {
			p := New(Options{Workers: bench.workers})
			defer p.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := p.RunSweep(context.Background(), jobs)
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
