package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/obs"
)

// topologyJobs is a sweep that exercises the paper grid AND the fault
// machinery: clean cells, thermally capped cells, and storm-doomed cells
// whose failed rows must not depend on topology.
func topologyJobs() []Job {
	capped := faults.Default(21)
	var jobs []Job
	for _, app := range []string{"MSN", "Todo"} {
		for _, kind := range []harness.Kind{harness.Perf, harness.GreenWebI} {
			jobs = append(jobs, Job{App: app, Kind: kind, Phase: Full})
			jobs = append(jobs, Job{App: app, Kind: kind, Phase: Full, Faults: capped})
		}
		jobs = append(jobs, Job{App: app, Kind: harness.GreenWebI, Phase: Full, Faults: doomed})
	}
	// A staged cell: its stage count and per-stage energy must not depend
	// on topology either.
	jobs = append(jobs, Job{App: "Todo", Kind: harness.GreenWebI, Phase: Full, StageWorkers: 4})
	return jobs
}

func ndjson(t *testing.T, res []Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResults(&buf, res, true); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTopologyDeterminism pins the standing guarantee at every tested
// node×worker count: sweep NDJSON — including a faulted sweep's failed
// rows — is byte-identical to the sequential reference at 1×1, 2×4, and
// 4×2.
func TestTopologyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace sweep ×4 topologies")
	}
	jobs := topologyJobs()
	var opts Options

	// The reference runs one LocalNode in a plain loop — no queue, no
	// pullers.
	n := NewLocalNode(opts)
	ref := make([]Result, len(jobs))
	for i, j := range jobs {
		ref[i] = n.Run(context.Background(), 0, j)
	}
	want := ndjson(t, ref)
	if !strings.Contains(want, faults.ErrStorm.Error()) {
		t.Fatalf("sweep exercised no fault storm; doomed spec too weak:\n%s", want)
	}

	for _, topo := range []struct{ nodes, workers int }{{1, 1}, {2, 4}, {4, 2}} {
		opts.Nodes, opts.Workers = topo.nodes, topo.workers
		c := New(opts)
		got := ndjson(t, c.RunSweep(context.Background(), jobs))
		c.Close()
		if got != want {
			t.Fatalf("%d×%d topology diverged from sequential output:\n--- got\n%s--- want\n%s",
				topo.nodes, topo.workers, got, want)
		}
	}
}

// TestClusterServesOldestFirst: a slot freed on any node takes the oldest
// queued job, whichever node's puller it is.
func TestClusterServesOldestFirst(t *testing.T) {
	const n = 6
	release := make([]chan struct{}, n)
	for i := range release {
		release[i] = make(chan struct{})
	}
	started := make(chan int, n)
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		i, _ := strconv.Atoi(j.App)
		started <- i
		select {
		case <-release[i]:
			return &harness.Run{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := New(Options{Nodes: 2, Workers: 1, Execute: exec})
	defer c.Close()
	// On failure, cancelling unblocks the held jobs so Close can drain.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{App: strconv.Itoa(i)}
	}
	done := make(chan []Result, 1)
	go func() { done <- c.RunSweep(ctx, jobs) }()
	next := func() int {
		select {
		case i := <-started:
			return i
		case <-time.After(5 * time.Second):
			t.Fatal("no job started")
			return -1
		}
	}

	older, newer := next(), next()
	if older > newer {
		older, newer = newer, older
	}
	if older != 0 || newer != 1 {
		t.Fatalf("first slots took jobs %d and %d; want 0 and 1", older, newer)
	}
	for want := 2; want < n; want++ {
		close(release[newer])
		if newer = next(); newer != want {
			t.Fatalf("freed slot took job %d; want the oldest queued, %d", newer, want)
		}
	}
	close(release[older])
	close(release[newer])
	for i, r := range <-done {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
	}
}

// TestClusterSlotsDistinctAcrossUnevenNodes: with a 2-wide and a 1-wide
// node, each puller reports its own slot, so every held job names a
// different one.
func TestClusterSlotsDistinctAcrossUnevenNodes(t *testing.T) {
	started := make(chan Job, 3)
	release := make(chan struct{})
	exec := fakeExec(started, release)
	c := NewWithNodes([]Node{
		NewLocalNode(Options{Workers: 2, Execute: exec}),
		NewLocalNode(Options{Workers: 1, Execute: exec}),
	})
	defer c.Close()
	done := make(chan []Result, 1)
	go func() { done <- c.RunSweep(context.Background(), make([]Job, 3)) }()
	// Each started job holds its puller, so three starts are three slots.
	for i := 0; i < 3; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			close(release)
			t.Fatal("fewer than three jobs started")
		}
	}
	close(release)
	seen := map[int]bool{}
	for _, r := range <-done {
		seen[r.Worker] = true
	}
	if len(seen) != 3 || !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("held jobs ran on slots %v, want {0, 1, 2}", seen)
	}
}

// TestClusterCloseDrainsAndRefuses: Close runs what is queued before it
// returns, and refuses further submissions with ErrClosed.
func TestClusterCloseDrainsAndRefuses(t *testing.T) {
	block := make(chan struct{})
	c := New(Options{Nodes: 2, Workers: 1, Execute: fakeExec(nil, block)})

	var done atomic.Int64
	deliver := func(r Result) {
		if r.Err == nil {
			done.Add(1)
		}
	}
	// 2 running + 2 queued.
	for i := 0; i < 4; i++ {
		if err := c.Start(context.Background(), Job{App: "a"}, nil, deliver); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	close(block)
	<-closed
	if got := done.Load(); got != 4 {
		t.Fatalf("Close returned with %d of 4 jobs done", got)
	}
	if err := c.Start(context.Background(), Job{App: "c"}, nil, nil); err != ErrClosed {
		t.Fatalf("Start after Close = %v, want ErrClosed", err)
	}
}

// waitingNode is a LocalNode whose pullers' Wait blocks until done closes,
// like a remote node that reconnects for longer than the test runs.
type waitingNode struct{ *LocalNode }

func (waitingNode) Wait(done <-chan struct{}) bool {
	<-done
	return false
}

// TestClusterCloseSkipsWaitingNode: a node that cannot take jobs holds its
// pullers off the queue, so the live node runs every job, and Close neither
// waits for the node nor loses a job: what no node took fails with
// ErrClosed.
func TestClusterCloseSkipsWaitingNode(t *testing.T) {
	exec := fakeExec(nil, closedChan())
	live := NewLocalNode(Options{Workers: 1, Execute: exec})
	c := NewWithNodes([]Node{live, waitingNode{NewLocalNode(Options{Workers: 2, Execute: exec})}})
	for i, r := range c.RunSweep(context.Background(), make([]Job, 6)) {
		if r.Err != nil || r.Worker != 0 {
			t.Fatalf("job %d: worker %d, err %v; want the live node's slot 0", i, r.Worker, r.Err)
		}
	}
	c.Close()

	lone := NewWithNodes([]Node{waitingNode{NewLocalNode(Options{Workers: 1, Execute: exec})}})
	res := make(chan Result, 1)
	if err := lone.Start(context.Background(), Job{App: "a"}, nil, func(r Result) { res <- r }); err != nil {
		t.Fatal(err)
	}
	lone.Close()
	select {
	case r := <-res:
		if !errors.Is(r.Err, ErrClosed) {
			t.Fatalf("untaken job: err %v, want ErrClosed", r.Err)
		}
	default:
		t.Fatal("Close returned without delivering the job no node took")
	}
}

// scrape returns the cluster's exposition.
func scrape(t *testing.T, c *Cluster) string {
	t.Helper()
	var buf bytes.Buffer
	e := obs.NewExposition(&buf)
	c.WriteMetrics(e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestClusterMetricsExposition: the cluster serves the greenweb_fleet_*
// family (dashboard continuity) plus per-node job counters.
func TestClusterMetricsExposition(t *testing.T) {
	c := New(Options{Nodes: 2, Workers: 1, Execute: fakeExec(nil, closedChan())})
	defer c.Close()
	c.RunSweep(context.Background(), make([]Job, 12))

	out := scrape(t, c)
	for _, want := range []string{
		"greenweb_fleet_jobs_done_total 12",
		"greenweb_fleet_queue_depth 0",
		"greenweb_shard_nodes 2",
		`greenweb_shard_node_jobs_total{node="0"}`,
		`greenweb_shard_node_jobs_total{node="1"}`,
		"# TYPE greenweb_fleet_job_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPerNodeSamplesPastSixtyFour: each per-node family carries one sample
// per node, however many nodes the cluster has, each with its own node's
// value and in node order.
func TestPerNodeSamplesPastSixtyFour(t *testing.T) {
	const nodes = 70
	c := New(Options{Nodes: nodes, Workers: 1, Execute: fakeExec(nil, closedChan())})
	defer c.Close()
	for i := 0; i < nodes; i++ {
		c.pulled[i].Store(int64(i))
		c.rehomed[i].Store(int64(2 * i))
		if i%3 == 0 {
			c.Evict(i)
		}
	}
	value := map[string]func(i int) int{
		"greenweb_shard_node_up": func(i int) int {
			if i%3 == 0 {
				return 0
			}
			return 1
		},
		"greenweb_shard_node_jobs_total":    func(i int) int { return i },
		"greenweb_shard_rehomed_jobs_total": func(i int) int { return 2 * i },
	}
	out := scrape(t, c)
	for fam, v := range value {
		var want strings.Builder
		for i := 0; i < nodes; i++ {
			fmt.Fprintf(&want, "%s{node=\"%d\"} %d\n", fam, i, v(i))
		}
		if !strings.Contains(out, want.String()) {
			t.Errorf("%s: want these %d samples in a row:\n%s\nin:\n%s", fam, nodes, want.String(), out)
		}
	}
}

// TestClusterDeliverExactlyOnceUnderCancel mirrors TestDeliverExactlyOnce:
// every submission delivers exactly one terminal result even when the sweep
// context dies mid-flight.
func TestClusterDeliverExactlyOnceUnderCancel(t *testing.T) {
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
			return &harness.Run{}, nil
		}
	}
	c := New(Options{Nodes: 3, Workers: 2, Execute: exec})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	jobs := make([]Job, 40)
	res := c.RunSweep(ctx, jobs)
	if len(res) != 40 {
		t.Fatalf("got %d results, want 40", len(res))
	}
	var ok, failed int
	for _, r := range res {
		if r.Err != nil {
			failed++
		} else {
			ok++
		}
	}
	if ok+failed != 40 {
		t.Fatalf("ok=%d failed=%d, want 40 total", ok, failed)
	}
}

// TestClusterCloseRacesSubmissions: Close while submitters hammer Start,
// together keeping up to 16 jobs in flight. Every accepted submission must
// deliver exactly once, every post-close Start must return the typed
// ErrClosed, and no goroutine may outlive the cluster. Meaningful under
// -race, which the CI test job runs.
func TestClusterCloseRacesSubmissions(t *testing.T) {
	before := runtime.NumGoroutine()
	exec := func(ctx context.Context, j Job) (*harness.Run, error) {
		d := time.Millisecond
		if j.App == "slow" {
			d = 5 * time.Millisecond
		}
		select {
		case <-time.After(d):
			return &harness.Run{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := New(Options{Nodes: 3, Workers: 2, Execute: exec})

	var accepted, delivered, rejected atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// The queue never blocks, so the submitters bound their own backlog:
	// a slot is taken per Start and given back on delivery.
	window := make(chan struct{}, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case window <- struct{}{}:
				}
				app := "fast"
				if (g+i)%3 == 0 {
					app = "slow" // uneven latency staggers the pullers' pops
				}
				err := c.Start(context.Background(), Job{App: app}, nil, func(Result) {
					delivered.Add(1)
					<-window
				})
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrClosed):
					<-window
					rejected.Add(1)
					return
				default:
					<-window
					t.Errorf("Start returned unexpected error: %v", err)
					return
				}
			}
		}(g)
	}

	time.Sleep(20 * time.Millisecond) // let submissions build up
	c.Close()
	close(stop)
	wg.Wait()

	if err := c.Start(context.Background(), Job{App: "late"}, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Start after Close = %v, want ErrClosed", err)
	}
	// Close drains the queue: everything accepted was delivered exactly once.
	deadline := time.Now().Add(2 * time.Second)
	for delivered.Load() != accepted.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() != accepted.Load() {
		t.Fatalf("accepted %d submissions but delivered %d results", accepted.Load(), delivered.Load())
	}
	// Pullers must be gone; allow the runtime a moment to retire exiting
	// goroutines.
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked across Close: %d before, %d after", before, runtime.NumGoroutine())
}

// TestEvictLeavesQueuedJobsToLiveNodes: after a node is evicted the live
// node's pullers take every queued job, and the sweep completes as if the
// node never existed.
func TestEvictLeavesQueuedJobsToLiveNodes(t *testing.T) {
	block := make(chan struct{})
	c := New(Options{Nodes: 2, Workers: 1, Execute: fakeExec(nil, block)})
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		if err := c.Start(context.Background(), Job{App: "a"}, nil, func(r Result) {
			if r.Err != nil {
				t.Errorf("job failed after eviction: %v", r.Err)
			}
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	go c.Evict(0)
	time.Sleep(5 * time.Millisecond) // let the eviction land while jobs block
	close(block)
	wg.Wait()
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	c.Evict(0) // idempotent
	if c.Evictions() != 1 {
		t.Fatal("double eviction counted twice")
	}
}

// TestEvictLastNodeStrandsJobs: with no live sibling, queued jobs are
// delivered as typed ErrNoNodes failures and later submissions are refused
// with the same error.
func TestEvictLastNodeStrandsJobs(t *testing.T) {
	block := make(chan struct{})
	c := New(Options{Nodes: 1, Workers: 1, Execute: fakeExec(nil, block)})
	defer c.Close()

	results := make(chan Result, 3)
	for i := 0; i < 3; i++ {
		if err := c.Start(context.Background(), Job{App: "a"}, nil, func(r Result) {
			results <- r
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the single puller to hold one job in flight; the other two
	// are queued and will strand.
	deadline := time.Now().Add(2 * time.Second)
	for c.running.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	go c.Evict(0)
	time.Sleep(5 * time.Millisecond)
	close(block) // let the in-flight job finish

	var failed, succeeded int
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			if r.Err == nil {
				succeeded++
			} else if errors.Is(r.Err, ErrNoNodes) {
				failed++
			} else {
				t.Fatalf("stranded job got %v, want ErrNoNodes", r.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("stranded job never delivered")
		}
	}
	if succeeded != 1 || failed != 2 {
		t.Fatalf("succeeded=%d failed=%d, want 1 in-flight success and 2 stranded failures", succeeded, failed)
	}
	if err := c.Start(context.Background(), Job{App: "late"}, nil, nil); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Start on fully evicted cluster = %v, want ErrNoNodes", err)
	}
}
