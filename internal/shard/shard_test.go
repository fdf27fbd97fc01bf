package shard

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/obs"
)

// topologyJobs is a sweep that exercises the paper grid AND the fault
// machinery: clean cells, thermally capped cells, and storm-doomed cells
// whose retry/quarantine interleavings must not depend on topology.
func topologyJobs() []fleet.Job {
	doomed := &faults.Spec{
		Seed:       3,
		DVFS:       &faults.DVFSSpec{DenyProb: 0.95},
		StormAbort: 3,
	}
	capped := faults.Default(21)
	var jobs []fleet.Job
	for _, app := range []string{"MSN", "Todo"} {
		for _, kind := range []harness.Kind{harness.Perf, harness.GreenWebI} {
			jobs = append(jobs, fleet.Job{App: app, Kind: kind, Phase: fleet.Full})
			jobs = append(jobs, fleet.Job{App: app, Kind: kind, Phase: fleet.Full, Faults: capped})
		}
		// GreenWeb-I requests frequency switches constantly, so the 0.95
		// deny probability crosses the storm threshold within a few frames.
		jobs = append(jobs, fleet.Job{App: app, Kind: harness.GreenWebI, Phase: fleet.Full, Faults: doomed})
	}
	// A staged cell: its stage count and per-stage energy must survive the
	// trip to a remote worker and back.
	jobs = append(jobs, fleet.Job{App: "Todo", Kind: harness.GreenWebI, Phase: fleet.Full, StageWorkers: 4})
	return jobs
}

// render runs the sweep on a cluster, closes it, and returns the
// deterministic NDJSON.
func render(t *testing.T, c *fleet.Cluster, jobs []fleet.Job) string {
	t.Helper()
	defer c.Close()
	return ndjson(t, c.RunSweep(context.Background(), jobs))
}

// reference renders the sweep through one LocalNode's Run in a plain loop —
// no queue, no pullers — so parity tests compare the cluster against a
// scheduler-free oracle whose retry and quarantine provenance still comes
// from the same ladder.
func reference(t *testing.T, opts fleet.Options, jobs []fleet.Job) string {
	t.Helper()
	n := fleet.NewLocalNode(0, opts)
	res := make([]fleet.Result, len(jobs))
	for i, j := range jobs {
		res[i] = n.Run(context.Background(), 0, j)
	}
	return ndjson(t, res)
}

func ndjson(t *testing.T, res []fleet.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := fleet.WriteResults(&buf, res, true); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestTopologyDeterminism pins the standing guarantee at every tested
// node×worker count: sweep NDJSON — including a faulted sweep's retry and
// quarantine provenance — is byte-identical to the sequential reference at
// 1×1, 2×4, and 4×2.
func TestTopologyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace sweep ×4 topologies")
	}
	jobs := topologyJobs()
	opts := fleet.Options{MaxAttempts: 2, RetryBaseDelay: time.Millisecond}

	want := reference(t, opts, jobs)
	if !strings.Contains(want, `"quarantined":true`) {
		t.Fatalf("sweep exercised no quarantine; doomed spec too weak:\n%s", want)
	}

	for _, topo := range []struct{ nodes, workers int }{{1, 1}, {2, 4}, {4, 2}} {
		opts.Nodes, opts.Workers = topo.nodes, topo.workers
		got := render(t, fleet.New(opts), jobs)
		if got != want {
			t.Fatalf("%d×%d topology diverged from sequential output:\n--- got\n%s--- want\n%s",
				topo.nodes, topo.workers, got, want)
		}
	}
}

// fakeExec builds an Execute override with per-app latencies.
func fakeExec(d map[string]time.Duration) func(context.Context, fleet.Job) (*harness.Run, error) {
	return func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		select {
		case <-time.After(d[j.App]):
			return &harness.Run{Frames: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestWorkStealing: a node that drains its home partition steals from its
// loaded sibling instead of idling.
func TestWorkStealing(t *testing.T) {
	exec := fakeExec(map[string]time.Duration{"slow": 30 * time.Millisecond, "fast": time.Millisecond})
	c := fleet.New(fleet.Options{Nodes: 2, Workers: 1, QueueDepth: 64, Execute: exec})
	defer c.Close()

	// Round-robin partitioning: even submissions land on node 0's
	// partition. Make those the slow ones, so node 1 runs dry and steals.
	jobs := make([]fleet.Job, 20)
	for i := range jobs {
		app := "fast"
		if i%2 == 0 {
			app = "slow"
		}
		jobs[i] = fleet.Job{App: app, Kind: harness.Perf, Phase: fleet.Full}
	}
	res := c.RunSweep(context.Background(), jobs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if r.Job.App != jobs[i].App {
			t.Fatalf("row %d carries job %s; submission-order merge broken", i, r.Job.App)
		}
	}
	if c.Steals(1) == 0 {
		t.Fatal("node 1 never stole from node 0's backed-up partition")
	}
	st := c.Stats()
	if st.Done != 20 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 20 done", st)
	}
}

// TestClusterBackpressureAndClose: a full cluster queue blocks Start until
// ctx cancels; Close rejects further submissions and drains what is queued.
func TestClusterBackpressureAndClose(t *testing.T) {
	block := make(chan struct{})
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		select {
		case <-block:
			return &harness.Run{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := fleet.New(fleet.Options{Nodes: 2, Workers: 1, QueueDepth: 2, Execute: exec})

	var wg sync.WaitGroup
	deliver := func(fleet.Result) { wg.Done() }
	// 2 running + 2 queued fill the cluster.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		if err := c.Start(context.Background(), fleet.Job{App: "a"}, nil, deliver); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.Start(ctx, fleet.Job{App: "b"}, nil, nil); err != context.DeadlineExceeded {
		t.Fatalf("Start on full queue = %v, want DeadlineExceeded", err)
	}
	close(block)
	wg.Wait()
	c.Close()
	if err := c.Start(context.Background(), fleet.Job{App: "c"}, nil, nil); err != fleet.ErrClosed {
		t.Fatalf("Start after Close = %v, want ErrClosed", err)
	}
}

// TestClusterMetricsExposition: the cluster serves the greenweb_fleet_*
// family (dashboard continuity) plus per-node steal/job counters and
// per-partition depth gauges.
func TestClusterMetricsExposition(t *testing.T) {
	exec := fakeExec(map[string]time.Duration{"slow": 20 * time.Millisecond, "fast": time.Millisecond})
	c := fleet.New(fleet.Options{Nodes: 2, Workers: 1, Execute: exec})
	defer c.Close()
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	jobs := make([]fleet.Job, 12)
	for i := range jobs {
		app := "fast"
		if i%2 == 0 {
			app = "slow"
		}
		jobs[i] = fleet.Job{App: app}
	}
	c.RunSweep(context.Background(), jobs)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"greenweb_fleet_jobs_done_total 12",
		"greenweb_shard_nodes 2",
		`greenweb_shard_steals_total{node="0"}`,
		`greenweb_shard_steals_total{node="1"}`,
		`greenweb_shard_node_jobs_total{node="0"}`,
		`greenweb_shard_partition_depth{partition="1"} 0`,
		"# TYPE greenweb_fleet_job_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestClusterDeliverExactlyOnceUnderCancel mirrors TestDeliverExactlyOnce:
// every submission delivers exactly one terminal result even when the sweep
// context dies mid-flight.
func TestClusterDeliverExactlyOnceUnderCancel(t *testing.T) {
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
			return &harness.Run{}, nil
		}
	}
	c := fleet.New(fleet.Options{Nodes: 3, Workers: 2, Execute: exec})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	jobs := make([]fleet.Job, 40)
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
