package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/faults"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/ledger"
	"github.com/wattwiseweb/greenweb/internal/obs"
)

// doomed is a fault spec under which GreenWeb-I cells hit a fault storm:
// GreenWeb-I requests frequency switches constantly, so the 0.95 deny
// probability crosses the storm threshold within a few frames.
var doomed = &faults.Spec{Seed: 3, DVFS: &faults.DVFSSpec{DenyProb: 0.95}, StormAbort: 3}

// topologyJobs is a sweep that exercises the paper grid AND the fault
// machinery: clean cells, thermally capped cells, and storm-doomed cells
// whose failed rows must survive the wire.
func topologyJobs() []fleet.Job {
	capped := faults.Default(21)
	var jobs []fleet.Job
	for _, app := range []string{"MSN", "Todo"} {
		for _, kind := range []harness.Kind{harness.Perf, harness.GreenWebI} {
			jobs = append(jobs, fleet.Job{App: app, Kind: kind, Phase: fleet.Full})
			jobs = append(jobs, fleet.Job{App: app, Kind: kind, Phase: fleet.Full, Faults: capped})
		}
		jobs = append(jobs, fleet.Job{App: app, Kind: harness.GreenWebI, Phase: fleet.Full, Faults: doomed})
	}
	// A staged cell: its stage count and per-stage energy must survive the
	// trip to a remote worker and back.
	jobs = append(jobs, fleet.Job{App: "Todo", Kind: harness.GreenWebI, Phase: fleet.Full, StageWorkers: 4})
	return jobs
}

// sweep runs the jobs on a cluster, closes it, and returns the results in
// submission order.
func sweep(c *fleet.Cluster, jobs []fleet.Job) []fleet.Result {
	defer c.Close()
	return c.RunSweep(context.Background(), jobs)
}

// reference runs the jobs through one LocalNode's Run in a plain loop — no
// queue, no pullers — so parity tests compare the cluster against a
// scheduler-free oracle.
func reference(opts fleet.Options, jobs []fleet.Job) []fleet.Result {
	n := fleet.NewLocalNode(opts)
	res := make([]fleet.Result, len(jobs))
	for i, j := range jobs {
		res[i] = n.Run(context.Background(), 0, j)
	}
	return res
}

func ndjson(t *testing.T, res []fleet.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := fleet.WriteResults(&buf, res, true); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// fastRemote is the test timing profile: suspicion and reconnection resolve
// in milliseconds so failure paths run inside the test budget.
func fastRemote(addr string) RemoteOptions {
	return RemoteOptions{
		Addr:              addr,
		DialTimeout:       2 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  50 * time.Millisecond,
		SuspectAfter:      2,
		MaxReconnects:     3,
		ReconnectBase:     5 * time.Millisecond,
		ReconnectMax:      20 * time.Millisecond,
	}
}

// startWorker serves a Worker on a loopback listener and returns its address.
func startWorker(t *testing.T, opts WorkerOptions) (*Worker, string) {
	t.Helper()
	w := NewWorker(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve(l)
	t.Cleanup(w.Close)
	return w, l.Addr().String()
}

// TestRemoteSweepMatchesLocal pins the wire codec against real harness
// execution: a full faulted sweep through a greennode-style worker renders
// byte-identically to the sequential in-process path — the storm-doomed
// cells' failed rows and errors included — and every job's timeline block
// (ledger spans, their frame decisions, config marks) arrives byte for byte
// as the in-process LocalNode projected it.
func TestRemoteSweepMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace sweep ×2 paths")
	}
	jobs := topologyJobs()
	ref := reference(fleet.Options{}, jobs)
	want := ndjson(t, ref)

	_, addr := startWorker(t, WorkerOptions{Cluster: fleet.Options{Workers: 4}})
	// Lenient heartbeat: full-trace cells saturate the CPU (drastically so
	// under -race), and this test pins codec parity, not failure timing — a
	// starved heartbeat loop must not break the session and force re-homes.
	ropts := fastRemote(addr)
	ropts.HeartbeatInterval = 200 * time.Millisecond
	ropts.HeartbeatTimeout = 5 * time.Second
	ropts.SuspectAfter = 10
	n, err := NewRemoteNode(0, ropts)
	if err != nil {
		t.Fatal(err)
	}
	res := sweep(fleet.NewWithNodes([]fleet.Node{n}), jobs)
	if got := ndjson(t, res); got != want {
		t.Fatalf("remote sweep diverged from sequential output:\n--- got\n%s--- want\n%s", got, want)
	}
	decided := false
	for i, j := range jobs {
		got, want := res[i], ref[i]
		if (got.Row == nil) != (want.Row == nil) {
			t.Fatalf("job %d (%s %s): remote row %v, reference row %v", i, j.App, j.Kind, got.Row != nil, want.Row != nil)
		}
		if !bytes.Equal(got.Timeline, want.Timeline) {
			t.Errorf("job %d (%s %s): remote timeline (%d bytes) differs from the reference's (%d bytes)",
				i, j.App, j.Kind, len(got.Timeline), len(want.Timeline))
		}
		if want.Row == nil {
			continue
		}
		// The comparison is not vacuous: every reference block holds spans
		// and config marks, and some run recorded a frame decision.
		spans, marks, err := ledger.DecodeTimeline(want.Timeline)
		if err != nil {
			t.Fatalf("job %d (%s %s): %v", i, j.App, j.Kind, err)
		}
		if len(spans) == 0 || len(marks) == 0 {
			t.Errorf("job %d (%s %s): reference run has %d spans and %d config marks; the comparison needs both",
				i, j.App, j.Kind, len(spans), len(marks))
		}
		for _, d := range obs.DecisionsOf(spans) {
			decided = decided || d.Set != 0
		}
	}
	if !decided {
		t.Error("no reference run recorded a frame decision; the timeline comparison misses decisions")
	}
}

// TestKillMidSweepDeterminism is the acceptance pin: a two-node cluster
// whose worker is killed mid-sweep (the in-process analogue of kill -9)
// still streams bytes identical to the pristine sequential reference. Jobs
// in flight on the dying node come back as ErrNodeDown and re-home onto the
// shared queue, where the live node takes them and every still-queued job;
// all re-execute deterministically. The sweep does not wait for the dead
// node, so the test waits for its eviction.
func TestKillMidSweepDeterminism(t *testing.T) {
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &harness.Run{Frames: len(j.App), Energy: acmp.Joules(0.25 * float64(len(j.App)))}, nil
	}
	jobs := make([]fleet.Job, 30)
	for i := range jobs {
		jobs[i] = fleet.Job{App: fmt.Sprintf("app-%d", i), Kind: harness.Perf, Phase: fleet.Full}
	}

	want := ndjson(t, reference(fleet.Options{Execute: exec}, jobs))

	// Worker 0 kills itself while executing its fifth job, so that job (and
	// any sibling in flight) can never write a result frame back.
	var doomed *Worker
	var executed atomic.Int64
	killExec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		if executed.Add(1) == 5 {
			doomed.Kill()
		}
		return exec(ctx, j)
	}
	w0 := NewWorker(WorkerOptions{Cluster: fleet.Options{Workers: 2, Execute: killExec}})
	doomed = w0
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go w0.Serve(l0)
	t.Cleanup(w0.Close)
	_, addr1 := startWorker(t, WorkerOptions{Cluster: fleet.Options{Workers: 2, Execute: exec}})

	n0, err := NewRemoteNode(0, fastRemote(l0.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	n1, err := NewRemoteNode(1, fastRemote(addr1))
	if err != nil {
		t.Fatal(err)
	}
	c := fleet.NewWithNodes([]fleet.Node{n0, n1})
	defer c.Close()
	got := ndjson(t, c.RunSweep(context.Background(), jobs))
	if got != want {
		t.Fatalf("kill-mid-sweep output diverged from the pristine reference:\n--- got\n%s--- want\n%s", got, want)
	}
	for deadline := time.Now().Add(5 * time.Second); c.Evictions() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	if c.Rehomed(0) == 0 {
		t.Fatal("no jobs were re-homed off the killed node")
	}
}

// TestReconnectingNodeHoldsNoJob: while a node whose worker died
// reconnects, its pullers take no job, so the live node runs the whole
// sweep at once, and Close does not wait out the reconnect budget either.
// Parking a job on the reconnecting node would hold the sweep for the
// budget, about 4.5 s here.
func TestReconnectingNodeHoldsNoJob(t *testing.T) {
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) { return &harness.Run{}, nil }
	w0, addr0 := startWorker(t, WorkerOptions{Cluster: fleet.Options{Workers: 1, Execute: exec}})
	_, addr1 := startWorker(t, WorkerOptions{Cluster: fleet.Options{Workers: 1, Execute: exec}})
	slow := fastRemote(addr0)
	slow.ReconnectBase, slow.ReconnectMax, slow.MaxReconnects = 300*time.Millisecond, 5*time.Second, 4
	n0, err := NewRemoteNode(0, slow)
	if err != nil {
		t.Fatal(err)
	}
	n1, err := NewRemoteNode(1, fastRemote(addr1))
	if err != nil {
		t.Fatal(err)
	}
	w0.Kill()
	for deadline := time.Now().Add(5 * time.Second); n0.Health().Connected; {
		if time.Now().After(deadline) {
			t.Fatal("node 0 never saw its worker die")
		}
		time.Sleep(time.Millisecond)
	}

	c := fleet.NewWithNodes([]fleet.Node{n0, n1})
	start := time.Now()
	for i, r := range c.RunSweep(context.Background(), make([]fleet.Job, 6)) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	swept := time.Since(start)
	c.Close()
	if closed := time.Since(start); closed > time.Second {
		t.Fatalf("6 instant jobs took %v and Close another %v; want both within 1s", swept, closed-swept)
	}
}

// TestCloseDuringRedial: a Close that lands while the node re-dials returns
// once that dial does, closing the session the dial made instead of
// serving it.
func TestCloseDuringRedial(t *testing.T) {
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) { return &harness.Run{}, nil }
	_, addr := startWorker(t, WorkerOptions{Cluster: fleet.Options{Workers: 1, Execute: exec}})
	var dials atomic.Int64
	var first net.Conn
	redialing, release := make(chan struct{}), make(chan struct{})
	opts := fastRemote(addr)
	opts.Dial = func(ctx context.Context) (net.Conn, error) {
		dial := dials.Add(1)
		if dial == 2 {
			close(redialing)
			<-release
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if dial == 1 {
			first = conn
		}
		return conn, err
	}
	n, err := NewRemoteNode(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	first.Close() // break the session; the node re-dials
	<-redialing
	closed := make(chan struct{})
	go func() {
		n.Close()
		close(closed)
	}()
	for !n.isClosed() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close never returned: the node serves the session its last dial made")
	}
}

// TestHeartbeatSuspicionAndDeath: a worker that handshakes, then goes
// mute — swallowing pings and jobs — is suspected after consecutive
// heartbeat misses; with its listener gone, the reconnect budget exhausts
// and the node is declared dead, firing OnDead and failing in-flight Runs
// with fleet.ErrNodeDown.
func TestHeartbeatSuspicionAndDeath(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil { // hello
			return
		}
		writeFrame(conn, frame{T: frameWelcome, Proto: protoVersion, Workers: 1})
		l.Close() // one connection only: reconnects must fail
		for {     // swallow frames, answer nothing
			if _, err := readFrame(conn); err != nil {
				return
			}
		}
	}()

	opts := fastRemote(l.Addr().String())
	opts.HeartbeatInterval = 5 * time.Millisecond
	opts.HeartbeatTimeout = 10 * time.Millisecond
	n, err := NewRemoteNode(0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	dead := make(chan struct{})
	n.OnDead(func() { close(dead) })

	resc := make(chan fleet.Result, 1)
	go func() { resc <- n.Run(context.Background(), 0, fleet.Job{App: "mute"}) }()

	select {
	case <-dead:
	case <-time.After(5 * time.Second):
		t.Fatal("node never declared dead")
	}
	res := <-resc
	if !errors.Is(res.Err, fleet.ErrNodeDown) {
		t.Fatalf("in-flight Run err = %v, want ErrNodeDown", res.Err)
	}
	h := n.Health()
	if !h.Dead || h.Connected {
		t.Fatalf("health = %+v, want dead and disconnected", h)
	}
	if h.HeartbeatMisses < int64(opts.SuspectAfter) {
		t.Fatalf("heartbeat misses = %d, want >= %d", h.HeartbeatMisses, opts.SuspectAfter)
	}
	if h.Reconnects != int64(opts.MaxReconnects) {
		t.Fatalf("reconnect attempts = %d, want %d", h.Reconnects, opts.MaxReconnects)
	}
}

// TestRemoteHealthMetricsExposition: a cluster over remote nodes exposes
// the transport-health family — node_up, heartbeat RTT, reconnects, misses —
// alongside the eviction and re-home counters.
func TestRemoteHealthMetricsExposition(t *testing.T) {
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) { return &harness.Run{}, nil }
	_, addr := startWorker(t, WorkerOptions{Cluster: fleet.Options{Workers: 1, Execute: exec}})
	n, err := NewRemoteNode(0, fastRemote(addr))
	if err != nil {
		t.Fatal(err)
	}
	c := fleet.NewWithNodes([]fleet.Node{n})
	defer c.Close()

	out := scrape(t, c)
	for _, want := range []string{
		`greenweb_shard_node_up{node="0"} 1`,
		`greenweb_shard_heartbeat_rtt_seconds{node="0"}`,
		`greenweb_shard_reconnects_total{node="0"} 0`,
		`greenweb_shard_heartbeat_misses_total{node="0"} 0`,
		`greenweb_shard_rehomed_jobs_total{node="0"} 0`,
		"greenweb_shard_evictions_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestWorkerRefusesProtocolMismatch: a hello with the wrong protocol version
// — an older peer's (v2 shipped spans as JSON, v3 a copy of each run, v4 a
// decided bit with each result, v6 a span buffer) or a newer one's — is
// answered with a refusal welcome, and NewRemoteNode surfaces it.
func TestWorkerRefusesProtocolMismatch(t *testing.T) {
	_, addr := startWorker(t, WorkerOptions{Cluster: fleet.Options{Workers: 1,
		Execute: func(ctx context.Context, j fleet.Job) (*harness.Run, error) { return &harness.Run{}, nil }}})
	for _, proto := range []int{2, 3, 4, 6, protoVersion + 1} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, frame{T: frameHello, Proto: proto}); err != nil {
			t.Fatal(err)
		}
		f, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if f.T != frameWelcome || f.Err == "" {
			t.Fatalf("proto %d hello answered %+v, want refusal welcome", proto, f)
		}
		if !strings.Contains(f.Err, "proto") {
			t.Fatalf("refusal %q does not name the protocol", f.Err)
		}
	}
}

// TestRemoteNodeCancelPropagates: cancelling the job context mid-run returns
// promptly with ctx.Err and ships a best-effort cancel frame that aborts the
// worker-side execution.
func TestRemoteNodeCancelPropagates(t *testing.T) {
	started := make(chan struct{}, 1)
	aborted := make(chan struct{}, 1)
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			aborted <- struct{}{}
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return &harness.Run{}, nil
		}
	}
	_, addr := startWorker(t, WorkerOptions{Cluster: fleet.Options{Workers: 1, Execute: exec}})
	n, err := NewRemoteNode(0, fastRemote(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	ctx, cancel := context.WithCancel(context.Background())
	resc := make(chan fleet.Result, 1)
	go func() { resc <- n.Run(ctx, 0, fleet.Job{App: "slow"}) }()
	<-started
	cancel()
	select {
	case res := <-resc:
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("cancelled Run err = %v, want context.Canceled", res.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	select {
	case <-aborted:
	case <-time.After(2 * time.Second):
		t.Fatal("worker-side execution never saw the cancellation")
	}
}

// TestRunlessResultFailsItsJob: a worker that answers a job with a result
// carrying neither an error nor a row, or with a result frame carrying no
// result, fails that job with errBadRun, and the server keeps serving: the
// same puller takes the next job, and the sweep's rows say why both failed.
func TestRunlessResultFailsItsJob(t *testing.T) {
	n, err := NewRemoteNode(0, fastRemote(fakeWorker(t, frame{T: frameWelcome, Proto: protoVersion, Workers: 1})))
	if err != nil {
		t.Fatal(err)
	}
	c := fleet.NewWithNodes([]fleet.Node{n})
	defer c.Close()
	// The sweep's context bounds a call that no frame answers.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m := fleet.NewManager(ctx, c)
	s, err := m.Enqueue([]fleet.Job{
		{App: "Todo", Kind: harness.Perf, Phase: fleet.Micro},
		{App: "MSN", Kind: harness.GreenWebI, Phase: fleet.Micro},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Len(); i++ {
		row, err := s.Row(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if row.State != fleet.StateFailed || !strings.Contains(row.Error, errBadRun.Error()) {
			t.Fatalf("row %d: state %s, error %q; want failed with %q", i, row.State, row.Error, errBadRun)
		}
	}
}

// TestRemoteFailedJobRunsOnce: through a greennode-style worker, a
// storm-doomed cell and a panicking cell each execute once, and their rows
// are failed with the cell's own error and carry no retry columns; the
// cluster counts both failures, as it counts a local node's.
func TestRemoteFailedJobRunsOnce(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		mu.Lock()
		runs[j.App]++
		mu.Unlock()
		if j.Kind == harness.Perf {
			panic("cell crashed")
		}
		app, _ := apps.ByName(j.App)
		return harness.ExecuteCell(ctx, harness.Cell{App: app, Kind: j.Kind, Full: j.Phase == fleet.Full, Faults: j.Faults})
	}
	_, addr := startWorker(t, WorkerOptions{Cluster: fleet.Options{Workers: 2, Execute: exec}})
	n, err := NewRemoteNode(0, fastRemote(addr))
	if err != nil {
		t.Fatal(err)
	}
	c := fleet.NewWithNodes([]fleet.Node{n})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	jobs := []fleet.Job{
		{App: "Todo", Kind: harness.GreenWebI, Phase: fleet.Full, Faults: doomed},
		{App: "MSN", Kind: harness.Perf, Phase: fleet.Full},
		{App: "BBC", Kind: harness.GreenWebI, Phase: fleet.Micro},
	}
	s, err := fleet.NewManager(ctx, c).Enqueue(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{faults.ErrStorm.Error(), "fleet: MSN/Perf/full panicked: cell crashed", ""} {
		row, err := s.Row(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if (want == "") != (row.State == fleet.StateDone) || !strings.Contains(row.Error, want) {
			t.Errorf("row %d: state %q, error %q; want error %q", i, row.State, row.Error, want)
		}
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"attempts", "attempt_errors", "quarantined"} {
			if bytes.Contains(b, []byte(`"`+col+`"`)) {
				t.Errorf("row %d carries the retry column %q: %s", i, col, b)
			}
		}
	}
	mu.Lock()
	for _, j := range jobs {
		if runs[j.App] != 1 {
			t.Errorf("%s executed %d times, want once", j, runs[j.App])
		}
	}
	mu.Unlock()
	if want, out := "greenweb_fleet_jobs_failed_total 2\n", scrape(t, c); !strings.Contains(out, want) {
		t.Fatalf("exposition missing %q:\n%s", want, out)
	}
}

// TestBackoffDeterministicCappedAndJittered: the reconnect loop's delay is
// deterministic, doubles per attempt up to the cap within ±25% jitter, and
// differs between two nodes.
func TestBackoffDeterministicCappedAndJittered(t *testing.T) {
	const base, limit = 10 * time.Millisecond, 80 * time.Millisecond
	for attempt := 1; attempt <= 8; attempt++ {
		d := backoff(base, limit, 0, attempt)
		if again := backoff(base, limit, 0, attempt); d != again {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d, again)
		}
		// Nominal delay doubles per attempt, capped at the limit; jitter
		// keeps the realized delay within ±25% of nominal.
		nominal := min(base<<(attempt-1), limit)
		if lo, hi := nominal*3/4, nominal*5/4; d < lo || d > hi {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, lo, hi)
		}
	}
	if backoff(base, limit, 0, 1) == backoff(base, limit, 1, 1) {
		t.Fatal("nodes 0 and 1 share a backoff; jitter is not keyed by node")
	}
}

// TestEvictedNodesReadDown: a node evicted while it could still serve (an
// administrative drain of a live remote node, or of a local node) reads
// down on /v1/nodes and on greenweb_shard_node_up, while the node left in
// service reads up.
func TestEvictedNodesReadDown(t *testing.T) {
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) { return &harness.Run{}, nil }
	var nodes []fleet.Node
	for i := 0; i < 2; i++ {
		_, addr := startWorker(t, WorkerOptions{Cluster: fleet.Options{Workers: 1, Execute: exec}})
		n, err := NewRemoteNode(i, fastRemote(addr))
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	nodes = append(nodes, fleet.NewLocalNode(fleet.Options{Execute: exec}))
	c := fleet.NewWithNodes(nodes)
	defer c.Close()
	c.Evict(0)
	c.Evict(2)

	want := []bool{false, true, false}
	for i, info := range c.NodeInfos() {
		if info.Up != want[i] {
			t.Errorf("node %d (%s): up %v, want %v", i, info.Kind, info.Up, want[i])
		}
	}
	out := scrape(t, c)
	for i, up := range want {
		line := fmt.Sprintf("greenweb_shard_node_up{node=%q} %d\n", fmt.Sprint(i), map[bool]int{false: 0, true: 1}[up])
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q", line)
		}
	}
}
