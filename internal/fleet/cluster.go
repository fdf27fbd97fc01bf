package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// Node is one execution backend of the cluster, which knows it by its index
// in NewWithNodes. Run executes a single job once, to its terminal Result
// (panic recovery and timeouts happen inside), and is called by
// at most Workers() cluster pullers concurrently; slot is the calling
// puller's cluster-global index, which becomes the result's Worker. A
// traced job's Run records the job's execute span (ExecuteSpan) into the
// buffer its context carries (trace.SweepIn).
type Node interface {
	Workers() int
	Run(ctx context.Context, slot int, job Job) Result
	Close()
}

// ErrNodeDown marks a result whose job never reached a terminal state
// because the node's transport failed (connection broke, heartbeat
// suspicion, node declared dead). The cluster treats it as re-homeable: the
// job goes back on the queue instead of being delivered as a failure.
// Re-execution is safe because every cell is a deterministic function of
// its job, and only the final result is delivered: each job once, so a
// sweep persists each row once. It is the only error that runs a job again:
// any other failure would recur.
var ErrNodeDown = errors.New("shard: node down")

// ErrNoNodes is delivered when a job cannot be queued or re-homed because
// every node in the cluster has been evicted.
var ErrNoNodes = errors.New("shard: no live nodes")

// NodeHealth is a remote node's transport health, exported per node by
// Cluster.WriteMetrics and Cluster.NodeInfos.
type NodeHealth struct {
	Connected       bool          `json:"connected"`
	Dead            bool          `json:"dead"`
	LastRTT         time.Duration `json:"last_rtt"` // most recent heartbeat round trip
	Reconnects      int64         `json:"reconnects"`
	HeartbeatMisses int64         `json:"heartbeat_misses"`
}

// healthReporter is the optional Node facet the cluster polls for health
// metrics.
type healthReporter interface {
	Health() NodeHealth
}

// deathNotifier is the optional Node facet the cluster subscribes to for
// eviction: fn runs (once, on its own goroutine) when the node gives up.
type deathNotifier interface {
	OnDead(fn func())
}

// waiter is the optional Node facet a puller consults before it takes a
// job: Wait blocks while the node cannot run one (a remote node
// reconnecting) and reports false once it never will (dead or closed), or
// once done closes. A node without it is always ready.
type waiter interface {
	Wait(done <-chan struct{}) bool
}

// NodeInfo is one execution node's row in the GET /v1/nodes federation:
// identity, liveness, transport health (remote nodes), and work accounting.
type NodeInfo struct {
	ID      int    `json:"id"`
	Kind    string `json:"kind"` // "local" | "remote"
	Name    string `json:"name,omitempty"`
	Workers int    `json:"workers"`
	// Up is false once the node is evicted, and while a remote node's
	// transport session is down.
	Up   bool `json:"up"`
	Dead bool `json:"dead,omitempty"`

	// Transport health — remote nodes only.
	HeartbeatRTTMS  float64 `json:"heartbeat_rtt_ms,omitempty"`
	Reconnects      int64   `json:"reconnects,omitempty"`
	HeartbeatMisses int64   `json:"heartbeat_misses,omitempty"`

	// Work accounting.
	Jobs    int64 `json:"jobs"`
	Rehomed int64 `json:"rehomed,omitempty"`
}

// item is one queued submission.
type item struct {
	job     Job
	ctx     context.Context
	started func()
	deliver func(Result)
}

// queue is the cluster's one FIFO, shared by every node's pullers and
// guarded by one mutex (contention is negligible next to job execution,
// which runs a whole simulated device). It is the only place a waiting job
// lives: push never blocks, so its length is the whole backlog, which
// admission control reads. Pullers wait on nonEmpty.
type queue struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond
	items    []item
	evicted  []bool // per node: its pullers exit
	live     int    // nodes not yet evicted
	closed   bool
	done     chan struct{} // closed by close
}

func newQueue(nodes int) *queue {
	q := &queue{evicted: make([]bool, nodes), live: nodes, done: make(chan struct{})}
	q.nonEmpty = sync.NewCond(&q.mu)
	return q
}

// push appends an admitted item. It fails with ErrClosed after close, and
// ErrNoNodes once every node is evicted.
func (q *queue) push(it item) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case q.closed:
		return ErrClosed
	case q.live == 0:
		return ErrNoNodes
	}
	q.items = append(q.items, it)
	q.nonEmpty.Signal()
	return nil
}

// requeue puts back a job whose node died under it: at the head, since it
// was admitted before the jobs still waiting, and even after close, since
// it was admitted once already. False once every node is evicted.
func (q *queue) requeue(it item) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.live == 0 {
		return false
	}
	q.items = slices.Insert(q.items, 0, it)
	q.nonEmpty.Signal()
	return true
}

// pop blocks until it can hand one of node's pullers the oldest item. It
// returns false once node is evicted, or once the queue is closed and empty.
func (q *queue) pop(node int) (item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.evicted[node] {
		if len(q.items) > 0 {
			it := q.items[0]
			q.items[0] = item{} // the backing array must not pin a finished job
			q.items = q.items[1:]
			return it, true
		}
		if q.closed {
			break
		}
		q.nonEmpty.Wait()
	}
	return item{}, false
}

// gone reports whether node was evicted.
func (q *queue) gone(node int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.evicted[node]
}

// evict makes node's pullers exit; false when node was already evicted.
// Evicting the last live node empties the queue and returns what it held.
func (q *queue) evict(node int) (ok bool, stranded []item) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.evicted[node] {
		return false, nil
	}
	q.evicted[node] = true
	q.live--
	if q.live == 0 {
		stranded, q.items = q.items, nil
	}
	q.nonEmpty.Broadcast()
	return true, stranded
}

// close stops admission; pullers exit once the queue is empty. False when
// the queue was already closed.
func (q *queue) close() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.closed = true
	close(q.done)
	q.nonEmpty.Broadcast()
	return true
}

// drain empties the queue and returns what it held.
func (q *queue) drain() []item {
	q.mu.Lock()
	defer q.mu.Unlock()
	its := q.items
	q.items = nil
	return its
}

func (q *queue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Cluster is the fleet's scheduler: it fans jobs out across N nodes —
// each an execution backend with its own slots — through one FIFO that
// every node's pullers share, so a free slot on any node takes the
// oldest waiting job. Submission-order merge is a property of delivery
// indexing, not of which node ran a job, so sweep output is byte-identical
// at any node×worker topology.
//
// Failure handling: a Run result wrapping ErrNodeDown means the transport
// failed under the job, not the job under the node — the puller puts the
// item back on the queue instead of delivering a failure, and the
// deterministic cell re-executes elsewhere with an identical result. A node
// declared dead (a remote node's heartbeat suspicion through the full
// reconnect budget) is evicted: its pullers exit, and the live nodes'
// pullers take what is queued. While a node reconnects, its pullers take
// nothing, so the live nodes run what waits. Sweep bytes therefore do not
// depend on which nodes survived — the determinism contract holds through
// node death.
//
// Create with New or NewWithNodes, stop with Close.
type Cluster struct {
	nodes []Node
	q     *queue
	wg    sync.WaitGroup

	running   atomic.Int64
	done      atomic.Int64
	failed    atomic.Int64
	pulled    []atomic.Int64 // jobs executed per node
	rehomed   []atomic.Int64 // in-flight jobs re-homed off each node
	evictions atomic.Int64
	start     time.Time
	busy      atomic.Int64
	hist      *obs.Histogram
}

// New builds a cluster of LocalNodes and starts its pullers.
func New(opts Options) *Cluster {
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = max(1, runtime.GOMAXPROCS(0)/opts.Nodes)
	}
	nodes := make([]Node, opts.Nodes)
	for i := range nodes {
		nodes[i] = NewLocalNode(opts)
	}
	return NewWithNodes(nodes)
}

// NewWithNodes builds a cluster over caller-supplied nodes (remote workers,
// or instrumented test nodes) and starts its pullers. A node's index in
// nodes is its ID in Evict, NodeInfos and the per-node metrics.
func NewWithNodes(nodes []Node) *Cluster {
	c := &Cluster{
		nodes:   nodes,
		q:       newQueue(len(nodes)),
		pulled:  make([]atomic.Int64, len(nodes)),
		rehomed: make([]atomic.Int64, len(nodes)),
		start:   time.Now(),
		hist:    obs.NewLatencyHistogram(),
	}
	slot := 0
	for i, n := range nodes {
		for w := 0; w < n.Workers(); w++ {
			c.wg.Add(1)
			go c.puller(i, slot)
			slot++
		}
	}
	// Nodes that can report their own death (a remote node after heartbeat
	// suspicion exhausts the reconnect budget) trigger eviction.
	for i, n := range nodes {
		if dn, ok := n.(deathNotifier); ok {
			id := i
			dn.OnDead(func() { c.Evict(id) })
		}
	}
	return c
}

// Evict removes node id from live service: its pullers exit once their
// in-flight calls resolve (a dead remote node resolves them with
// ErrNodeDown, which puts the jobs back on the queue), and the live nodes'
// pullers take what is queued. Evicting the last live node delivers the
// queued jobs as ErrNoNodes failures. Idempotent; normally driven by a
// remote node's death notification, but callable directly to drain a node
// administratively.
func (c *Cluster) Evict(id int) {
	if id < 0 || id >= len(c.nodes) {
		return
	}
	ok, stranded := c.q.evict(id)
	if !ok {
		return // already evicted
	}
	c.evictions.Add(1)
	// Stranded failures surface before the node close, which may block
	// draining the dead node's in-flight work.
	c.fail(stranded, fmt.Errorf("%w: node %d evicted last", ErrNoNodes, id))
	c.nodes[id].Close()
}

// fail delivers err to queued items that no node will run.
func (c *Cluster) fail(its []item, err error) {
	for _, it := range its {
		c.failed.Add(1)
		if it.deliver != nil {
			it.deliver(Result{Job: it.job, Worker: -1, Err: err})
		}
	}
}

// Evictions reports how many nodes have been evicted.
func (c *Cluster) Evictions() int64 { return c.evictions.Load() }

// Rehomed reports how many in-flight jobs were re-homed off node id because
// its transport died under them.
func (c *Cluster) Rehomed(id int) int64 { return c.rehomed[id].Load() }

// puller is one execution slot of node: wait until the node can run a job,
// pop the oldest, run it on the node, deliver — or re-home it when the node
// died under the job.
func (c *Cluster) puller(node, slot int) {
	defer c.wg.Done()
	n := c.nodes[node]
	w, _ := n.(waiter)
	for {
		if w != nil && !w.Wait(c.q.done) {
			return
		}
		it, ok := c.q.pop(node)
		if !ok {
			return
		}
		var tr *trace.SweepTrace // nil for an untraced job
		if it.job.Trace != nil {
			tr = trace.SweepIn(it.ctx)
		}
		c.pulled[node].Add(1)
		if it.started != nil {
			it.started()
			it.started = nil // fires once, even across re-homes
		}
		c.running.Add(1)
		dispatched := time.Now()
		res := n.Run(it.ctx, slot, it.job)
		c.running.Add(-1)
		if tr != nil {
			// The dispatch span brackets the node call as the server saw
			// it; for a remote node, the gap between it and the job's
			// execute span is transport plus worker-side queueing.
			tr.Record(*it.job.Trace, "dispatch", "sched", dispatched, time.Since(dispatched),
				map[string]string{"node": strconv.Itoa(node)})
		}
		if errors.Is(res.Err, ErrNodeDown) && it.ctx.Err() == nil {
			// The transport died under the job, not the job under the node.
			// Re-home instead of delivering a failure: the cell is a
			// deterministic function of the job, so re-execution elsewhere
			// produces the identical result, delivered once like any other.
			if it.job.Trace != nil {
				// Bump the attempt on a fresh context copy so the job's next
				// home records spans under the new attempt number, leaving
				// the submitter's context untouched.
				tc := *it.job.Trace
				tc.Attempt++
				it.job.Trace = &tc
				if tr != nil {
					tr.Record(tc, "re-home", "sched", time.Now(), 0,
						map[string]string{"from": strconv.Itoa(node)})
				}
			}
			if c.q.requeue(it) {
				c.rehomed[node].Add(1)
				continue
			}
			res.Err = fmt.Errorf("%w: %v", ErrNoNodes, res.Err)
		}
		c.busy.Add(int64(res.Latency))
		c.hist.Observe(res.Latency.Seconds())
		if res.Err != nil {
			c.failed.Add(1)
		} else {
			c.done.Add(1)
		}
		if it.deliver != nil {
			it.deliver(res)
		}
	}
}

// Start enqueues one job without blocking; it returns ErrClosed after
// Close, and ErrNoNodes once every node has been evicted. ctx is the job's:
// its end cancels the job, queued or running. deliver is called exactly
// once, never inside Start, with the job's terminal Result — including
// failure and cancellation; started, if non-nil, fires when the job leaves
// the queue for a node. A traced job's ctx carries its span buffer
// (trace.WithSweep), where its puller and its node record under job.Trace.
func (c *Cluster) Start(ctx context.Context, job Job, started func(), deliver func(Result)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return c.q.push(item{job: job, ctx: ctx, started: started, deliver: deliver})
}

// RunSweep fans the jobs out and blocks until every one has a result. The
// returned slice is the deterministic merge: results[i] corresponds to
// jobs[i] regardless of completion order or node. Cancellation mid-sweep
// converts the not-yet-finished cells into failed results carrying ctx's
// error; the slice is always fully populated.
func (c *Cluster) RunSweep(ctx context.Context, jobs []Job) []Result {
	results := make([]Result, len(jobs))
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i, job := range jobs {
		i, job := i, job
		err := c.Start(ctx, job, nil, func(res Result) {
			results[i] = res
			wg.Done()
		})
		if err != nil {
			results[i] = Result{Job: job, Worker: -1, Err: err}
			wg.Done()
		}
	}
	wg.Wait()
	return results
}

// Workers reports the cluster's total execution slots.
func (c *Cluster) Workers() int {
	total := 0
	for _, n := range c.nodes {
		total += n.Workers()
	}
	return total
}

// Nodes reports the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// NodeInfos is the GET /v1/nodes federation: one row per node with the
// cluster's work accounting, plus transport health and identity for nodes
// that can report them (remote nodes).
func (c *Cluster) NodeInfos() []NodeInfo {
	infos := make([]NodeInfo, len(c.nodes))
	for i, n := range c.nodes {
		info := NodeInfo{
			ID:      i,
			Kind:    "local",
			Workers: n.Workers(),
			Up:      c.up(i),
			Jobs:    c.pulled[i].Load(),
			Rehomed: c.rehomed[i].Load(),
		}
		if hr, ok := n.(healthReporter); ok {
			h := hr.Health()
			info.Kind = "remote"
			info.Dead = h.Dead
			info.HeartbeatRTTMS = float64(h.LastRTT) / float64(time.Millisecond)
			info.Reconnects = h.Reconnects
			info.HeartbeatMisses = h.HeartbeatMisses
		}
		if named, ok := n.(interface{ Name() string }); ok {
			info.Name = named.Name()
		}
		infos[i] = info
	}
	return infos
}

// up reports whether node i takes jobs: it was not evicted and, for a
// remote node, its transport session is connected. Eviction is the
// cluster's own state: an evicted remote node may keep its last session.
func (c *Cluster) up(i int) bool {
	if c.q.gone(i) {
		return false
	}
	hr, ok := c.nodes[i].(healthReporter)
	return !ok || hr.Health().Connected
}

// Close stops intake, runs the queued jobs on the nodes that can take them,
// waits for the pullers, fails what no node took (every node reconnecting)
// with ErrClosed, and shuts the nodes down.
func (c *Cluster) Close() {
	if !c.q.close() {
		return
	}
	c.wg.Wait()
	c.fail(c.q.drain(), ErrClosed)
	for _, n := range c.nodes {
		n.Close()
	}
}

// utilization is busy worker-time over available worker-time since the
// cluster started.
func (c *Cluster) utilization() float64 {
	elapsed, w := time.Since(c.start), c.Workers()
	if w == 0 || elapsed <= 0 {
		return 0
	}
	return float64(c.busy.Load()) / (float64(elapsed) * float64(w))
}

// WriteMetrics writes the cluster's families, reading its counters as it
// goes: greenweb_fleet_*, then per-node liveness, job and re-home counters
// and remote transport health (greenweb_shard_*), one sample per node in
// node order.
func (c *Cluster) WriteMetrics(e *obs.Exposition) {
	e.Gauge("greenweb_fleet_workers", "Total execution slots across all nodes", float64(c.Workers()))
	e.Gauge("greenweb_fleet_queue_depth", "Jobs waiting in the queue", float64(c.q.len()))
	e.Gauge("greenweb_fleet_running_jobs", "Jobs executing right now", float64(c.running.Load()))
	e.Counter("greenweb_fleet_jobs_done_total", "Jobs finished successfully", float64(c.done.Load()))
	e.Counter("greenweb_fleet_jobs_failed_total",
		"Jobs that ended in failure (including cancellation)", float64(c.failed.Load()))
	e.Gauge("greenweb_fleet_utilization",
		"Busy worker-time over available worker-time since start", c.utilization())
	e.Histogram("greenweb_fleet_job_latency_seconds", "Wall-clock job execution latency in seconds", c.hist)
	e.Gauge("greenweb_shard_nodes", "Nodes in the cluster", float64(len(c.nodes)))

	// Only remote nodes report transport health, so an all-local cluster
	// writes no health families.
	all, remote := make([]int, len(c.nodes)), []int(nil)
	for i, n := range c.nodes {
		all[i] = i
		if _, ok := n.(healthReporter); ok {
			remote = append(remote, i)
		}
	}
	perNode := func(nodes []int, name, help, typ string, v func(i int) float64) {
		if len(nodes) == 0 {
			return
		}
		e.Family(name, help, typ)
		for _, i := range nodes {
			e.Labeled("node", strconv.Itoa(i), v(i))
		}
	}
	health := func(i int) NodeHealth { return c.nodes[i].(healthReporter).Health() }
	perNode(all, "greenweb_shard_node_up",
		"1 while the node takes jobs: not evicted and, if remote, connected", "gauge", func(i int) float64 {
			if c.up(i) {
				return 1
			}
			return 0
		})
	perNode(all, "greenweb_shard_node_jobs_total", "Jobs executed per node", "counter",
		func(i int) float64 { return float64(c.pulled[i].Load()) })
	perNode(all, "greenweb_shard_rehomed_jobs_total",
		"In-flight jobs re-homed off each node after its transport died", "counter",
		func(i int) float64 { return float64(c.rehomed[i].Load()) })
	e.Counter("greenweb_shard_evictions_total", "Nodes evicted after being declared dead", float64(c.evictions.Load()))
	perNode(remote, "greenweb_shard_heartbeat_rtt_seconds", "Most recent heartbeat round-trip time per node", "gauge",
		func(i int) float64 { return health(i).LastRTT.Seconds() })
	perNode(remote, "greenweb_shard_reconnects_total", "Transport re-dial attempts per node", "counter",
		func(i int) float64 { return float64(health(i).Reconnects) })
	perNode(remote, "greenweb_shard_heartbeat_misses_total",
		"Heartbeats that went unanswered past the timeout", "counter",
		func(i int) float64 { return float64(health(i).HeartbeatMisses) })
}
