// Package shard scales the fleet past one worker pool: a Cluster fans jobs
// out across N nodes — each an isolated execution backend with its own
// workers — through a partitioned queue with work stealing, while keeping
// the fleet's determinism guarantee intact. Submission-order merge is a
// property of delivery indexing, not of which node ran a job, and every job
// still executes harness.ExecuteCell semantics on a private simulated
// device, so sweep output is byte-identical to the sequential path at any
// node×worker topology.
//
// Nodes are goroutine-backed in-process by default (LocalNode wraps a
// fleet.Pool), so CI and tests need no network; RemoteNode plugs a
// greennode worker process in behind the same Node interface, speaking
// length-prefixed JSON frames over TCP (see proto.go, remote.go,
// worker.go).
//
// The queue has one partition per node. A submission lands on a partition
// round-robin; each node's pullers pop their home partition FIFO and, when
// it runs dry, steal from the back of the busiest sibling — classic
// work-stealing, so a node stuck on a slow cell does not strand queued work
// behind it. Steals and per-partition depths are exported through obs.
//
// Failure handling: a Run result wrapping ErrNodeDown means the transport
// failed under the job, not the job under the node — the puller re-homes
// the item into a live partition instead of delivering a failure, and the
// deterministic cell re-executes elsewhere with an identical result. A node
// declared dead (heartbeat suspicion through the full reconnect budget) is
// evicted: its partition stops accepting placements, its queued jobs move
// to sibling partitions, and its pullers exit. Sweep bytes therefore do not
// depend on which nodes survived — the determinism contract holds through
// node death.
package shard

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// Node is one execution backend of the cluster. Run executes a single job
// to its terminal Result (retries, panic recovery, and timeouts happen
// inside), and is called by at most Workers() cluster pullers concurrently.
type Node interface {
	ID() int
	Workers() int
	Run(ctx context.Context, job fleet.Job) fleet.Result
	Stats() fleet.Stats
	Close()
}

// LocalNode is the in-process Node: a fleet.Pool behind the interface, so a
// "node" is a goroutine-backed worker pool with the fleet's full retry and
// quarantine ladder.
type LocalNode struct {
	id   int
	pool *fleet.Pool
}

// NewLocalNode builds a node over a fresh pool. opts.Workers defaults to 1.
func NewLocalNode(id int, opts fleet.Options) *LocalNode {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	// The cluster's pullers are the only submitters and there are exactly
	// Workers of them, so the pool queue never holds more than one job per
	// worker; depth 2× keeps Submit from ever blocking.
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 2 * opts.Workers
	}
	return &LocalNode{id: id, pool: fleet.New(opts)}
}

// ID reports the node index.
func (n *LocalNode) ID() int { return n.id }

// Workers reports the node's concurrent execution slots.
func (n *LocalNode) Workers() int { return n.pool.Workers() }

// Stats snapshots the node's pool counters.
func (n *LocalNode) Stats() fleet.Stats { return n.pool.Stats() }

// Close shuts the node's pool down.
func (n *LocalNode) Close() { n.pool.Close() }

// Run executes one job synchronously on the node's pool. The result's
// Worker index is remapped into the cluster-global space
// (node·workers + local index) so per-worker provenance stays unambiguous.
func (n *LocalNode) Run(ctx context.Context, job fleet.Job) fleet.Result {
	ch := make(chan fleet.Result, 1)
	if err := n.pool.Start(ctx, job, nil, func(r fleet.Result) { ch <- r }); err != nil {
		// Evict may close the pool between a puller's pop and this Start;
		// the job never ran, so report the node down and let it re-home.
		if errors.Is(err, fleet.ErrClosed) {
			err = fmt.Errorf("%w: node %d closed", ErrNodeDown, n.id)
		}
		return fleet.Result{Job: job, Worker: -1, Err: err}
	}
	r := <-ch
	if r.Worker >= 0 {
		r.Worker = n.id*n.pool.Workers() + r.Worker
	}
	return r
}

// item is one queued submission.
type item struct {
	job     fleet.Job
	ctx     context.Context
	started func()
	deliver func(fleet.Result)
	// rehomed marks an item re-entering the queue after its node died
	// mid-flight. Its admission token was released on the first pop, so the
	// next pop must not release another.
	rehomed bool
}

// queue is the partitioned job queue: one FIFO deque per node, guarded by a
// single mutex (contention is negligible next to job execution, which runs
// a whole simulated device). Home pops take the front; steals take the
// back, so a thief grabs the work its victim would reach last.
type queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parts   [][]item
	evicted []bool
	closed  bool
}

func newQueue(partitions int) *queue {
	q := &queue{parts: make([][]item, partitions), evicted: make([]bool, partitions)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues onto a partition; false if the partition has been evicted
// (the caller picks another).
func (q *queue) push(part int, it item) bool {
	q.mu.Lock()
	if q.evicted[part] {
		q.mu.Unlock()
		return false
	}
	q.parts[part] = append(q.parts[part], it)
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// pop blocks until an item is available for the given home partition (own
// front, else the back of the fullest sibling), the home partition is
// evicted, or the queue is closed and empty. It reports the partition the
// item came from.
func (q *queue) pop(home int) (item, int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.evicted[home] {
			return item{}, -1, false
		}
		if len(q.parts[home]) > 0 {
			it := q.parts[home][0]
			q.parts[home] = q.parts[home][1:]
			return it, home, true
		}
		// Steal from the deepest sibling — balances better than first-found
		// and keeps the scan deterministic for equal depths (lowest index).
		victim, depth := -1, 0
		for p := range q.parts {
			if p != home && len(q.parts[p]) > depth {
				victim, depth = p, len(q.parts[p])
			}
		}
		if victim >= 0 {
			n := len(q.parts[victim])
			it := q.parts[victim][n-1]
			q.parts[victim] = q.parts[victim][:n-1]
			return it, victim, true
		}
		if q.closed {
			return item{}, -1, false
		}
		q.cond.Wait()
	}
}

// evictPartition marks part dead and re-homes its queued items onto live
// partitions round-robin. Items that cannot be placed because no live
// partition remains are returned stranded, for failure delivery. moved is
// -1 when the partition was already evicted.
func (q *queue) evictPartition(part int) (moved int, stranded []item) {
	q.mu.Lock()
	defer func() {
		q.mu.Unlock()
		q.cond.Broadcast() // wake the dead node's pullers and the new homes
	}()
	if q.evicted[part] {
		return -1, nil
	}
	q.evicted[part] = true
	items := q.parts[part]
	q.parts[part] = nil
	var live []int
	for p := range q.parts {
		if p != part && !q.evicted[p] {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return 0, items
	}
	for i, it := range items {
		q.parts[live[i%len(live)]] = append(q.parts[live[i%len(live)]], it)
	}
	return len(items), nil
}

func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *queue) depth(part int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.parts[part])
}

// Options configures a Cluster of LocalNodes.
type Options struct {
	// Nodes is the node count; 0 → 1.
	Nodes int
	// WorkersPerNode is each node's pool size; 0 → 1.
	WorkersPerNode int
	// QueueDepth bounds the total jobs queued across all partitions
	// (admission control reads this backpressure); 0 → 4× total workers.
	QueueDepth int
	// Node is the per-node pool template (timeouts, retry ladder, Execute
	// override). Workers and QueueDepth inside it are overridden per node.
	Node fleet.Options
}

// Cluster is a multi-node Runner: it implements fleet.Runner so a
// fleet.Manager (and greensrv) can schedule onto it interchangeably with a
// single Pool.
type Cluster struct {
	nodes []Node
	q     *queue
	slots chan struct{} // total-queue-depth semaphore
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool

	seq       atomic.Uint64 // round-robin partition cursor
	queued    atomic.Int64
	running   atomic.Int64
	done      atomic.Int64
	failed    atomic.Int64
	steals    []atomic.Int64 // per stealing node
	pulled    []atomic.Int64 // jobs executed per node
	rehomed   []atomic.Int64 // jobs re-homed off each node (queued + in-flight)
	spanDrops []atomic.Int64 // worker-side trace span drops per node
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
	if opts.WorkersPerNode <= 0 {
		opts.WorkersPerNode = 1
	}
	nodes := make([]Node, opts.Nodes)
	for i := range nodes {
		nodeOpts := opts.Node
		nodeOpts.Workers = opts.WorkersPerNode
		nodeOpts.QueueDepth = 0 // let LocalNode size it
		nodes[i] = NewLocalNode(i, nodeOpts)
	}
	return NewWithNodes(nodes, opts.QueueDepth)
}

// NewWithNodes builds a cluster over caller-supplied nodes (tests inject
// instrumented ones). Node IDs must equal their slice index.
func NewWithNodes(nodes []Node, queueDepth int) *Cluster {
	total := 0
	for _, n := range nodes {
		total += n.Workers()
	}
	if queueDepth <= 0 {
		queueDepth = 4 * total
	}
	c := &Cluster{
		nodes:     nodes,
		q:         newQueue(len(nodes)),
		slots:     make(chan struct{}, queueDepth),
		steals:    make([]atomic.Int64, len(nodes)),
		pulled:    make([]atomic.Int64, len(nodes)),
		rehomed:   make([]atomic.Int64, len(nodes)),
		spanDrops: make([]atomic.Int64, len(nodes)),
		start:     time.Now(),
		hist:      obs.NewLatencyHistogram(),
	}
	for _, n := range nodes {
		for w := 0; w < n.Workers(); w++ {
			c.wg.Add(1)
			go c.puller(n)
		}
	}
	// Nodes that can report their own death (RemoteNode after heartbeat
	// suspicion exhausts the reconnect budget) trigger eviction.
	for i, n := range nodes {
		if dn, ok := n.(deathNotifier); ok {
			id := i
			dn.OnDead(func() { c.Evict(id) })
		}
	}
	return c
}

// Evict removes node id from live service: its partition stops accepting
// placements, its queued jobs re-enter sibling partitions, and its pullers
// exit once their in-flight calls resolve (a dead remote node resolves them
// with ErrNodeDown, which re-homes the jobs too). With no live sibling the
// queued jobs are delivered as ErrNoNodes failures. Idempotent; normally
// driven by a remote node's death notification, but callable directly to
// drain a node administratively.
func (c *Cluster) Evict(id int) {
	if id < 0 || id >= len(c.nodes) {
		return
	}
	moved, stranded := c.q.evictPartition(id)
	if moved < 0 {
		return // already evicted
	}
	c.evictions.Add(1)
	c.rehomed[id].Add(int64(moved))
	// Stranded failures surface before the node close, which may block
	// draining the dead node's in-flight work.
	for _, it := range stranded {
		c.queued.Add(-1)
		if !it.rehomed {
			<-c.slots
		}
		c.failed.Add(1)
		if it.deliver != nil {
			it.deliver(fleet.Result{Job: it.job, Worker: -1,
				Err: fmt.Errorf("%w: node %d evicted last", ErrNoNodes, id)})
		}
	}
	c.nodes[id].Close()
}

// Evictions reports how many nodes have been evicted.
func (c *Cluster) Evictions() int64 { return c.evictions.Load() }

// Rehomed reports how many jobs have been re-homed off node id.
func (c *Cluster) Rehomed(id int) int64 { return c.rehomed[id].Load() }

// sweepTrace resolves a traced job's server-side span buffer; nil for
// untraced jobs (or a trace already evicted from the collector), so every
// call site stays a single nil check.
func sweepTrace(job fleet.Job) *trace.SweepTrace {
	if job.Trace == nil {
		return nil
	}
	if tr, ok := trace.Default().Get(job.Trace.Sweep); ok {
		return tr
	}
	return nil
}

// puller is one node execution slot: pop (home first, then steal), run on
// the owning node, deliver — or re-home when the node died under the job.
func (c *Cluster) puller(n Node) {
	defer c.wg.Done()
	for {
		it, from, ok := c.q.pop(n.ID())
		if !ok {
			return
		}
		if !it.rehomed {
			<-c.slots
		}
		c.queued.Add(-1)
		tr := sweepTrace(it.job)
		if from != n.ID() {
			c.steals[n.ID()].Add(1)
			if tr != nil {
				// Steals are instants: the interesting fact is that the job
				// changed hands, not how long the handoff took.
				tr.Record(it.job.Trace.Job, it.job.Trace.Parent, "steal", "sched",
					time.Now(), 0, map[string]string{
						"thief":  strconv.Itoa(n.ID()),
						"victim": strconv.Itoa(from),
					})
			}
		}
		c.pulled[n.ID()].Add(1)
		if it.started != nil {
			it.started()
			it.started = nil // fires once, even across re-homes
		}
		c.running.Add(1)
		dispatched := time.Now()
		res := n.Run(it.ctx, it.job)
		c.running.Add(-1)
		if tr != nil {
			// The dispatch span brackets the node round trip as the server
			// saw it; the gap between it and the worker's execute span is
			// transport plus worker-pool queueing.
			tr.Record(it.job.Trace.Job, it.job.Trace.Parent, "dispatch", "sched",
				dispatched, time.Since(dispatched), map[string]string{
					"node": strconv.Itoa(n.ID()),
				})
		}
		c.spanDrops[n.ID()].Add(int64(res.SpanDrops))
		if errors.Is(res.Err, ErrNodeDown) && it.ctx.Err() == nil {
			// The transport died under the job, not the job under the node.
			// Re-home instead of delivering a failure: the cell is a
			// deterministic function of the job, so re-execution elsewhere
			// produces the identical result, and the WAL absorbs any
			// replayed row idempotently keyed on (sweep, index).
			it.rehomed = true
			if it.job.Trace != nil {
				// Bump the attempt on a fresh context copy so the job's next
				// home records spans under the new attempt number (the item
				// may be shared-read by metrics snapshots, never mutated).
				tc := *it.job.Trace
				tc.Attempt++
				it.job.Trace = &tc
				if tr != nil {
					tr.Record(tc.Job, tc.Parent, "re-home", "sched",
						time.Now(), 0, map[string]string{
							"from":    strconv.Itoa(n.ID()),
							"attempt": strconv.Itoa(tc.Attempt),
						})
				}
			}
			if c.requeue(it) {
				c.rehomed[n.ID()].Add(1)
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

// requeue places a re-homed item onto a live partition round-robin; false
// when every partition has been evicted. The cursor is drawn once and the
// scan offsets from it locally — drawing per iteration would let concurrent
// placements advance the shared cursor between draws, revisiting an evicted
// partition while never trying a live one.
func (c *Cluster) requeue(it item) bool {
	base := int(c.seq.Add(1) - 1)
	for i := 0; i < len(c.nodes); i++ {
		part := (base + i) % len(c.nodes)
		if c.q.push(part, it) {
			c.queued.Add(1)
			return true
		}
	}
	return false
}

// Start implements fleet.Runner: enqueue one job, blocking while the
// cluster-wide queue is full, aborting on ctx. deliver is called exactly
// once from a puller goroutine.
func (c *Cluster) Start(ctx context.Context, job fleet.Job, started func(), deliver func(fleet.Result)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fleet.ErrClosed
	}
	select {
	case c.slots <- struct{}{}:
	default:
		// Full: wait outside the close lock so Close can't deadlock on us.
		c.mu.Unlock()
		select {
		case c.slots <- struct{}{}:
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				<-c.slots
				return fleet.ErrClosed
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	// Round-robin over live partitions: push refuses evicted ones, so scan
	// from a single cursor draw until a placement sticks (one draw per scan,
	// same reasoning as requeue). Every partition evicted means the cluster
	// has no execution substrate left.
	placed := false
	base := int(c.seq.Add(1) - 1)
	for i := 0; i < len(c.nodes); i++ {
		part := (base + i) % len(c.nodes)
		if c.q.push(part, item{job: job, ctx: ctx, started: started, deliver: deliver}) {
			placed = true
			break
		}
	}
	if !placed {
		c.mu.Unlock()
		<-c.slots // release the admission token
		return ErrNoNodes
	}
	c.queued.Add(1)
	c.mu.Unlock()
	return nil
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

// Steals reports how many jobs node id has stolen from sibling partitions.
func (c *Cluster) Steals(id int) int64 { return c.steals[id].Load() }

// NodeInfos implements fleet.NodeReporter: one row per node with the
// cluster's work accounting, plus transport health and identity for nodes
// that can report them (RemoteNode). The GET /v1/nodes federation is this,
// verbatim.
func (c *Cluster) NodeInfos() []fleet.NodeInfo {
	infos := make([]fleet.NodeInfo, len(c.nodes))
	for i, n := range c.nodes {
		info := fleet.NodeInfo{
			ID:         i,
			Kind:       "local",
			Workers:    n.Workers(),
			Up:         true,
			QueueDepth: int64(c.q.depth(i)),
			Jobs:       c.pulled[i].Load(),
			Steals:     c.steals[i].Load(),
			Rehomed:    c.rehomed[i].Load(),
			SpanDrops:  c.spanDrops[i].Load(),
		}
		if hr, ok := n.(healthReporter); ok {
			h := hr.Health()
			info.Kind = "remote"
			info.Up = h.Connected
			info.Dead = h.Dead
			info.HeartbeatRTTMS = float64(h.LastRTT) / float64(time.Millisecond)
			info.Reconnects = h.Reconnects
			info.HeartbeatMisses = h.HeartbeatMisses
			info.ClockOffsetUS = h.ClockOffsetUS
		}
		if named, ok := n.(interface{ Name() string }); ok {
			info.Name = named.Name()
		}
		infos[i] = info
	}
	return infos
}

// Close stops intake, drains queued jobs, waits for the pullers, and shuts
// the nodes down.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.q.close()
	c.wg.Wait()
	for _, n := range c.nodes {
		n.Close()
	}
}

// Stats implements fleet.Runner: cluster-level counters plus the retry and
// quarantine tallies aggregated from the nodes.
func (c *Cluster) Stats() fleet.Stats {
	var retried, quarantined int64
	for _, n := range c.nodes {
		ns := n.Stats()
		retried += ns.Retried
		quarantined += ns.Quarantined
	}
	elapsed := time.Since(c.start)
	util := 0.0
	if w := c.Workers(); w > 0 && elapsed > 0 {
		util = float64(c.busy.Load()) / (float64(elapsed) * float64(w))
	}
	queued := c.queued.Load()
	if queued < 0 {
		queued = 0
	}
	return fleet.Stats{
		Workers:     c.Workers(),
		Queued:      queued,
		Running:     c.running.Load(),
		Done:        c.done.Load(),
		Failed:      c.failed.Load(),
		Retried:     retried,
		Quarantined: quarantined,
		Utilization: util,
		Latency:     c.hist.Snapshot(),
	}
}

// RegisterMetrics implements fleet.Runner: the greenweb_fleet_* family the
// single-pool server exposes (same names, so dashboards survive the
// topology change) plus the shard-layer extras — per-node steal and job
// counters, per-partition queue depths.
func (c *Cluster) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("greenweb_fleet_workers",
		"Total execution slots across all nodes", func() float64 { return float64(c.Workers()) })
	reg.GaugeFunc("greenweb_fleet_queue_depth",
		"Jobs waiting across all partitions", func() float64 { return float64(c.Stats().Queued) })
	reg.GaugeFunc("greenweb_fleet_running_jobs",
		"Jobs executing right now", func() float64 { return float64(c.running.Load()) })
	reg.CounterFunc("greenweb_fleet_jobs_done_total",
		"Jobs finished successfully", func() float64 { return float64(c.done.Load()) })
	reg.CounterFunc("greenweb_fleet_jobs_failed_total",
		"Jobs that ended in failure (including cancellation)", func() float64 { return float64(c.failed.Load()) })
	reg.CounterFunc("greenweb_fleet_retries_total",
		"Job attempts beyond each job's first", func() float64 { return float64(c.Stats().Retried) })
	reg.CounterFunc("greenweb_fleet_quarantines_total",
		"Jobs that exhausted every allowed attempt", func() float64 { return float64(c.Stats().Quarantined) })
	reg.GaugeFunc("greenweb_fleet_utilization",
		"Busy worker-time over available worker-time since start", func() float64 { return c.Stats().Utilization })
	reg.AttachHistogram("greenweb_fleet_job_latency_seconds",
		"Wall-clock job latency in seconds (all attempts incl. backoff)", c.hist)

	reg.GaugeFunc("greenweb_shard_nodes", "Nodes in the cluster",
		func() float64 { return float64(len(c.nodes)) })
	stealVec := reg.CounterVec("greenweb_shard_steals_total",
		"Jobs a node stole from sibling partitions", "node")
	jobsVec := reg.CounterVec("greenweb_shard_node_jobs_total",
		"Jobs executed per node (home pops + steals)", "node")
	depthVec := reg.GaugeVec("greenweb_shard_partition_depth",
		"Jobs waiting in each partition", "partition")
	rehomeVec := reg.CounterVec("greenweb_shard_rehomed_jobs_total",
		"Jobs re-homed off each node (queued at eviction plus in-flight at death)", "node")
	dropVec := reg.CounterVec("greenweb_shard_span_drops_total",
		"Trace spans each node's jobs dropped to budget pressure", "node")
	for i := range c.nodes {
		i := i
		label := strconv.Itoa(i)
		stealVec.Func(func() float64 { return float64(c.steals[i].Load()) }, label)
		jobsVec.Func(func() float64 { return float64(c.pulled[i].Load()) }, label)
		depthVec.Func(func() float64 { return float64(c.q.depth(i)) }, label)
		rehomeVec.Func(func() float64 { return float64(c.rehomed[i].Load()) }, label)
		dropVec.Func(func() float64 { return float64(c.spanDrops[i].Load()) }, label)
	}
	reg.CounterFunc("greenweb_shard_evictions_total",
		"Nodes evicted after being declared dead",
		func() float64 { return float64(c.evictions.Load()) })

	// Remote nodes expose transport health; local nodes have none to report.
	var upVec, rttVec *obs.GaugeVec
	var reconnVec, missVec *obs.CounterVec
	for i, n := range c.nodes {
		hr, ok := n.(healthReporter)
		if !ok {
			continue
		}
		if upVec == nil {
			upVec = reg.GaugeVec("greenweb_shard_node_up",
				"1 while the node's transport session is connected", "node")
			rttVec = reg.GaugeVec("greenweb_shard_heartbeat_rtt_seconds",
				"Most recent heartbeat round-trip time per node", "node")
			reconnVec = reg.CounterVec("greenweb_shard_reconnects_total",
				"Transport re-dial attempts per node", "node")
			missVec = reg.CounterVec("greenweb_shard_heartbeat_misses_total",
				"Heartbeats that went unanswered past the timeout", "node")
		}
		label := strconv.Itoa(i)
		upVec.Func(func() float64 {
			if h := hr.Health(); h.Connected {
				return 1
			}
			return 0
		}, label)
		rttVec.Func(func() float64 { return hr.Health().LastRTT.Seconds() }, label)
		reconnVec.Func(func() float64 { return float64(hr.Health().Reconnects) }, label)
		missVec.Func(func() float64 { return float64(hr.Health().HeartbeatMisses) }, label)
	}
}
