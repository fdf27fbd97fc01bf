// Package shard is the fleet's remote transport: RemoteNode plugs a
// greennode worker process into a fleet.Cluster behind the fleet.Node
// interface, and Worker is the greennode side, executing shipped jobs on
// its own one-node fleet.Cluster. The two speak length-prefixed JSON frames
// over TCP (proto.go); heartbeats watch each link, and a transport failure
// surfaces as fleet.ErrNodeDown so the cluster re-homes the job instead of
// failing it. ChaosSpec injects deterministic transport faults for tests.
package shard

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// RemoteOptions configures a RemoteNode.
type RemoteOptions struct {
	// Addr is the worker's TCP address (host:port). Ignored when Dial is set.
	Addr string
	// Dial overrides the transport (tests wrap connections in the chaos
	// injector). nil → net.Dialer to Addr.
	Dial func(ctx context.Context) (net.Conn, error)
	// DialTimeout caps one dial + handshake attempt. 0 → 5s.
	DialTimeout time.Duration

	// HeartbeatInterval is the ping cadence. 0 → 1s.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long an outstanding ping may go unanswered
	// before it counts as a miss. 0 → 3×HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// SuspectAfter is the consecutive-miss count that breaks the session
	// (suspicion): the connection is torn down and redialed. 0 → 2.
	SuspectAfter int

	// MaxReconnects bounds consecutive failed reconnect attempts before the
	// node is declared dead and the cluster evicts it. 0 → 5.
	MaxReconnects int
	// ReconnectBase/ReconnectMax shape the capped exponential backoff
	// between reconnect attempts (see backoff). 0 → 100ms / 5s.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
}

func (o *RemoteOptions) fill() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 3 * o.HeartbeatInterval
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 2
	}
	if o.MaxReconnects <= 0 {
		o.MaxReconnects = 5
	}
	if o.ReconnectBase <= 0 {
		o.ReconnectBase = 100 * time.Millisecond
	}
	if o.ReconnectMax <= 0 {
		o.ReconnectMax = 5 * time.Second
	}
}

// session is one live connection: the conn, the in-flight call table, and a
// write lock serializing frames.
type session struct {
	conn net.Conn

	// Fixed at handshake: the estimated clock offset (worker − us, µs) and
	// the worker's advertised name, which align and attribute the spans its
	// results ship back.
	offsetUS int64
	name     string

	writeMu sync.Mutex

	mu    sync.Mutex
	calls map[uint64]chan *wireResult
	err   error // why the session broke; nil while it serves
}

func (s *session) write(f frame) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return writeFrame(s.conn, f)
}

// register parks a call; fail-all on session teardown answers it if the
// result frame never arrives.
func (s *session) register(id uint64, ch chan *wireResult) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return false
	}
	s.calls[id] = ch
	return true
}

func (s *session) unregister(id uint64) {
	s.mu.Lock()
	delete(s.calls, id)
	s.mu.Unlock()
}

// deliver hands a parked call its result as it arrived; unknown ids
// (cancelled calls, a prior session's stragglers) are dropped.
func (s *session) deliver(id uint64, w *wireResult) {
	s.mu.Lock()
	ch, ok := s.calls[id]
	delete(s.calls, id)
	s.mu.Unlock()
	if ok {
		ch <- w
	}
}

// fail tears the call table down: every in-flight call's channel closes, so
// its Run returns fleet.ErrNodeDown and its cluster puller re-homes the job.
func (s *session) fail(reason error) {
	s.mu.Lock()
	s.err = reason
	calls := s.calls
	s.calls = map[uint64]chan *wireResult{}
	s.mu.Unlock()
	for _, ch := range calls {
		close(ch)
	}
}

// down is a job's result when the transport failed under it.
func down(job fleet.Job, cause any) fleet.Result {
	return fleet.Result{Job: job, Worker: -1, Err: fmt.Errorf("%w: %v", fleet.ErrNodeDown, cause)}
}

// RemoteNode is a fleet.Node whose execution backend is a greennode worker
// process reached over the frame protocol. It satisfies the same contract
// as fleet.LocalNode — Run executes one job to a terminal result — with the
// transport failure modes mapped onto fleet.ErrNodeDown so the cluster
// re-homes rather than fails affected jobs.
//
// Health model: a heartbeat ping flows every HeartbeatInterval. An
// unanswered ping past HeartbeatTimeout is a miss; SuspectAfter consecutive
// misses (or any read/write error) breaks the session, failing in-flight
// calls with fleet.ErrNodeDown and entering the reconnect loop — bounded
// attempts with deterministically jittered exponential backoff. While it
// reconnects,
// Wait holds the node's cluster pullers off the queue and Run fails fast,
// so the live nodes take the waiting jobs. MaxReconnects consecutive
// failures declare the node dead: OnDead subscribers fire (the cluster
// evicts the node), and Wait reports false from then on.
type RemoteNode struct {
	id      int
	opts    RemoteOptions
	workers int
	name    string

	mu     sync.Mutex
	sess   *session
	change chan struct{} // closed and replaced on every connect/disconnect/death
	dead   bool
	quit   chan struct{} // closed by Close
	onDead []func()

	seq        atomic.Uint64
	rttNS      atomic.Int64
	reconnects atomic.Int64 // completed re-dial attempts (successful or not) after the first session
	misses     atomic.Int64
	offsetUS   atomic.Int64 // latest handshake-estimated clock offset

	loopDone chan struct{}
}

// NewRemoteNode dials the worker, performs the handshake, and starts the
// connection manager. The initial dial is synchronous so a cluster over
// unreachable workers fails fast at startup instead of at first job.
func NewRemoteNode(id int, opts RemoteOptions) (*RemoteNode, error) {
	opts.fill()
	n := &RemoteNode{
		id:       id,
		opts:     opts,
		change:   make(chan struct{}),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	sess, workers, name, err := n.dialAndShake()
	if err != nil {
		return nil, fmt.Errorf("shard: node %d (%s): %w", id, opts.Addr, err)
	}
	if workers < 1 {
		workers = 1
	}
	n.workers, n.name = workers, name
	n.setSession(sess)
	go n.loop(sess)
	return n, nil
}

// Workers reports the worker's advertised execution slots (from the
// handshake), which is how many cluster pullers drive this node.
func (n *RemoteNode) Workers() int { return n.workers }

// Health snapshots the transport state.
func (n *RemoteNode) Health() fleet.NodeHealth {
	n.mu.Lock()
	connected, dead := n.sess != nil, n.dead
	n.mu.Unlock()
	return fleet.NodeHealth{
		Connected:       connected,
		Dead:            dead,
		LastRTT:         time.Duration(n.rttNS.Load()),
		Reconnects:      n.reconnects.Load(),
		HeartbeatMisses: n.misses.Load(),
		ClockOffsetUS:   n.offsetUS.Load(),
	}
}

// Name reports the worker's advertised identity from the handshake.
func (n *RemoteNode) Name() string { return n.name }

// OnDead registers fn to run (once, on its own goroutine) when the node is
// declared dead. If the node is already dead, fn fires immediately.
func (n *RemoteNode) OnDead(fn func()) {
	n.mu.Lock()
	dead := n.dead
	if !dead {
		n.onDead = append(n.onDead, fn)
	}
	n.mu.Unlock()
	if dead {
		go fn()
	}
}

// Close stops the connection manager, cutting a reconnect backoff short,
// and closes the connection. In-flight Run calls return fleet.ErrNodeDown.
// Idempotent.
func (n *RemoteNode) Close() {
	n.mu.Lock()
	if n.isClosed() {
		n.mu.Unlock()
		return
	}
	close(n.quit)
	sess := n.sess
	n.mu.Unlock()
	if sess != nil {
		sess.conn.Close()
	}
	<-n.loopDone
}

// setSession installs s (nil while reconnecting) and wakes Wait. It
// reports false, installing nothing, once the node is closed: Close has
// already closed the session it saw.
func (n *RemoteNode) setSession(s *session) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.isClosed() {
		return false
	}
	n.sess = s
	close(n.change)
	n.change = make(chan struct{})
	return true
}

// die declares the node dead and fires the eviction subscribers.
func (n *RemoteNode) die() {
	n.mu.Lock()
	if n.dead {
		n.mu.Unlock()
		return
	}
	n.dead = true
	subs := n.onDead
	n.onDead = nil
	close(n.change)
	n.change = make(chan struct{})
	n.mu.Unlock()
	for _, fn := range subs {
		go fn()
	}
}

func (n *RemoteNode) isClosed() bool {
	select {
	case <-n.quit:
		return true
	default:
		return false
	}
}

// Wait implements the cluster's waiter facet: it blocks while the node
// reconnects and reports whether the node can take a job, false once it is
// dead or closed, or once done closes.
func (n *RemoteNode) Wait(done <-chan struct{}) bool {
	for {
		n.mu.Lock()
		up, dead, change := n.sess != nil, n.dead, n.change
		n.mu.Unlock()
		switch {
		case dead || n.isClosed():
			return false
		case up:
			return true
		}
		select {
		case <-change:
		case <-n.quit:
		case <-done:
			return false
		}
	}
}

// dialAndShake establishes one connection: dial, hello, welcome.
func (n *RemoteNode) dialAndShake() (*session, int, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), n.opts.DialTimeout)
	defer cancel()
	dial := n.opts.Dial
	if dial == nil {
		dial = func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", n.opts.Addr)
		}
	}
	conn, err := dial(ctx)
	if err != nil {
		return nil, 0, "", err
	}
	deadline := time.Now().Add(n.opts.DialTimeout)
	conn.SetDeadline(deadline)
	// t0/t1 bracket the exchange for the clock-offset estimate: the
	// worker's now_us was read between our send and our receive.
	t0 := time.Now()
	if err := writeFrame(conn, frame{T: frameHello, Proto: protoVersion}); err != nil {
		conn.Close()
		return nil, 0, "", fmt.Errorf("handshake: %w", err)
	}
	f, err := readFrame(conn)
	t1 := time.Now()
	if err != nil {
		conn.Close()
		return nil, 0, "", fmt.Errorf("handshake: %w", err)
	}
	if f.T != frameWelcome || f.Err != "" {
		conn.Close()
		if f.Err != "" {
			return nil, 0, "", fmt.Errorf("worker refused: %s", f.Err)
		}
		return nil, 0, "", fmt.Errorf("handshake: unexpected %q frame", f.T)
	}
	conn.SetDeadline(time.Time{})
	sess := &session{conn: conn, name: f.Name, calls: map[uint64]chan *wireResult{}}
	// A welcome without a clock, which no greennode sends, leaves the offset
	// 0 rather than the distance to the epoch.
	if f.Now != 0 {
		sess.offsetUS = trace.EstimateOffsetUS(t0, t1, f.Now)
	}
	n.offsetUS.Store(sess.offsetUS)
	return sess, f.Workers, f.Name, nil
}

// loop is the connection manager: it runs the current session until it
// breaks, then reconnects with bounded backoff, declaring the node dead
// when the budget is exhausted.
func (n *RemoteNode) loop(sess *session) {
	defer close(n.loopDone)
	for {
		reason := n.runSession(sess)
		sess.conn.Close()
		sess.fail(reason)
		if !n.setSession(nil) {
			return
		}

		ok := false
		for attempt := 1; attempt <= n.opts.MaxReconnects; attempt++ {
			select {
			case <-time.After(backoff(n.opts.ReconnectBase, n.opts.ReconnectMax, n.id, attempt)):
			case <-n.quit:
				return
			}
			s, _, _, err := n.dialAndShake()
			n.reconnects.Add(1)
			if err == nil {
				sess, ok = s, true
				break
			}
		}
		if !ok {
			n.die()
			return
		}
		if !n.setSession(sess) {
			sess.conn.Close()
			return
		}
	}
}

// backoff is the reconnect loop's sleep before its attempt-th consecutive
// re-dial of node id: base·2^(attempt-1) capped at limit, scaled by a
// deterministic jitter in [0.75, 1.25) hashed from (id, attempt), so the
// nodes of a cluster whose workers died together re-dial apart, and
// identically on every run.
func backoff(base, limit time.Duration, id, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < limit; i++ {
		d *= 2
	}
	d = min(d, limit)
	var key [16]byte
	binary.LittleEndian.PutUint64(key[:8], uint64(id))
	binary.LittleEndian.PutUint64(key[8:], uint64(attempt))
	h := fnv.New64a()
	h.Write(key[:])
	frac := float64(h.Sum64()>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
}

// runSession reads frames and drives the heartbeat until the session
// breaks; the returned error is the cause.
func (n *RemoteNode) runSession(sess *session) error {
	readErr := make(chan error, 1)
	pongs := make(chan uint64, 8)
	go func() {
		for {
			f, err := readFrame(sess.conn)
			if err != nil {
				readErr <- err
				return
			}
			switch f.T {
			case frameResult:
				sess.deliver(f.ID, f.Result)
			case framePong:
				select {
				case pongs <- f.ID:
				default:
				}
			}
		}
	}()

	ticker := time.NewTicker(n.opts.HeartbeatInterval)
	defer ticker.Stop()
	var (
		pingID      uint64
		pingSent    time.Time
		outstanding bool
		misses      int
	)
	for {
		select {
		case err := <-readErr:
			return err
		case id := <-pongs:
			if outstanding && id == pingID {
				n.rttNS.Store(int64(time.Since(pingSent)))
				outstanding = false
				misses = 0
			}
		case <-ticker.C:
			if outstanding && time.Since(pingSent) > n.opts.HeartbeatTimeout {
				misses++
				n.misses.Add(1)
				outstanding = false
				if misses >= n.opts.SuspectAfter {
					return fmt.Errorf("heartbeat: %d consecutive misses", misses)
				}
			}
			if !outstanding {
				pingID = n.seq.Add(1)
				pingSent = time.Now()
				outstanding = true
				if err := sess.write(frame{T: framePing, ID: pingID}); err != nil {
					return fmt.Errorf("heartbeat write: %w", err)
				}
			}
		}
	}
}

// Run implements fleet.Node: ship the job, wait for its result, decode it
// and stamp it with the calling puller's slot. A traced job's worker spans
// join the span buffer ctx carries. A node with no session (reconnecting,
// dead or closed) fails the job at once with fleet.ErrNodeDown, as does a
// session that breaks mid-call, and the cluster re-homes it: no job waits
// out a reconnect.
func (n *RemoteNode) Run(ctx context.Context, slot int, job fleet.Job) fleet.Result {
	if err := ctx.Err(); err != nil {
		return fleet.Result{Job: job, Worker: -1, Err: err}
	}
	n.mu.Lock()
	sess := n.sess
	n.mu.Unlock()
	id := n.seq.Add(1)
	ch := make(chan *wireResult, 1)
	if sess == nil || !sess.register(id, ch) {
		return down(job, fmt.Sprintf("node %d has no session", n.id))
	}
	if err := sess.write(frame{T: frameJob, ID: id, Job: &job}); err != nil {
		sess.unregister(id)
		sess.conn.Close() // wake the reader; the loop handles teardown
		return down(job, err)
	}
	select {
	case w, ok := <-ch:
		if !ok {
			return down(job, sess.err) // fail set err before it closed ch
		}
		r, spans, dropped := decodeResult(w, job)
		if r.Worker >= 0 {
			r.Worker = slot
		}
		if tr := trace.SweepIn(ctx); tr != nil {
			// Worker spans arrive on the worker's clock; rebase them into
			// this timeline with the handshake offset and stamp the node
			// identity only this side knows.
			trace.AlignSpans(spans, sess.offsetUS, sess.name)
			tr.Add(spans, dropped)
		}
		return r
	case <-ctx.Done():
		sess.unregister(id)
		sess.write(frame{T: frameCancel, ID: id}) // best-effort
		return fleet.Result{Job: job, Worker: -1, Err: ctx.Err()}
	}
}
