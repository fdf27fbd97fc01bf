package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/obs"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// WorkerOptions configures a Worker process (the greennode side of the
// remote protocol).
type WorkerOptions struct {
	// Name identifies the worker in its welcome frame (host:port by default).
	Name string
	// Cluster configures the worker's own fleet.Cluster: worker count, job
	// timeout, and — in tests — the Execute override.
	Cluster fleet.Options
}

// Worker executes jobs shipped over the frame protocol on a local
// fleet.Cluster, each once, as a local node would, so a remote job's
// terminal result is indistinguishable from a local one. A
// traced job runs with a span buffer of its own (trace.DefaultJobBudget
// spans), which its result frame ships back.
//
// Each accepted connection is handshaken (hello/welcome with a protocol
// version check), then serves a multiplexed stream on its read loop: job
// frames go on the cluster's queue, and their results are written back
// keyed by frame id, ping frames are answered immediately (heartbeats
// measure the transport even while every slot is busy), and cancel frames
// abort the matching job's context. A broken connection cancels that
// connection's in-flight jobs.
type Worker struct {
	opts    WorkerOptions
	cluster *fleet.Cluster

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]context.CancelFunc
	closed bool
	wg     sync.WaitGroup

	connsTotal atomic.Int64 // connections ever accepted
	jobsTotal  atomic.Int64 // job frames executed
}

// NewWorker builds the worker and its cluster.
func NewWorker(opts WorkerOptions) *Worker {
	return &Worker{
		opts:    opts,
		cluster: fleet.New(opts.Cluster),
		conns:   map[net.Conn]context.CancelFunc{},
	}
}

// Workers reports the cluster's execution slots (advertised in welcome
// frames).
func (w *Worker) Workers() int { return w.cluster.Workers() }

// RegisterMetrics exposes the worker's transport counters plus its
// cluster's greenweb_fleet_* and greenweb_shard_* families on an obs
// registry — the greennode -http health surface serves exactly this.
func (w *Worker) RegisterMetrics(reg *obs.Registry) {
	w.cluster.RegisterMetrics(reg)
	reg.GaugeFunc("greenweb_node_connections",
		"Client connections currently served", func() float64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			return float64(len(w.conns))
		})
	reg.CounterFunc("greenweb_node_connections_total",
		"Client connections ever accepted", func() float64 { return float64(w.connsTotal.Load()) })
	reg.CounterFunc("greenweb_node_jobs_total",
		"Job frames executed", func() float64 { return float64(w.jobsTotal.Load()) })
}

// Serve accepts connections on l until Close (or Kill). It returns the
// listener's terminal error, nil after an orderly Close.
func (w *Worker) Serve(l net.Listener) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		l.Close()
		return errors.New("shard: worker closed")
	}
	w.ln = l
	name := w.opts.Name
	w.mu.Unlock()
	if name == "" {
		name = l.Addr().String()
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			w.mu.Lock()
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		ctx, cancel := context.WithCancel(context.Background())
		w.conns[conn] = cancel
		w.connsTotal.Add(1)
		w.wg.Add(1)
		w.mu.Unlock()
		go func() {
			defer w.wg.Done()
			w.serveConn(ctx, conn, name)
			cancel()
			w.mu.Lock()
			delete(w.conns, conn)
			w.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every connection (cancelling its in-flight
// jobs), waits for the connection handlers, and shuts the cluster down.
func (w *Worker) Close() {
	w.kill()
	w.wg.Wait()
	w.cluster.Close()
}

// Kill is the abrupt variant: listener and connections are closed without
// waiting for handlers or draining the cluster — the in-process analogue of a
// SIGKILL, used by chaos tests to die mid-frame.
func (w *Worker) Kill() { w.kill() }

func (w *Worker) kill() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	if w.ln != nil {
		w.ln.Close()
	}
	for conn, cancel := range w.conns {
		cancel()
		conn.Close()
	}
}

// serveConn handshakes and serves one client connection.
func (w *Worker) serveConn(ctx context.Context, conn net.Conn, name string) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	hello, err := readFrame(conn)
	if err != nil {
		return
	}
	var writeMu sync.Mutex
	write := func(f frame) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		return writeFrame(conn, f)
	}
	if hello.T != frameHello || hello.Proto != protoVersion {
		write(frame{T: frameWelcome, Err: fmt.Sprintf(
			"unsupported handshake (%s proto %d; want %s proto %d)",
			hello.T, hello.Proto, frameHello, protoVersion)})
		return
	}
	// The clock read (now_us) is taken as late as possible so the client's
	// offset estimate brackets it.
	if err := write(frame{T: frameWelcome, Proto: protoVersion, Workers: w.cluster.Workers(),
		Name: name, PID: os.Getpid(), Now: time.Now().UnixMicro()}); err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})

	var jobMu sync.Mutex
	cancels := map[uint64]context.CancelFunc{}
	defer func() {
		jobMu.Lock()
		for _, cancel := range cancels {
			cancel()
		}
		jobMu.Unlock()
	}()

	for {
		f, err := readFrame(conn)
		if err != nil {
			return
		}
		switch f.T {
		case framePing:
			if write(frame{T: framePong, ID: f.ID}) != nil {
				return
			}
		case frameCancel:
			jobMu.Lock()
			if cancel, ok := cancels[f.ID]; ok {
				cancel()
			}
			jobMu.Unlock()
		case frameJob:
			if f.Job == nil {
				continue
			}
			id, job := f.ID, *f.Job
			w.jobsTotal.Add(1)
			jobCtx, cancel := context.WithCancel(ctx)
			var spans *trace.SweepTrace // the traced job's, nil otherwise
			if job.Trace != nil {
				spans = trace.NewSweepTrace(trace.DefaultJobBudget)
				jobCtx = trace.WithSweep(jobCtx, spans)
			}
			jobMu.Lock()
			cancels[id] = cancel
			jobMu.Unlock()
			// Start never blocks, so the read loop starts every job itself
			// and pings keep flowing while every slot is busy.
			reply := func(r fleet.Result) {
				jobMu.Lock()
				delete(cancels, id)
				jobMu.Unlock()
				cancel()
				write(frame{T: frameResult, ID: id, Result: encodeResult(r, spans)})
			}
			if err := w.cluster.Start(jobCtx, job, nil, reply); err != nil {
				reply(fleet.Result{Job: job, Worker: -1, Err: err})
			}
		}
	}
}
