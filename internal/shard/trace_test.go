package shard

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// TestRemoteTraceNegotiation pins the happy path: a current worker echoes
// trace support, executes a traced job, and ships its spans back on the
// result frame, where the client stamps them with the node's identity.
func TestRemoteTraceNegotiation(t *testing.T) {
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		return &harness.Run{Frames: 1, Energy: acmp.Joules(1)}, nil
	}
	_, addr := startWorker(t, WorkerOptions{
		Name:    "nodeA",
		Cluster: fleet.Options{Workers: 1, Execute: exec},
	})
	n, err := NewRemoteNode(0, fastRemote(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Name() != "nodeA" {
		t.Fatalf("Name() = %q, want nodeA", n.Name())
	}

	job := fleet.Job{App: "Todo", Kind: harness.Perf, Phase: fleet.Micro,
		Trace: &trace.Context{Sweep: "s-test", Job: 3, Parent: 42}}
	res := n.Run(context.Background(), 0, job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Spans) == 0 {
		t.Fatal("traced job came back with no worker spans")
	}
	sawExecute := false
	for _, sp := range res.Spans {
		if sp.Node != "nodeA" {
			t.Errorf("span %q node = %q, want nodeA (stamped on delivery)", sp.Name, sp.Node)
		}
		if sp.Job != 3 {
			t.Errorf("span %q job = %d, want 3 (from the trace context)", sp.Name, sp.Job)
		}
		if sp.Name == "execute" {
			sawExecute = true
			if sp.Parent != 42 {
				t.Errorf("execute parent = %d, want the root span id 42", sp.Parent)
			}
		}
	}
	if !sawExecute {
		t.Errorf("no execute span in %+v", res.Spans)
	}
}

// fakeWorker is a hand-rolled frame server for negotiation edge cases: it
// answers the handshake with the caller's welcome frame, then serves job
// frames with canned results, reporting each received job for inspection.
func fakeWorker(t *testing.T, welcome frame, gotJobs chan<- fleet.Job) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := readFrame(conn); err != nil {
					return
				}
				if writeFrame(conn, welcome) != nil {
					return
				}
				for {
					f, err := readFrame(conn)
					if err != nil {
						return
					}
					switch f.T {
					case framePing:
						writeFrame(conn, frame{T: framePong, ID: f.ID})
					case frameJob:
						gotJobs <- *f.Job
						writeFrame(conn, frame{T: frameResult, ID: f.ID,
							Result: encodeResult(fleet.Result{Job: *f.Job, Worker: 0})})
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// TestLegacyWorkerGetsStrippedTrace: a worker that does not echo trace
// support (an old binary, or greennode -no-obs) must never receive trace
// contexts — the client strips them per session, and the job still runs.
func TestLegacyWorkerGetsStrippedTrace(t *testing.T) {
	gotJobs := make(chan fleet.Job, 1)
	addr := fakeWorker(t, frame{T: frameWelcome, Proto: protoVersion,
		Workers: 1, Name: "legacy"}, gotJobs)
	n, err := NewRemoteNode(0, fastRemote(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	job := fleet.Job{App: "Todo", Kind: harness.Perf, Phase: fleet.Micro,
		Trace: &trace.Context{Sweep: "s-test", Job: 0, Parent: 7}}
	res := n.Run(context.Background(), 0, job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got := <-gotJobs
	if got.Trace != nil {
		t.Fatalf("legacy worker received trace context %+v, want stripped", got.Trace)
	}
	// The caller's own job copy keeps its context — stripping is wire-only.
	if job.Trace == nil {
		t.Fatal("client-side job lost its trace context")
	}
	if off := n.Health().ClockOffsetUS; off != 0 {
		t.Errorf("un-negotiated session reported clock offset %d, want 0", off)
	}
}

// TestHandshakeClockOffset: a worker whose welcome clock is skewed five
// seconds ahead yields a matching handshake offset estimate, and shipped
// spans are rebased into the client's timeline on delivery.
func TestHandshakeClockOffset(t *testing.T) {
	const skewUS = 5_000_000
	gotJobs := make(chan fleet.Job, 1)
	addr := fakeWorker(t, frame{T: frameWelcome, Proto: protoVersion,
		Workers: 1, Name: "skewed", Trace: true, PID: 999,
		Now: time.Now().UnixMicro() + skewUS}, gotJobs)
	n, err := NewRemoteNode(0, fastRemote(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	off := n.Health().ClockOffsetUS
	// The handshake round trip on loopback is well under 100ms, so the
	// estimate must land within that of the injected skew.
	if off < skewUS-100_000 || off > skewUS+100_000 {
		t.Fatalf("clock offset = %dµs, want ≈%dµs", off, skewUS)
	}
}
