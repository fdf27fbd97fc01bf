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

// TestRemoteTraceNegotiation pins the happy path: a worker executes a
// traced job and ships its spans back on the result frame, where the client
// stamps them with the node's identity and adds them to the span buffer
// the job's context carries.
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
	tr := trace.NewSweepTrace(trace.DefaultJobBudget)
	res := n.Run(trace.WithSweep(context.Background(), tr), 0, job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	spans, drops := tr.Snapshot()
	if len(spans) == 0 || drops != 0 {
		t.Fatalf("traced job came back with %d worker spans and %d drops; want spans and no drops", len(spans), drops)
	}
	sawExecute := false
	for _, sp := range spans {
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
		t.Errorf("no execute span in %+v", spans)
	}
}

// fakeWorker is a hand-rolled frame server: it answers the handshake with
// the caller's welcome frame, pongs pings, and answers job frames, in turn,
// with a result that carries neither an error nor a row and with a result
// frame that carries no result at all.
func fakeWorker(t *testing.T, welcome frame) string {
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
				bodyless := false
				for {
					f, err := readFrame(conn)
					if err != nil {
						return
					}
					switch f.T {
					case framePing:
						writeFrame(conn, frame{T: framePong, ID: f.ID})
					case frameJob:
						res := &wireResult{LatencyNS: 1}
						if bodyless {
							res = nil
						}
						bodyless = !bodyless
						writeFrame(conn, frame{T: frameResult, ID: f.ID, Result: res})
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// TestHandshakeClockOffset: a worker whose welcome clock is skewed five
// seconds ahead yields a matching handshake offset estimate, and shipped
// spans are rebased into the client's timeline on delivery; a welcome
// without a clock yields none.
func TestHandshakeClockOffset(t *testing.T) {
	const skewUS = 5_000_000
	addr := fakeWorker(t, frame{T: frameWelcome, Proto: protoVersion,
		Workers: 1, Name: "skewed", PID: 999, Now: time.Now().UnixMicro() + skewUS})
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

	// A welcome without a clock yields no offset, not the distance to the
	// epoch.
	clockless, err := NewRemoteNode(1, fastRemote(fakeWorker(t, frame{T: frameWelcome, Proto: protoVersion, Workers: 1})))
	if err != nil {
		t.Fatal(err)
	}
	defer clockless.Close()
	if off := clockless.Health().ClockOffsetUS; off != 0 {
		t.Errorf("a welcome without now_us gave clock offset %dµs, want 0", off)
	}
}
