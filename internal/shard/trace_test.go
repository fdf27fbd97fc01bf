package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
	"github.com/wattwiseweb/greenweb/internal/obs/trace"
)

// runTraced runs job on n with a fresh span buffer and returns the result,
// the spans the buffer kept, and the Run call's wall window (unix µs).
func runTraced(n *RemoteNode, job fleet.Job) (res fleet.Result, spans []trace.Span, before, after int64) {
	tr := trace.NewSweepTrace(8)
	before = time.Now().UnixMicro()
	res = n.Run(trace.WithSweep(context.Background(), tr), 0, job)
	after = time.Now().UnixMicro()
	spans, _ = tr.Snapshot()
	return res, spans, before, after
}

// TestRemoteTraceNegotiation pins the happy path: the worker runs a traced
// job, and the client draws the job's one execute span from the result's
// latency, under the worker's name and pid, the job's coordinates, and
// inside the Run call. An untraced job adds no span.
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
		Trace: &trace.Context{Job: 3, Parent: 42}}
	res, spans, before, after := runTraced(n, job)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(spans) != 1 {
		t.Fatalf("a traced job drew %d spans, want its one execute span: %+v", len(spans), spans)
	}
	sp := spans[0]
	if sp.Name != "execute" || sp.Node != "nodeA" || sp.PID != os.Getpid() || sp.Parent != 42 || sp.Job != 3 {
		t.Errorf("execute span = %+v; want node nodeA, the worker's pid %d, parent 42, job 3", sp, os.Getpid())
	}
	if sp.StartUS < before || sp.DurUS < 0 || sp.StartUS+sp.DurUS > after {
		t.Errorf("execute span [%d, +%d]µs lies outside the Run call [%d, %d]µs", sp.StartUS, sp.DurUS, before, after)
	}

	job.Trace = nil
	if res, spans, _, _ := runTraced(n, job); res.Err != nil || len(spans) != 0 {
		t.Errorf("an untraced job: err %v, %d spans; want none", res.Err, len(spans))
	}
}

// TestJobFrameCarriesNoTrace: a traced job's frame carries the job without
// its trace context, which only the server that draws its spans reads.
func TestJobFrameCarriesNoTrace(t *testing.T) {
	job := fleet.Job{App: "Todo", Kind: harness.Perf, Phase: fleet.Micro,
		Trace: &trace.Context{Job: 3, Parent: 42}}
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{T: frameJob, ID: 1, Job: &job}); err != nil {
		t.Fatal(err)
	}
	var f struct{ Job map[string]json.RawMessage }
	if err := json.Unmarshal(buf.Bytes()[4:], &f); err != nil {
		t.Fatal(err)
	}
	if f.Job["app"] == nil {
		t.Fatalf("job frame %s carries no job", buf.Bytes()[4:])
	}
	if _, ok := f.Job["trace"]; ok {
		t.Fatalf("job frame %s carries the trace context", buf.Bytes()[4:])
	}
}

// fakeWorker is a hand-rolled frame server: it answers the handshake with
// the caller's welcome frame, pongs pings, and answers job frames, in turn,
// with a result that carries neither an error nor a row but says its job
// ran for a millisecond, and with a result frame that carries no result at
// all.
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
						time.Sleep(time.Millisecond)
						res := &wireResult{LatencyNS: int64(time.Millisecond)}
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

// TestExecuteSpanInsideRunCall: the client draws a traced job's execute
// span on its own clock, from a worker whose welcome carries no clock, so
// the span lies inside the Run call with no slack, under the worker's name
// and pid.
func TestExecuteSpanInsideRunCall(t *testing.T) {
	addr := fakeWorker(t, frame{T: frameWelcome, Proto: protoVersion, Workers: 1, Name: "fake", PID: 999})
	n, err := NewRemoteNode(0, fastRemote(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	_, spans, before, after := runTraced(n, fleet.Job{App: "Todo", Kind: harness.Perf, Phase: fleet.Micro,
		Trace: &trace.Context{Job: 1, Parent: 7}})
	if len(spans) != 1 || spans[0].Node != "fake" || spans[0].PID != 999 {
		t.Fatalf("spans = %+v; want one execute span of node fake, pid 999", spans)
	}
	if sp := spans[0]; sp.StartUS < before || sp.DurUS != 1000 || sp.StartUS+sp.DurUS > after {
		t.Fatalf("execute span [%d, +%d]µs; want 1000µs inside the Run call [%d, %d]µs", sp.StartUS, sp.DurUS, before, after)
	}
}
