package shard

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
)

// TestChaosDrawDeterministic: the fault stream is a pure function of
// (seed, direction, frame index) — two specs with the same seed agree on
// every draw, a different seed diverges somewhere.
func TestChaosDrawDeterministic(t *testing.T) {
	a := ChaosSpec{Seed: 42}
	b := ChaosSpec{Seed: 42}
	other := ChaosSpec{Seed: 7}
	diverged := false
	for i := uint64(0); i < 256; i++ {
		if a.draw("dial-1/w", i) != b.draw("dial-1/w", i) {
			t.Fatalf("same seed diverged at frame %d", i)
		}
		if a.draw("dial-1/w", i) != other.draw("dial-1/w", i) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds never diverged; draw ignores the seed")
	}
}

// chaosSweep runs one sweep through two remote nodes whose client
// connections are wrapped in the chaos spec, and returns the rendered
// NDJSON plus the cluster for post-assertions.
func chaosSweep(t *testing.T, spec ChaosSpec, jobs []fleet.Job, exec func(context.Context, fleet.Job) (*harness.Run, error)) (string, int64) {
	t.Helper()
	var nodes []fleet.Node
	for i := 0; i < 2; i++ {
		_, addr := startWorker(t, WorkerOptions{Cluster: fleet.Options{Workers: 2, Execute: exec}})
		opts := fastRemote(addr)
		opts.MaxReconnects = 25 // survive the whole fault schedule
		addrCopy := addr
		opts.Dial = spec.Dialer(func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addrCopy)
		})
		// The synchronous first dial is itself subject to chaos; retry like
		// an operator restarting greensrv. The dial-attempt counter advances
		// through the failures, so the schedule stays deterministic.
		var n *RemoteNode
		var err error
		for attempt := 0; attempt < 10; attempt++ {
			if n, err = NewRemoteNode(i, opts); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	out := ndjson(t, sweep(fleet.NewWithNodes(nodes, 0), jobs))
	var reconnects int64
	for _, n := range nodes {
		reconnects += n.(*RemoteNode).Health().Reconnects
	}
	return out, reconnects
}

// TestChaosTransportDeterminism: a sweep over connections that drop, tear,
// and stall frames still streams bytes identical to the pristine sequential
// reference — every lost job re-homes and re-executes — and the same chaos
// seed reproduces the same byte stream on a second run.
func TestChaosTransportDeterminism(t *testing.T) {
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &harness.Run{Frames: 1 + len(j.App)%7}, nil
	}
	jobs := make([]fleet.Job, 24)
	for i := range jobs {
		jobs[i] = fleet.Job{App: fmt.Sprintf("cell-%02d", i), Kind: harness.Perf, Phase: fleet.Full}
	}
	want := ndjson(t, reference(fleet.Options{Execute: exec}, jobs))

	spec := ChaosSpec{
		Seed:      9,
		DropProb:  0.04,
		TearProb:  0.04,
		StallProb: 0.05, Stall: 2 * time.Millisecond,
		ReadDelayProb: 0.05, ReadDelay: time.Millisecond,
	}
	got, reconnects := chaosSweep(t, spec, jobs, exec)
	if got != want {
		t.Fatalf("chaos sweep diverged from pristine output:\n--- got\n%s--- want\n%s", got, want)
	}
	if reconnects == 0 {
		t.Fatal("chaos schedule injected no faults; probabilities or seed too tame to prove anything")
	}
	again, _ := chaosSweep(t, spec, jobs, exec)
	if again != want {
		t.Fatalf("second run under the same chaos seed diverged:\n--- got\n%s--- want\n%s", again, want)
	}
}

// TestChaosTornFrameSurfaces: a torn frame (half written, connection
// killed) is read back as an error, not as a short or corrupt frame.
func TestChaosTornFrameSurfaces(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	wrapped := ChaosSpec{Seed: 1, TearProb: 1}.Wrap(client, "w")
	go func() {
		writeFrame(wrapped, frame{T: frameJob, ID: 1, Job: &fleet.Job{App: "x"}})
	}()
	if _, err := readFrame(server); err == nil {
		t.Fatal("torn frame decoded cleanly; reader must surface the tear")
	}
}
