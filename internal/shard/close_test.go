package shard

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/wattwiseweb/greenweb/internal/fleet"
	"github.com/wattwiseweb/greenweb/internal/harness"
)

// TestClusterCloseRacesSubmissionsAndSteals: Close while submitters hammer
// Start and an imbalanced load keeps steal paths hot. Every accepted
// submission must deliver exactly once, every post-close Start must return
// the typed fleet.ErrClosed, and no goroutine may outlive the cluster.
// Meaningful under -race, which the CI test job runs.
func TestClusterCloseRacesSubmissionsAndSteals(t *testing.T) {
	before := runtime.NumGoroutine()
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		d := time.Millisecond
		if j.App == "slow" {
			d = 5 * time.Millisecond
		}
		select {
		case <-time.After(d):
			return &harness.Run{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := fleet.New(fleet.Options{Nodes: 3, Workers: 2, QueueDepth: 16, Execute: exec})

	var accepted, delivered, rejected atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				app := "fast"
				if (g+i)%3 == 0 {
					app = "slow" // uneven latency keeps partitions imbalanced
				}
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				err := c.Start(ctx, fleet.Job{App: app}, nil, func(fleet.Result) { delivered.Add(1) })
				cancel()
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, fleet.ErrClosed):
					rejected.Add(1)
					return
				case errors.Is(err, context.DeadlineExceeded):
					// queue stayed full through the timeout; keep going
				default:
					t.Errorf("Start returned unexpected error: %v", err)
					return
				}
			}
		}(g)
	}

	time.Sleep(20 * time.Millisecond) // let submissions and steals build up
	c.Close()
	close(stop)
	wg.Wait()

	if err := c.Start(context.Background(), fleet.Job{App: "late"}, nil, nil); !errors.Is(err, fleet.ErrClosed) {
		t.Fatalf("Start after Close = %v, want fleet.ErrClosed", err)
	}
	// Close drains the queue: everything accepted was delivered exactly once.
	deadline := time.Now().Add(2 * time.Second)
	for delivered.Load() != accepted.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() != accepted.Load() {
		t.Fatalf("accepted %d submissions but delivered %d results", accepted.Load(), delivered.Load())
	}
	// Pullers must be gone; allow the runtime a moment to retire exiting
	// goroutines.
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked across Close: %d before, %d after", before, runtime.NumGoroutine())
}

// TestEvictRehomesQueuedJobs: evicting a node moves its queued jobs onto
// live siblings, and the sweep completes as if the node never existed.
func TestEvictRehomesQueuedJobs(t *testing.T) {
	block := make(chan struct{})
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		select {
		case <-block:
			return &harness.Run{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := fleet.New(fleet.Options{Nodes: 2, Workers: 1, QueueDepth: 16, Execute: exec})
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		if err := c.Start(context.Background(), fleet.Job{App: "a"}, nil, func(r fleet.Result) {
			if r.Err != nil {
				t.Errorf("job failed after eviction: %v", r.Err)
			}
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	go c.Evict(0)
	time.Sleep(5 * time.Millisecond) // let the eviction land while jobs block
	close(block)
	wg.Wait()
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	if c.Rehomed(0) == 0 {
		t.Fatal("nothing re-homed off the evicted node's partition")
	}
	c.Evict(0) // idempotent
	if c.Evictions() != 1 {
		t.Fatal("double eviction counted twice")
	}
}

// TestEvictLastNodeStrandsJobs: with no live sibling, queued jobs are
// delivered as typed ErrNoNodes failures and later submissions are refused
// with the same error.
func TestEvictLastNodeStrandsJobs(t *testing.T) {
	block := make(chan struct{})
	exec := func(ctx context.Context, j fleet.Job) (*harness.Run, error) {
		select {
		case <-block:
			return &harness.Run{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := fleet.New(fleet.Options{Nodes: 1, Workers: 1, QueueDepth: 8, Execute: exec})
	defer c.Close()

	results := make(chan fleet.Result, 3)
	for i := 0; i < 3; i++ {
		if err := c.Start(context.Background(), fleet.Job{App: "a"}, nil, func(r fleet.Result) {
			results <- r
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the single puller to hold one job in flight; the other two
	// are queued and will strand.
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Running == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	go c.Evict(0)
	time.Sleep(5 * time.Millisecond)
	close(block) // let the in-flight job finish

	var failed, succeeded int
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			if r.Err == nil {
				succeeded++
			} else if errors.Is(r.Err, fleet.ErrNoNodes) {
				failed++
			} else {
				t.Fatalf("stranded job got %v, want ErrNoNodes", r.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("stranded job never delivered")
		}
	}
	if succeeded != 1 || failed != 2 {
		t.Fatalf("succeeded=%d failed=%d, want 1 in-flight success and 2 stranded failures", succeeded, failed)
	}
	if err := c.Start(context.Background(), fleet.Job{App: "late"}, nil, nil); !errors.Is(err, fleet.ErrNoNodes) {
		t.Fatalf("Start on fully evicted cluster = %v, want ErrNoNodes", err)
	}
}
