package fleet

import (
	"context"
	"runtime"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/harness"
)

// TestFinishedJobRetention: a finished sweep keeps each job's row and
// timeline block, not its harness.Run, so the heap a server holds grows by
// a few kilobytes per finished micro job: about 3 KB on this mix, with the
// sweep's fleet trace, where keeping each whole run took about 8.
func TestFinishedJobRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("a hundred micro sweeps")
	}
	const sweeps = 100
	// Two Loading and Tapping apps under a baseline and a GreenWeb governor:
	// the greensrv micro sweep, traced as greensrv traces it.
	jobs := []Job{
		{App: "Todo", Kind: harness.Perf, Phase: Micro},
		{App: "Todo", Kind: harness.GreenWebI, Phase: Micro},
		{App: "BBC", Kind: harness.Perf, Phase: Micro},
		{App: "BBC", Kind: harness.GreenWebI, Phase: Micro},
	}
	cluster := New(Options{Workers: 2})
	defer cluster.Close()
	m := NewManager(context.Background(), cluster)
	run := func() {
		s, err := m.Enqueue(jobs)
		if err != nil {
			t.Fatal(err)
		}
		<-s.Done()
		if st := s.Status(); st.Done != len(jobs) {
			t.Fatalf("sweep %s: %d of %d jobs done", s.ID, st.Done, len(jobs))
		}
	}
	run() // warm the page asset cache and the pools

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < sweeps; i++ {
		run()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)

	perJob := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (sweeps * float64(len(jobs)))
	t.Logf("retained %.0f bytes per finished job", perJob)
	if perJob > 5<<10 {
		t.Fatalf("the manager retains %.0f bytes per finished micro job, want at most %d", perJob, 5<<10)
	}
}
