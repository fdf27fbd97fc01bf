package fleet

import (
	"context"

	"github.com/wattwiseweb/greenweb/internal/harness"
)

// SuiteRunner adapts a Pool to harness.Prefetcher: the suite's generators
// hand it their whole cell working set, it fans the cells out as fleet
// jobs, and the results merge back keyed by cell. Each cell executes with
// harness.ExecuteCell semantics on an isolated device, so a fleet-backed
// report is byte-identical to the sequential one.
type SuiteRunner struct {
	ctx  context.Context
	pool *Pool
}

// NewSuiteRunner binds the pool to ctx (cancelling ctx aborts any prefetch
// in flight).
func NewSuiteRunner(ctx context.Context, pool *Pool) *SuiteRunner {
	if ctx == nil {
		ctx = context.Background()
	}
	return &SuiteRunner{ctx: ctx, pool: pool}
}

// Prefetch implements harness.Prefetcher.
func (r *SuiteRunner) Prefetch(cells []harness.Cell) (map[harness.Cell]*harness.Run, error) {
	jobs := make([]Job, len(cells))
	for i, c := range cells {
		phase := Micro
		if c.Full {
			phase = Full
		}
		jobs[i] = Job{App: c.App.Name, Kind: c.Kind, Phase: phase, StageWorkers: c.StageWorkers}
	}
	results := r.pool.RunSweep(r.ctx, jobs)
	out := make(map[harness.Cell]*harness.Run, len(cells))
	for i, res := range results {
		if res.Err != nil {
			return nil, res.Err
		}
		out[cells[i]] = res.Run
	}
	return out, nil
}

// Workers reports the pool's width. The suite runs the per-app executions
// its generators do themselves at this width too.
func (r *SuiteRunner) Workers() int { return r.pool.Workers() }

// NewSuite returns a harness suite whose generators prefetch through the
// pool — the drop-in parallel replacement for harness.NewSuite().
func NewSuite(ctx context.Context, pool *Pool) *harness.Suite {
	s := harness.NewSuite()
	s.SetPrefetcher(NewSuiteRunner(ctx, pool))
	return s
}
