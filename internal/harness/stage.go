package harness

import (
	"context"

	"github.com/wattwiseweb/greenweb/internal/browser"
)

// The stage-worker count of a run is carried on the context like the obs
// gate (obs.EnabledIn): callers that want a staged engine wrap the run's
// context (fleet workers from Job.StageWorkers, the suite from its own
// count), and the run builds its device with it (device.New).

type stageWorkersKey struct{}

// WithStageWorkers returns a context whose harness executions run with n
// stage threads (0 or 1 = serial frame production, the default for a
// context without a count). n outside [0, browser.MaxStageWorkers] panics —
// validate external input with ValidStageWorkers first.
func WithStageWorkers(ctx context.Context, n int) context.Context {
	if n < 0 || n > browser.MaxStageWorkers {
		panic("harness: stage workers out of range")
	}
	return context.WithValue(ctx, stageWorkersKey{}, n)
}

// StageWorkersIn reports the context's stage-worker count (0 = none given,
// which runs serial).
func StageWorkersIn(ctx context.Context) int {
	if n, ok := ctx.Value(stageWorkersKey{}).(int); ok {
		return n
	}
	return 0
}

// ValidStageWorkers reports whether n is an acceptable stage-worker count
// for flag and job validation.
func ValidStageWorkers(n int) bool { return n >= 0 && n <= browser.MaxStageWorkers }
