package core

import (
	"testing"

	"github.com/wattwiseweb/greenweb/internal/acmp"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// referenceSelectWithin recomputes the sweep from scratch, bypassing the
// memo — the oracle the cached path must always agree with.
func referenceSelectWithin(m *Model, deadline sim.Duration, pm *acmp.PowerModel, safety float64, ceiling acmp.Config) acmp.Config {
	bound := sim.Duration(float64(deadline) * safety)
	ceilIdx := ceiling.Index()
	best := ceiling
	bestE := acmp.Joules(-1)
	for _, cfg := range acmp.Configs() {
		if cfg.Index() > ceilIdx {
			break
		}
		if m.Predict(cfg) > bound {
			continue
		}
		e := m.PredictEnergy(cfg, pm, deadline)
		if bestE < 0 || e < bestE {
			best, bestE = cfg, e
		}
	}
	for i := 0; i < m.bias; i++ {
		up, ok := best.StepUp()
		if !ok || up.Index() > ceilIdx {
			break
		}
		best = up
	}
	return best
}

func checkAgainstReference(t *testing.T, m *Model, deadline sim.Duration, pm *acmp.PowerModel, ceiling acmp.Config, context string) acmp.Config {
	t.Helper()
	got := m.SelectWithin(deadline, pm, 0.9, ceiling)
	want := referenceSelectWithin(m, deadline, pm, 0.9, ceiling)
	if got != want {
		t.Fatalf("%s: SelectWithin = %v, reference sweep = %v", context, got, want)
	}
	return got
}

// TestSweepMemoInvalidation warms the memo, then mutates the model through
// every invalidating path and asserts the next selection is recomputed (it
// matches a from-scratch reference sweep, never a stale cached value).
func TestSweepMemoInvalidation(t *testing.T) {
	ann := qos.Annotation{Event: "click", Type: qos.Single, Target: qos.SingleShortTarget}
	m := NewModel("t@click", ann)
	m.RecordProfile(12*sim.Millisecond, acmp.PeakConfig())
	m.RecordProfile(90*sim.Millisecond, acmp.LowestConfig())
	pm := acmp.DefaultPower()
	deadline := 100 * sim.Millisecond
	ceiling := acmp.PeakConfig()

	warm := checkAgainstReference(t, m, deadline, pm, ceiling, "warmup")
	if !m.sel.valid {
		t.Fatal("memo not filled after a sweep")
	}

	// Changed key parts must miss the memo even with an unchanged model.
	checkAgainstReference(t, m, deadline/2, pm, ceiling, "changed deadline")
	checkAgainstReference(t, m, deadline, pm, acmp.MaxConfig(acmp.Little), "changed ceiling")
	pm2 := acmp.DefaultPower()
	checkAgainstReference(t, m, deadline, pm2, ceiling, "changed power model")

	// A violation steps the bias: the selection must move up, not replay
	// the cached pre-violation answer.
	checkAgainstReference(t, m, deadline, pm, ceiling, "re-warm")
	v0 := m.version
	m.Feedback(deadline+sim.Millisecond, deadline, warm, 1<<30)
	if m.version == v0 {
		t.Fatal("bias-stepping Feedback did not bump the version")
	}
	biased := checkAgainstReference(t, m, deadline, pm, ceiling, "after violation")
	if biased == warm {
		t.Fatalf("bias step did not change the selection (still %v)", warm)
	}

	// Comfortable frames step the bias back down.
	m.Feedback(deadline/4, deadline, biased, 1<<30)
	checkAgainstReference(t, m, deadline, pm, ceiling, "after bias step-down")

	// Non-bias-changing feedback must NOT invalidate (steady state stays hot).
	v1 := m.version
	m.Feedback(deadline*3/4, deadline, warm, 1<<30)
	if m.version != v1 {
		t.Fatal("neutral Feedback invalidated the memo")
	}

	// Reprofiling re-identifies the model with different parameters; the
	// selection must reflect them.
	m.Reset()
	m.RecordProfile(30*sim.Millisecond, acmp.PeakConfig())
	m.RecordProfile(200*sim.Millisecond, acmp.LowestConfig())
	checkAgainstReference(t, m, deadline, pm, ceiling, "after reprofile")

	// ImportModels defensively invalidates the runtime's copy of each
	// imported model, and leaves the original alone.
	checkAgainstReference(t, m, deadline, pm, ceiling, "pre-import warm")
	if !m.sel.valid {
		t.Fatal("memo not warm before import")
	}
	r := New(Options{})
	r.ImportModels(map[string]*Model{m.Key: m})
	imported := r.Models()[m.Key]
	if imported == m {
		t.Fatal("ImportModels kept the caller's model instead of a copy")
	}
	if imported.sel.valid {
		t.Fatal("ImportModels did not invalidate the imported model's memo")
	}
	if !m.sel.valid {
		t.Fatal("ImportModels mutated the caller's model")
	}
	checkAgainstReference(t, imported, deadline, pm, ceiling, "after import")
}
