package harness

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// spaCell is the DOM-heavy staged-pipeline workload: SPA-Feed under
// GreenWeb-I, microbenchmark trace. BENCH_PR9.json tracks the serial vs
// stage-parallel pair.
func spaCell(tb testing.TB) Cell {
	tb.Helper()
	app, ok := apps.ByName("SPA-Feed")
	if !ok {
		tb.Fatal("SPA-Feed not registered")
	}
	return Cell{App: app, Kind: GreenWebI}
}

func benchWarmSPA(b *testing.B, workers int) {
	cell := spaCell(b)
	ctx := WithStageWorkers(context.Background(), workers)
	if _, err := ExecuteCell(ctx, cell); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteCell(ctx, cell); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteCellWarmSPASerial: the DOM-heavy cell on the serial
// pipeline (pre-PR 9 behavior).
func BenchmarkExecuteCellWarmSPASerial(b *testing.B) { benchWarmSPA(b, 1) }

// BenchmarkExecuteCellWarmSPAStaged4: the same cell with style/layout/paint
// sharded across four stage cores.
func BenchmarkExecuteCellWarmSPAStaged4(b *testing.B) { benchWarmSPA(b, 4) }

// meanInteractionLatencyMS averages ProductionLatency over the interaction
// frames (skipping the load frame), in milliseconds of virtual time.
func meanInteractionLatencyMS(r *Run) float64 {
	var sum sim.Duration
	n := 0
	for _, fr := range r.FrameResults[1:] {
		sum += fr.ProductionLatency
		n++
	}
	if n == 0 {
		return 0
	}
	return sum.Seconds() * 1e3 / float64(n)
}

// TestPR9Metrics computes the modeled (virtual-time) numbers BENCH_PR9.json
// reports — frame-latency improvement from stage parallelism, and the
// GreenWeb-I energy at fixed QoS with and without the per-stage config
// dimension. Gated behind GREENWEB_PR9_OUT so the regular suite doesn't pay
// for it; scripts/bench.sh pr9 sets the variable and consumes the JSON.
func TestPR9Metrics(t *testing.T) {
	out := os.Getenv("GREENWEB_PR9_OUT")
	if out == "" {
		t.Skip("set GREENWEB_PR9_OUT to compute PR 9 bench metrics")
	}
	app, ok := apps.ByName("SPA-Feed")
	if !ok {
		t.Fatal("SPA-Feed not registered")
	}
	serialCtx := WithStageWorkers(context.Background(), 1)
	stagedCtx := WithStageWorkers(context.Background(), 4)

	// Modeled frame latency, serial vs staged, at the same governor.
	serial, err := ExecuteCell(serialCtx, Cell{App: app, Kind: GreenWebI, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	staged, err := ExecuteCell(stagedCtx, Cell{App: app, Kind: GreenWebI, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	serialMS := meanInteractionLatencyMS(serial)
	stagedMS := meanInteractionLatencyMS(staged)

	// Energy at fixed QoS: uniform GreenWeb-I vs the per-stage vector, both
	// on the 4-core staged pipeline, repeated-measurement protocol.
	uni, err := ExecuteCell(stagedCtx, Cell{App: app, Kind: GreenWebI})
	if err != nil {
		t.Fatal(err)
	}
	vec, err := ExecuteCell(stagedCtx, Cell{App: app, Kind: GreenWebIStaged})
	if err != nil {
		t.Fatal(err)
	}

	metrics := map[string]any{
		"app":                          app.Name,
		"frame_latency_serial_ms":      serialMS,
		"frame_latency_staged4_ms":     stagedMS,
		"frame_latency_improvement":    serialMS / stagedMS,
		"energy_uniform_j":             float64(uni.Energy),
		"energy_stage_vector_j":        float64(vec.Energy),
		"violation_i_uniform_pct":      uni.ViolationI,
		"violation_i_stage_vector_pct": vec.ViolationI,
		"frames_uniform":               uni.Frames,
		"frames_stage_vector":          vec.Frames,
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(metrics); err != nil {
		t.Fatal(err)
	}

	if serialMS/stagedMS < 1.3 {
		t.Errorf("modeled frame-latency improvement %.2f× below 1.3×", serialMS/stagedMS)
	}
	if vec.Energy > uni.Energy {
		t.Errorf("stage-vector energy %.4f J above uniform %.4f J", float64(vec.Energy), float64(uni.Energy))
	}
	if vec.ViolationI > uni.ViolationI {
		t.Errorf("stage-vector violations %.3f%% above uniform %.3f%%", vec.ViolationI, uni.ViolationI)
	}
}
