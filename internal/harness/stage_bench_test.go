package harness

import (
	"context"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/apps"
)

// spaCell is the DOM-heavy staged-pipeline workload: SPA-Feed under
// GreenWeb-I, microbenchmark trace, timed on the serial and the 4-stage
// pipeline below (host time; TestSPAGolden checks the modeled outputs).
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
