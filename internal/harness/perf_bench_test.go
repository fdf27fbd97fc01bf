package harness

import (
	"context"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/apps"
	"github.com/wattwiseweb/greenweb/internal/browser"
	"github.com/wattwiseweb/greenweb/internal/qos"
	"github.com/wattwiseweb/greenweb/internal/replay"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// benchCell is the heaviest full-suite cell: the largest catalog app (BBC)
// under the GreenWeb-U runtime, full-interaction trace — the unit the fleet
// executes 12 apps × 4+ governors times per report.
func benchCell(tb testing.TB) Cell {
	tb.Helper()
	app, ok := apps.ByName("BBC")
	if !ok {
		tb.Fatal("BBC not in catalog")
	}
	return Cell{App: app, Kind: GreenWebU, Full: true}
}

// BenchmarkExecuteCellWarmFull measures a full-suite cell execution in the
// steady state of a sweep: page assets already parsed once by an earlier
// cell (the warm path every cell but the first takes). BENCH_PR4.json
// tracks this number.
func BenchmarkExecuteCellWarmFull(b *testing.B) {
	cell := benchCell(b)
	// Warm every layer the way a running sweep would.
	if _, err := ExecuteCell(context.Background(), cell); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteCell(context.Background(), cell); err != nil {
			b.Fatal(err)
		}
	}
}

// scriptHeavyApp models a page whose tap handler is real JavaScript — a
// hashing kernel in plain loops — rather than the catalog's work() native
// stand-in (which charges ops without interpreting anything). This is the
// workload the bytecode VM targets: interpreter time dominates the cell, so
// the benchmark below measures engine speed rather than DOM clone or
// cascade overhead.
var scriptHeavyApp = func() *apps.App {
	const script = `
		var kernel = (function () {
			var table = [];
			for (var i = 0; i < 64; i++) { table[i] = (i * 2654435761) % 97; }
			function mix(h, v) { return (h * 31 + v) % 1000003; }
			return function (rounds) {
				var h = 17;
				for (var r = 0; r < rounds; r++) {
					for (var i = 0; i < 64; i++) { h = (h * 31 + table[i]) % 1000003; }
					h = mix(h, r);
				}
				return h;
			};
		})();
		var digest = kernel(200);
		var taps = 0;
		document.getElementById("go").addEventListener("click", function (e) {
			taps++;
			digest = kernel(700);
			document.getElementById("out").textContent = "digest " + digest + " after " + taps;
		});
	`
	const html = `<html><head><style></style></head><body>
<h1>ScriptHeavy</h1>
<div id="go">hash</div>
<div id="out">idle</div>
<script>
` + script + `
</script></body></html>`
	trace := &replay.Trace{Name: "script-heavy-taps"}
	at := sim.Second
	for i := 0; i < 10; i++ {
		trace.Append(replay.Tap(at, "go")...)
		at += 2 * sim.Second
	}
	return &apps.App{
		Name:        "ScriptHeavy",
		Domain:      "benchmark",
		Interaction: apps.Tapping,
		QoSType:     qos.Single,
		QoSTarget:   qos.SingleLongTarget,
		BaseHTML:    html,
		AnnotationCSS: `
			body:QoS { onload-qos: single, long; }
			div#go:QoS { onclick-qos: single, long; }
		`,
		Micro: trace,
		Full:  trace,
	}
}()

// BenchmarkExecuteCellWarmScriptVM runs the script-dominated cell warm on
// the bytecode VM.
func BenchmarkExecuteCellWarmScriptVM(b *testing.B) {
	cell := Cell{App: scriptHeavyApp, Kind: GreenWebU, Full: true}
	if _, err := ExecuteCell(context.Background(), cell); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteCell(context.Background(), cell); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteCellColdFull measures the same cell with the asset cache
// emptied before every execution — the first-cell-of-a-sweep path, and a
// regression pin for the raw parser speed the cache sits in front of.
func BenchmarkExecuteCellColdFull(b *testing.B) {
	cell := benchCell(b)
	if _, err := ExecuteCell(context.Background(), cell); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		browser.ResetAssetCache()
		if _, err := ExecuteCell(context.Background(), cell); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	browser.ResetAssetCache()
}
