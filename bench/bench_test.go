package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the spa workload's child process,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(spaChildEnv) != "" {
		if err := spaChild(); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // unsorted on purpose
	}
	return out
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		n    int
		want float64 // 0 = refused
	}{
		{50, 19, 0},
		{50, 20, 10},
		{90, 99, 0},
		{90, 100, 90},
		{99, 999, 0},
		{99, 1000, 990},
		{99.9, 9999, 0},
		{99.9, 10000, 9990},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want refusal (%d beyond)", tc.p, tc.n, got, tc.n-int(math.Ceil(tc.p/100*float64(tc.n))))
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", tc.p, tc.n, got, err, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(11), [3]float64{3, 6, 9}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(tc.v); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		b     []float64
		lower bool
		want  string
	}{
		{[]float64{100, 100, 101, 99, 100}, true, "same"},
		{[]float64{120, 121, 119, 120, 120}, true, "worse"},
		{[]float64{120, 121, 119, 120, 120}, false, "better"},
		{[]float64{90, 91, 89, 90, 90}, true, "better"},
		{[]float64{50, 150, 100, 60, 140}, true, "unresolved"},
		{[]float64{200, 300, 250, 210, 290}, true, "worse"},
	} {
		if got := verdict(steady, tc.b, tc.lower, 0.1); got != tc.want {
			t.Errorf("verdict(%v, lower=%t) = %s, want %s", tc.b, tc.lower, got, tc.want)
		}
	}
}

// TestParseChain picks the job whose dispatch ends last and sums its spans.
func TestParseChain(t *testing.T) {
	doc := `{"traceEvents":[
	 {"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0},
	 {"name":"admission","ph":"X","ts":0,"dur":40,"tid":0},
	 {"name":"queue-wait","ph":"X","ts":50,"dur":10,"tid":1},
	 {"name":"dispatch","ph":"X","ts":60,"dur":900,"tid":1},
	 {"name":"execute","ph":"X","ts":70,"dur":800,"tid":1},
	 {"name":"queue-wait","ph":"X","ts":50,"dur":700,"tid":2},
	 {"name":"dispatch","ph":"X","ts":750,"dur":500,"tid":2},
	 {"name":"execute","ph":"X","ts":760,"dur":300,"tid":2},
	 {"name":"execute","ph":"X","ts":1070,"dur":100,"tid":2},
	 {"name":"steal","ph":"i","ts":740,"tid":2}]}`
	c, err := parseChain(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := chain{admission: 40 * time.Microsecond, queue: 700 * time.Microsecond,
		dispatch: 500 * time.Microsecond, execute: 400 * time.Microsecond}
	if c != want {
		t.Errorf("parseChain = %+v, want %+v", c, want)
	}
	if _, err := parseChain(strings.NewReader(`{"traceEvents":[]}`)); err == nil {
		t.Error("parseChain accepted a trace without spans")
	}
}

func TestNormalizeTrace(t *testing.T) {
	got := normalizeTrace([]string{"--workload", "spa", "--trace", "1", "-seed", "3", "-trace"})
	want := []string{"--workload", "spa", "-trace=1", "-seed", "3", "-trace"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("normalizeTrace = %q, want %q", got, want)
	}
}

func TestSpeedProbe(t *testing.T) {
	p := startSpeedProbe()
	time.Sleep(5 * probeEvery)
	ms, n := p.end()
	if n < 2 || !(ms > 0) || ms > 1000 {
		t.Errorf("speed probe: median %g ms over %d passes", ms, n)
	}
	if ms2, n2 := p.end(); ms2 != ms || n2 != n {
		t.Errorf("second end() = %g, %d; want %g, %d", ms2, n2, ms, n)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	root := repoRoot(t)
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the benchmark prints %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end_to_end[%d] = %s %s, benchmark prints %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %s %s, benchmark prints %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func smokeConfig(t *testing.T, name string, traced bool) *config {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg, err := newConfig(repoRoot(t), w, 7, 1, traced)
	if err != nil {
		t.Fatal(err)
	}
	cfg.setups = 2
	cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
	return cfg
}

// TestSmoke runs every workload with one-second windows, end to end and
// traced, and checks that every metric BENCHMARK.json names comes out
// finite with no failed op.
func TestSmoke(t *testing.T) {
	defer killAll()
	bf, err := loadBenchmarkFile(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			names := []string{}
			if traced {
				for _, m := range bf.PerLayer {
					names = append(names, m.Name)
				}
			} else {
				for _, m := range bf.EndToEnd {
					names = append(names, m.Name)
				}
			}
			res, _, err := runWorkload(smokeConfig(t, w.name, traced))
			if err != nil {
				t.Errorf("%s trace=%t: %v", w.name, traced, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for _, n := range names {
				m, ok := res.Metrics[n]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%t: metric %s = %v (present %t)", w.name, traced, n, m.Value, ok)
				}
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(names))
			}
		}
	}
}

// TestCorruptReferenceFails flips one byte of the pinned report: every
// report op must then count as failed. It runs traced, which needs no
// minimum op count for a median.
func TestCorruptReferenceFails(t *testing.T) {
	defer killAll()
	cfg := smokeConfig(t, "report", true)
	ref, err := os.ReadFile(cfg.reportRef)
	if err != nil {
		t.Fatal(err)
	}
	ref[len(ref)/2] ^= 1
	cfg.reportRef = filepath.Join(t.TempDir(), "report.txt")
	if err := os.WriteFile(cfg.reportRef, ref, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.setups, cfg.window = 1, time.Millisecond
	res, _, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted < 2 {
		t.Errorf("corrupt reference: correct=%t, %d of %d failed; want every op failed", res.Correct, res.Failed, res.Attempted)
	}
}
