package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestGaugeVecExposition: labeled gauges render one sample per child with
// the gauge TYPE line, and func-backed children are read at scrape time.
func TestGaugeVecExposition(t *testing.T) {
	reg := NewRegistry()
	live := 2.0
	nodes := reg.GaugeVec("test_node_busy", "busy workers per node", "node")
	nodes.Func(func() float64 { return live }, "a")
	nodes.Func(func() float64 { return 7 }, "b")

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_node_busy gauge",
		`test_node_busy{node="a"} 2`,
		`test_node_busy{node="b"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Func children must re-read their source on every scrape, not cache.
	live = 5
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `test_node_busy{node="a"} 5`) {
		t.Fatalf("func-backed gauge cached a stale value:\n%s", buf.String())
	}
}

// TestCounterVecFuncChildren: counters support the same func-backed children
// (used for per-node job counters sourced from atomics).
func TestCounterVecFuncChildren(t *testing.T) {
	reg := NewRegistry()
	var jobs float64
	cv := reg.CounterVec("test_jobs_total", "jobs per node", "node")
	cv.Func(func() float64 { return jobs }, "0")
	cv.Func(func() float64 { return 4 }, "1")

	jobs = 9
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_jobs_total counter",
		`test_jobs_total{node="0"} 9`,
		`test_jobs_total{node="1"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
