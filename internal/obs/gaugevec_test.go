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
	depth := reg.GaugeVec("test_partition_depth", "jobs queued per partition", "partition")
	depth.With("0").Set(3)
	depth.With("1").Set(7)

	live := 2.0
	nodes := reg.GaugeVec("test_node_busy", "busy workers per node", "node")
	nodes.Func(func() float64 { return live }, "a")

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE test_partition_depth gauge",
		`test_partition_depth{partition="0"} 3`,
		`test_partition_depth{partition="1"} 7`,
		`test_node_busy{node="a"} 2`,
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
	var steals float64
	cv := reg.CounterVec("test_steals_total", "steals per node", "node")
	cv.Func(func() float64 { return steals }, "0")
	cv.With("1").Add(4)

	steals = 9
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `test_steals_total{node="0"} 9`) {
		t.Fatalf("func-backed counter wrong:\n%s", out)
	}
	if !strings.Contains(out, `test_steals_total{node="1"} 4`) {
		t.Fatalf("value-backed sibling wrong:\n%s", out)
	}
}
