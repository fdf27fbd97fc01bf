package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// expose runs write on a fresh exposition and returns what it wrote.
func expose(t *testing.T, write func(e *Exposition)) string {
	t.Helper()
	var buf bytes.Buffer
	e := NewExposition(&buf)
	write(e)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCounterAndGauge: unlabeled counters and gauges render one sample
// under their own family's HELP and TYPE lines, in the order they were
// written.
func TestCounterAndGauge(t *testing.T) {
	got := expose(t, func(e *Exposition) {
		e.Counter("jobs_done_total", "Jobs done.", 5)
		e.Gauge("queue_depth", "Queue depth.", 1.5)
	})
	want := `# HELP jobs_done_total Jobs done.
# TYPE jobs_done_total counter
jobs_done_total 5
# HELP queue_depth Queue depth.
# TYPE queue_depth gauge
queue_depth 1.5
`
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestGaugeVecExposition: a labeled gauge family renders one sample per
// node under the gauge TYPE line, in the order written (not sorted), even
// after an unlabeled family; each scrape writes the value read as it
// writes, so a changed value shows on the next scrape.
func TestGaugeVecExposition(t *testing.T) {
	busy := []float64{2, 7}
	scrape := func() string {
		return expose(t, func(e *Exposition) {
			e.Counter("jobs_done_total", "Jobs done.", 5)
			e.Family("node_busy", "Busy workers per node.", "gauge")
			e.Labeled("node", "1", busy[1])
			e.Labeled("node", "0", busy[0])
		})
	}
	want := `# HELP jobs_done_total Jobs done.
# TYPE jobs_done_total counter
jobs_done_total 5
# HELP node_busy Busy workers per node.
# TYPE node_busy gauge
node_busy{node="1"} 7
node_busy{node="0"} 2
`
	if got := scrape(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	busy[0] = 5
	if got := scrape(); !strings.Contains(got, `node_busy{node="0"} 5`+"\n") {
		t.Errorf("second scrape kept a stale value:\n%s", got)
	}
}

// TestCounterVecFuncChildren: a labeled counter family, read from per-node
// atomics as it is written (the way a cluster writes its per-node job
// counters), renders each node's own value under the counter TYPE line.
func TestCounterVecFuncChildren(t *testing.T) {
	jobs := make([]atomic.Int64, 3)
	for i := range jobs {
		jobs[i].Store(int64(3 * i))
	}
	jobs[0].Add(9)
	got := expose(t, func(e *Exposition) {
		e.Family("node_jobs_total", "Jobs per node.", "counter")
		for i := range jobs {
			e.Labeled("node", strconv.Itoa(i), float64(jobs[i].Load()))
		}
	})
	want := `# HELP node_jobs_total Jobs per node.
# TYPE node_jobs_total counter
node_jobs_total{node="0"} 9
node_jobs_total{node="1"} 3
node_jobs_total{node="2"} 6
`
	if got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestExpositionGolden pins the exposition format byte-for-byte: HELP/TYPE
// lines, help and label-value escaping, and cumulative histogram buckets
// including empty ones and +Inf.
func TestExpositionGolden(t *testing.T) {
	got := expose(t, func(e *Exposition) {
		e.Family("app_errors_total", "Errors by code.", "counter")
		e.Labeled("code", `4"04`, 2) // label value escaping: quote,
		e.Labeled("code", "500", 7)
		e.Labeled("code", `back\slash`, 1)  // backslash
		e.Labeled("code", "line\nbreak", 3) // and newline

		h := NewHistogram([]float64{0.1, 0.5, 1})
		h.Observe(0.0625) // binary-exact values keep _sum's rendering stable
		h.Observe(0.25)
		h.Observe(2) // overflow; the 1 bucket stays empty
		// Help-string escaping: literal newline and backslash must render as
		// \n and \\.
		e.Histogram("app_latency_seconds", "Latency.\nSecond line, C:\\tmp.", h)

		e.Counter("app_requests_total", "Total requests.", 12)
		e.Gauge("app_temp", "Temperature.", -3.5)
	})
	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exposition mismatch (run with -update to regenerate)\n got:\n%s\nwant:\n%s", got, want)
	}
}
