package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry exercises every exposition shape: unlabeled func counter
// and gauge, labeled func children needing escaping and ordering, and an
// attached histogram with an empty interior bucket and an overflow.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.CounterFunc("app_requests_total", "Total requests.", func() float64 { return 12 })
	r.GaugeFunc("app_temp", "Temperature.", func() float64 { return -3.5 })

	// Children bound out of order render sorted by label values.
	v := r.CounterVec("app_errors_total", "Errors by code.", "code")
	v.Func(func() float64 { return 1 }, `back\slash`) // label value escaping: backslash
	v.Func(func() float64 { return 7 }, "500")
	v.Func(func() float64 { return 2 }, `4"04`) // and quote
	v.Func(func() float64 { return 3 }, "line\nbreak")

	gv := r.GaugeVec("app_queue_depth", "Queue depth by node and state.", "node", "state")
	gv.Func(func() float64 { return 5 }, "1", "running")
	gv.Func(func() float64 { return 3 }, "0", "waiting")
	gv.Func(func() float64 { return 0.5 }, "0", "running")

	// Help-string escaping: literal newline and backslash must render as
	// \n and \\.
	h := NewHistogram([]float64{0.1, 0.5, 1})
	r.AttachHistogram("app_latency_seconds", "Latency.\nSecond line, C:\\tmp.", h)
	h.Observe(0.0625) // binary-exact values keep _sum's rendering stable
	h.Observe(0.25)
	h.Observe(2) // overflow; the 1 bucket stays empty
	return r
}

// TestWritePrometheusGolden pins the exposition format byte-for-byte:
// family name ordering, label-value ordering, HELP/TYPE lines, escaping,
// cumulative histogram buckets including empty ones and +Inf.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition mismatch (run with -update to regenerate)\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestWritePrometheusDeterministic: two renders of the same registry are
// byte-identical (map iteration order must not leak into the output).
func TestWritePrometheusDeterministic(t *testing.T) {
	r := goldenRegistry()
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of one registry differ")
	}
}
