package obs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// TestCounterAndGauge: an unlabeled counter or gauge renders its func's
// value as of each scrape, under its own TYPE line.
func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	var done, depth float64
	r.CounterFunc("jobs_done_total", "", func() float64 { return done })
	r.GaugeFunc("queue_depth", "", func() float64 { return depth })
	scrape := func() string {
		t.Helper()
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	done, depth = 5, 1.5
	if out := scrape(); !strings.Contains(out, "# TYPE jobs_done_total counter\njobs_done_total 5\n") ||
		!strings.Contains(out, "# TYPE queue_depth gauge\nqueue_depth 1.5\n") {
		t.Errorf("exposition:\n%s", out)
	}
	done, depth = 6, 0
	if out := scrape(); !strings.Contains(out, "jobs_done_total 6\n") || !strings.Contains(out, "queue_depth 0\n") {
		t.Errorf("funcs not re-read on the second scrape:\n%s", out)
	}
}

// TestCounterConcurrent: owners bind counter children and rebind funcs
// while a scraper renders, as a cluster registering its nodes does under a
// live /metrics; run under -race. Every child bound shows up once.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("jobs_total", "", "node")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v.Func(func() float64 { return float64(i) }, fmt.Sprintf("%d-%d", g, i))
				r.CounterFunc("evictions_total", "", func() float64 { return float64(g) })
			}
		}(g)
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "jobs_total{"); got != 800 {
		t.Errorf("%d samples, want 800", got)
	}
}

func TestRegistryIdempotentGetters(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("x_total", "help", "node")
	b := r.CounterVec("x_total", "help", "node")
	if a.f != b.f {
		t.Error("same name returned distinct counter families")
	}
	g1 := r.GaugeVec("g", "", "node")
	g2 := r.GaugeVec("g", "", "node")
	if g1.f != g2.f {
		t.Error("same name returned distinct gauge families")
	}
	h1, h2 := NewHistogram([]float64{1, 2}), NewHistogram([]float64{5})
	r.AttachHistogram("h", "", h1)
	r.AttachHistogram("h", "", h2) // re-attaching replaces the source
	if _, hist, _ := r.fams["h"].sources(); hist != h2 {
		t.Error("re-attached histogram not in effect")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("x_total", "", func() float64 { return 0 })
	mustPanic(t, "counter re-registered as gauge", func() { r.GaugeFunc("x_total", "", func() float64 { return 0 }) })
	mustPanic(t, "counter re-registered as histogram", func() { r.AttachHistogram("x_total", "", NewLatencyHistogram()) })
	r.CounterVec("v_total", "", "kind")
	mustPanic(t, "label-set change", func() { r.CounterVec("v_total", "", "kind", "extra") })
	mustPanic(t, "labeled re-registered unlabeled", func() { r.CounterFunc("v_total", "", func() float64 { return 0 }) })
	mustPanic(t, "labeled counter re-registered as gauge", func() { r.GaugeVec("v_total", "", "kind") })
	mustPanic(t, "CounterVec with no labels", func() { r.CounterVec("nolabels", "") })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

// TestVecFuncRebindAndArity: binding a child's label values again replaces
// its func (one sample, the last source), and a label-value count that
// disagrees with the family's labels panics.
func TestVecFuncRebindAndArity(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("errs_total", "", "code")
	v.Func(func() float64 { return 1 }, "500")
	v.Func(func() float64 { return 2 }, "500")
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Count(out, "errs_total{") != 1 || !strings.Contains(out, `errs_total{code="500"} 2`) {
		t.Errorf("rebound child should render once with the last func:\n%s", out)
	}
	mustPanic(t, "wrong arity", func() { v.Func(func() float64 { return 0 }, "a", "b") })
}

func TestFuncBackedLastWins(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("depth", "", func() float64 { return 1 })
	r.GaugeFunc("depth", "", func() float64 { return 2 }) // rebind replaces
	fams := r.sortedFamilies()
	if len(fams) != 1 || fams[0].fn() != 2 {
		t.Fatalf("rebound func not in effect: %+v", fams)
	}
}

// TestFuncChildrenPastSixtyFour: a family holds one child per label-value
// set its owner binds, however many nodes the owner has. A cluster of 70
// nodes exports 70 samples per per-node family, each with its own value.
func TestFuncChildrenPastSixtyFour(t *testing.T) {
	const nodes = 70
	r := NewRegistry()
	v := r.GaugeVec("node_up", "", "node")
	for i := 0; i < nodes; i++ {
		v.Func(func() float64 { return float64(i) }, fmt.Sprint(i))
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "node_up{"); got != nodes {
		t.Errorf("%d samples, want %d:\n%s", got, nodes, out)
	}
	for i := 0; i < nodes; i++ {
		if want := fmt.Sprintf("node_up{node=\"%d\"} %d\n", i, i); !strings.Contains(out, want) {
			t.Errorf("missing sample %q", want)
		}
	}
}
