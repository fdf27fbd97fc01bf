package browser

import (
	"fmt"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/sim"
)

// runScenario loads a page, fires a click, and summarizes everything the
// harness derives results from: frame timings, attributed inputs, script
// errors, and final DOM state.
func runScenario(t *testing.T, page string) string {
	t.Helper()
	s, e, g := newTestEngine(t, page)
	s.Run()
	e.Inject(s.Now().Add(100*sim.Millisecond), "click", "box", nil)
	s.Run()

	out := ""
	for _, fr := range e.Results() {
		out += fmt.Sprintf("frame seq=%d begin=%v end=%v work=%d inputs=%d\n",
			fr.Seq, fr.Begin, fr.End, fr.MainWork, len(fr.Inputs))
		for _, in := range fr.Inputs {
			out += fmt.Sprintf("  input ev=%s latency=%v\n", in.Input.Event, in.Latency)
		}
	}
	out += fmt.Sprintf("completed=%d scriptErrs=%d width=%s\n",
		len(g.completed), len(e.ScriptErrors()), e.Doc().GetElementByID("box").Style("width"))
	return out
}

// TestAssetCacheEquivalence runs the same scenario cold (after
// ResetAssetCache) and warm (cache hit), and requires identical observable
// results — the cache must never change a single reported number.
func TestAssetCacheEquivalence(t *testing.T) {
	ResetAssetCache()
	cold := runScenario(t, basicPage)
	warm := runScenario(t, basicPage)
	if cold != warm {
		t.Errorf("cold vs warm mismatch:\n%s\n---\n%s", cold, warm)
	}
}

// TestAssetCacheHitFlag: a second assetsFor call on one source hits the
// cache, returning the first call's assets, and a call after
// ResetAssetCache parses afresh.
func TestAssetCacheHitFlag(t *testing.T) {
	ResetAssetCache()
	first := assetsFor(basicPage)
	if assetsFor(basicPage) != first {
		t.Fatal("second call missed the cache")
	}
	ResetAssetCache()
	if assetsFor(basicPage) == first {
		t.Fatal("call after reset hit the cache")
	}
}

// TestCachedEngineIsolated guards the clone boundary: DOM mutations in one
// engine must never leak into another engine running the same cached page.
func TestCachedEngineIsolated(t *testing.T) {
	ResetAssetCache()
	s1, e1, _ := newTestEngine(t, basicPage)
	s1.Run()
	e1.Inject(s1.Now().Add(100*sim.Millisecond), "click", "box", nil)
	s1.Run()
	if w := e1.Doc().GetElementByID("box").Style("width"); w != "110px" {
		t.Fatalf("engine 1 width = %q", w)
	}

	s2, e2, _ := newTestEngine(t, basicPage)
	s2.Run()
	if w := e2.Doc().GetElementByID("box").Style("width"); w != "" {
		t.Fatalf("engine 2 inherited mutated state: width = %q", w)
	}
}
