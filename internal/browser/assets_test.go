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

func TestAssetCacheHitFlag(t *testing.T) {
	ResetAssetCache()
	_, e1, _ := newTestEngine(t, basicPage)
	if e1.LoadStats().AssetCacheHit {
		t.Fatal("first load reported a cache hit")
	}
	_, e2, _ := newTestEngine(t, basicPage)
	if !e2.LoadStats().AssetCacheHit {
		t.Fatal("second load missed the cache")
	}

	ResetAssetCache()
	_, e3, _ := newTestEngine(t, basicPage)
	if e3.LoadStats().AssetCacheHit {
		t.Fatal("load after reset reported a cache hit")
	}
}

func TestDroppedCSSRulesCounted(t *testing.T) {
	ResetAssetCache()
	page := `<html><head><style>
		#box { width: 100px; }
		%%% not a rule at all
		p { color: blue; }
	</style></head><body><div id="box">x</div></body></html>`

	for _, load := range []string{"cold", "warm"} {
		_, e, _ := newTestEngine(t, page)
		if got := e.LoadStats().DroppedCSSRules; got != 1 {
			t.Errorf("%s load: DroppedCSSRules = %d, want 1", load, got)
		}
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
