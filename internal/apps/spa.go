package apps

// The DOM-heavy SPA family (PR 9). These applications are NOT part of the
// paper's Table 3 catalog — All()/Names() and every default report iterate
// the Table 3 registry only, so adding family members here never perturbs
// existing byte-pinned outputs. They live in their own registry, reachable
// by name (ByName searches both) and through SPAApps, and exist to
// exercise the staged rendering pipeline: a component tree built by script
// (state-driven rerenders against the DOM API) whose per-frame cost is
// dominated by style/layout/paint over thousands of nodes rather than by
// script — exactly the shape where sharding render phases across stage
// cores shortens the critical path, and where the per-stage configuration
// vector finds ladder slack to spend.

import (
	"strings"

	"github.com/wattwiseweb/greenweb/internal/qos"
)

// spaRegistry holds the SPA family, assembled in init like the main catalog.
var spaRegistry []*App

func init() {
	spaRegistry = []*App{SPAFeed, SPABoard}
}

// SPAApps returns the SPA family in catalog order.
func SPAApps() []*App {
	out := make([]*App, len(spaRegistry))
	copy(out, spaRegistry)
	return out
}

// spaByName finds an SPA-family application (case-insensitive).
func spaByName(name string) (*App, bool) {
	for _, a := range spaRegistry {
		if strings.EqualFold(a.Name, name) {
			return a, true
		}
	}
	return nil, false
}

// spaComponentScript is the shared component-tree core: a card component
// (10 DOM nodes each), a mount that builds n of them under #feed, and a
// rerender that replaces a rotating window of components per frame — the
// virtual-DOM "diff produced a small patch" shape, driven by explicit state.
const spaComponentScript = `
	var state = { items: ITEMS, tick: 0 };
	var feed = document.getElementById("feed");
	var cards = [];
	function card(i) {
		var c = document.createElement("div");
		c.className = "card";
		var h = document.createElement("div");
		h.className = "hdr";
		h.appendChild(document.createTextNode("story " + i));
		c.appendChild(h);
		var b = document.createElement("p");
		b.appendChild(document.createTextNode("summary of story " + i));
		c.appendChild(b);
		var m = document.createElement("div");
		m.className = "meta";
		var s1 = document.createElement("span");
		s1.appendChild(document.createTextNode("like"));
		m.appendChild(s1);
		var s2 = document.createElement("span");
		s2.appendChild(document.createTextNode("share"));
		m.appendChild(s2);
		c.appendChild(m);
		return c;
	}
	function mount() {
		var i = 0;
		while (i < state.items) {
			var c = card(i);
			cards.push(c);
			feed.appendChild(c);
			i = i + 1;
		}
	}
	function rerender(window) {
		state.tick = state.tick + 1;
		var i = 0;
		while (i < window) {
			var idx = (state.tick * window + i) % cards.length;
			feed.removeChild(cards[idx]);
			var nc = card(idx);
			cards[idx] = nc;
			feed.appendChild(nc);
			i = i + 1;
		}
	}
	mount();
`

func spaScript(items, window, frames, workPerFrame int) string {
	s := strings.Replace(spaComponentScript, "ITEMS", itoa(items), 1)
	return s + `
	document.getElementById("refresh").addEventListener("click", function(e) {
		var f = 0;
		function step() {
			f = f + 1;
			rerender(` + itoa(window) + `);
			work(` + itoa(workPerFrame) + `);
			if (f < ` + itoa(frames) + `) { requestAnimationFrame(step); }
		}
		requestAnimationFrame(step);
	});
	document.getElementById("badge").addEventListener("click", function(e) {
		work(20);
		e.target.textContent = "seen";
	});
`
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// SPAFeed: an infinite-feed single-page app. 220 card components ≈ 2.2 k DOM
// nodes; a tap on refresh drives 40 state-driven rerender frames. Script per
// frame is tiny — the frame cost is style/layout/paint over the whole tree,
// so the serial pipeline cannot hold 60 FPS at any configuration while the
// staged pipeline can, with slack left for the per-stage vector.
var SPAFeed = register(&App{
	Name:        "SPA-Feed",
	Domain:      "social feed",
	Interaction: Tapping,
	QoSType:     qos.Continuous,
	QoSTarget:   qos.ContinuousTarget,
	BaseHTML: page("SPA-Feed", `
			.card { width: 300px; }
			.hdr { font-weight: bold; }
		`,
		`<div id="refresh">refresh</div>
		<div id="badge">3 new</div>
		<div id="feed"></div>`,
		spaScript(220, 12, 40, 8)),
	AnnotationCSS: `
		body:QoS { onload-qos: single, long; }
		div#refresh:QoS {
			ontouchstart-qos: continuous;
			ontouchend-qos: continuous;
			onclick-qos: continuous;
		}
	`,
	Micro: microTap("spafeed-micro", "refresh"),
	Full:  evenTaps("spafeed-full", []string{"refresh", "refresh", "badge"}, 9, 42),
})

// SPABoard: a kanban-style board — the smaller family member (130 components
// ≈ 1.3 k nodes, heavier per-frame script). Still layout-dominated, but with
// enough script that the staged speedup is smaller: the family spans the
// ratio of render-to-script cost rather than one point.
var SPABoard = register(&App{
	Name:        "SPA-Board",
	Domain:      "project board",
	Interaction: Tapping,
	QoSType:     qos.Continuous,
	QoSTarget:   qos.ContinuousTarget,
	BaseHTML: page("SPA-Board", `
			.card { width: 240px; }
			.meta { color: gray; }
		`,
		`<div id="refresh">sync</div>
		<div id="badge">inbox</div>
		<div id="feed"></div>`,
		spaScript(130, 8, 30, 60)),
	AnnotationCSS: `
		body:QoS { onload-qos: single, long; }
		div#refresh:QoS {
			ontouchstart-qos: continuous;
			ontouchend-qos: continuous;
			onclick-qos: continuous;
		}
	`,
	Micro: microTap("spaboard-micro", "refresh"),
	Full:  evenTaps("spaboard-full", []string{"refresh", "badge"}, 8, 38),
})
