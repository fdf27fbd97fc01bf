package webapi

import (
	"strings"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/dom"
)

// Event-object tests: one host object per wrap, answering from the DOM
// event, with methods shared across events that find their event from this.

// TestEventCurrentTargetCapturedAtWrap: an event object keeps the
// currentTarget of the listener it was built for, even when a script reads
// it after dispatch has bubbled on.
func TestEventCurrentTargetCapturedAtWrap(t *testing.T) {
	b, _, doc := setup(t, `<body><div id="outer"><div id="inner"></div></div></body>`)
	run(t, b, `
		var saved = null;
		var seen = "";
		document.getElementById("inner").addEventListener("click", function(e) { saved = e; });
		document.getElementById("outer").addEventListener("click", function(e) {
			seen = saved.currentTarget.id + "/" + e.currentTarget.id + "/" + saved.target.id;
		});
	`)
	dom.Dispatch(doc.GetElementByID("inner"), "click", nil)
	if got := global(t, b, "seen").Text(); got != "inner/outer/inner" {
		t.Fatalf("saved.currentTarget/e.currentTarget/saved.target = %q, want inner/outer/inner", got)
	}
}

// TestEventMethodsFindTheirEvent: preventDefault and stopPropagation are one
// value per Bindings; called on their event they act on it, detached they
// are an illegal invocation that leaves the event untouched.
func TestEventMethodsFindTheirEvent(t *testing.T) {
	b, _, doc := setup(t, `<body><div id="outer"><div id="inner"></div></div></body>`)
	run(t, b, `
		var outerRan = false, shared = false;
		var saved = null;
		document.getElementById("inner").addEventListener("click", function(e) {
			if (saved !== null) {
				shared = saved.preventDefault === e.preventDefault && saved.stopPropagation === e.stopPropagation;
			}
			saved = e;
			e.preventDefault();
			e.stopPropagation();
		});
		document.getElementById("outer").addEventListener("click", function(e) { outerRan = true; });
	`)
	inner := doc.GetElementByID("inner")
	dom.Dispatch(inner, "click", nil)
	dom.Dispatch(inner, "click", nil)
	if global(t, b, "outerRan").Truthy() {
		t.Error("stopPropagation did not stop bubbling")
	}
	if !global(t, b, "shared").Truthy() {
		t.Error("event methods differ between events")
	}

	ev := &dom.Event{Name: "click", Target: inner, CurrentTarget: inner}
	b.In.Globals.Define("ev", b.WrapEvent(ev))
	for name, src := range map[string]string{
		"bare call":        `var f = ev.preventDefault; f();`,
		"plain receiver":   `var o = {f: ev.preventDefault}; o.f();`,
		"element receiver": `var o = document.getElementById("inner"); o.f = ev.stopPropagation; o.f();`,
	} {
		if err := b.In.RunSource(src); err == nil || !strings.Contains(err.Error(), "illegal invocation") {
			t.Errorf("%s: err = %v, want illegal invocation", name, err)
		}
	}
	if ev.DefaultPrevented() {
		t.Fatal("a detached call prevented the event's default")
	}
	run(t, b, `ev.preventDefault();`)
	if !ev.DefaultPrevented() {
		t.Fatal("preventDefault on its event did not prevent the default")
	}
}

// TestEventKeysFixedOrder: an event's properties enumerate in one order on
// every run, Data keys sorted, whatever order the Go map yields them in.
func TestEventKeysFixedOrder(t *testing.T) {
	b, _, doc := setup(t, `<body><div id="s"></div></body>`)
	run(t, b, `
		var keys = "";
		document.getElementById("s").addEventListener("scroll", function(e) {
			var ks = [];
			for (var k in e) { ks.push(k); }
			keys = ks.join(",") + "|" + Object.keys(e).length + "|" + e.deltaX + "," + e.deltaY;
		});
	`)
	const want = "type,target,currentTarget,deltaX,deltaY,preventDefault,stopPropagation|7|-3,120"
	for range 20 {
		dom.Dispatch(doc.GetElementByID("s"), "scroll", map[string]float64{"deltaY": 120, "deltaX": -3})
		if got := global(t, b, "keys").Text(); got != want {
			t.Fatalf("keys = %q, want %q", got, want)
		}
	}
}

// TestWrapEventAllocatesOnce: wrapping an event whose target is already
// wrapped is a single allocation, and reading its properties none.
func TestWrapEventAllocatesOnce(t *testing.T) {
	b, _, doc := setup(t, `<body><div id="s"></div></body>`)
	n := doc.GetElementByID("s")
	b.ElemValue(n)
	ev := &dom.Event{Name: "scroll", Target: n, CurrentTarget: n, Data: map[string]float64{"deltaY": 5}}
	if a := testing.AllocsPerRun(100, func() { _ = b.WrapEvent(ev) }); a != 1 {
		t.Errorf("WrapEvent: %v allocs, want 1", a)
	}
	o := b.WrapEvent(ev).Object()
	read := func() {
		_ = o.Get("type")
		_ = o.Get("target")
		_ = o.Get("currentTarget")
		_ = o.Get("deltaY")
		_ = o.Get("preventDefault")
	}
	if a := testing.AllocsPerRun(100, read); a != 0 {
		t.Errorf("reading event properties: %v allocs, want 0", a)
	}
}
