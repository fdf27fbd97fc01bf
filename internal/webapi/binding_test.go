package webapi

import (
	"strings"
	"testing"

	"github.com/wattwiseweb/greenweb/internal/html"
	"github.com/wattwiseweb/greenweb/internal/js"
)

// Binding-model tests: one method value per Bindings, wrappers cached on
// their nodes, methods resolving the node from this.

func global(t *testing.T, b *Bindings, name string) js.Value {
	t.Helper()
	v, ok := b.In.Globals.Lookup(name)
	if !ok {
		t.Fatalf("global %s not defined", name)
	}
	return v
}

func TestMethodValuesAreShared(t *testing.T) {
	b, _, _ := setup(t, `<body></body>`)
	run(t, b, `
		var a = document.createElement("div");
		var c = document.createElement("span");
		var sameRead = a.appendChild === a.appendChild;
		var shared = a.appendChild === c.appendChild && a.setAttribute === c.setAttribute;
		var docSame = document.createElement === document.createElement &&
			document.getElementById === window.document.getElementById;
	`)
	for _, name := range []string{"sameRead", "shared", "docSame"} {
		if !global(t, b, name).Truthy() {
			t.Errorf("%s = false, want true", name)
		}
	}
}

// TestDetachedMethodCallErrors: an element method called without an
// element receiver is an illegal invocation, never a panic, and the DOM is
// left untouched.
func TestDetachedMethodCallErrors(t *testing.T) {
	cases := map[string]string{
		"bare call":      `var f = el.appendChild; f(document.createElement("p"));`,
		"plain receiver": `var o = {f: el.appendChild}; o.f(document.createElement("p"));`,
		"setAttribute":   `var o = {f: el.setAttribute}; o.f("k", "v");`,
	}
	for name, src := range cases {
		b, _, doc := setup(t, `<body><div id="x"></div></body>`)
		run(t, b, `var el = document.getElementById("x");`)
		err := b.In.RunSource(src)
		if err == nil || !strings.Contains(err.Error(), "illegal invocation") {
			t.Errorf("%s: err = %v, want illegal invocation", name, err)
		}
		if x := doc.GetElementByID("x"); len(x.Children) != 0 || len(x.AttrNames()) != 1 {
			t.Errorf("%s: detached call mutated the element", name)
		}
	}
}

func TestWrapperIdentitySurvivesReparenting(t *testing.T) {
	b, _, doc := setup(t, `<body><ul id="list"></ul><ul id="other"></ul></body>`)
	run(t, b, `
		var list = document.getElementById("list");
		var li = document.createElement("li");
		list.appendChild(li);
		list.removeChild(li);
		document.getElementById("other").appendChild(li);
		var same = document.getElementById("other").children[0] === li;
	`)
	if !global(t, b, "same").Truthy() {
		t.Fatal("wrapper identity lost across removeChild/appendChild")
	}
	li := doc.GetElementByID("other").Children[0]
	if !b.ElemValue(li).StrictEquals(global(t, b, "li")) {
		t.Fatal("Go-side ElemValue disagrees with the script's wrapper")
	}
}

func TestTwoBindingsOneDocument(t *testing.T) {
	doc := html.Parse(`<body><div id="x"></div></body>`)
	b1 := Install(js.NewInterp(), doc, &fakeServices{})
	b2 := Install(js.NewInterp(), doc, &fakeServices{})
	n := doc.GetElementByID("x")

	v1, v2 := b1.ElemValue(n), b2.ElemValue(n)
	if v1.StrictEquals(v2) {
		t.Fatal("two bindings share one wrapper")
	}
	if b1.NodeOf(v1) != n || b2.NodeOf(v2) != n {
		t.Fatal("wrappers lost their node")
	}
	if !b2.ElemValue(n).StrictEquals(v2) {
		t.Fatal("latest bindings lost wrapper identity")
	}
	if v1.Object().Get("appendChild").StrictEquals(v2.Object().Get("appendChild")) {
		t.Fatal("two bindings share one method value")
	}
}

func TestBindingReadsDoNotAllocate(t *testing.T) {
	b, _, doc := setup(t, `<body><div id="x"></div></body>`)
	n := doc.GetElementByID("x")
	el := b.ElemValue(n).Object()
	if a := testing.AllocsPerRun(100, func() { _ = el.Get("appendChild") }); a != 0 {
		t.Errorf("reading el.appendChild: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { _ = b.ElemValue(n) }); a != 0 {
		t.Errorf("ElemValue on a wrapped node: %v allocs, want 0", a)
	}
}
