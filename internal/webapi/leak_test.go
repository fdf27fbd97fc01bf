//go:build go1.24

package webapi

import (
	"runtime"
	"testing"
	"weak"
)

// TestRemovedNodeIsCollected: a node a script creates, appends, removes and
// drops is garbage — the bindings keep no reference of their own to it.
func TestRemovedNodeIsCollected(t *testing.T) {
	b, _, doc := setup(t, `<body><div id="root"></div></body>`)
	run(t, b, `
		var root = document.getElementById("root");
		var el = document.createElement("div");
		el.id = "victim";
		root.appendChild(el);
	`)
	wp := weak.Make(doc.GetElementByID("victim"))
	run(t, b, `
		root.removeChild(el);
		el = null;
		// Overwrite the VM stack slots that held the wrapper.
		var pad = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
	`)
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("removed node still reachable after GC")
	}
	runtime.KeepAlive(b)
}
