// Package webapi wires the JavaScript interpreter to the DOM and to browser
// services: document access, element wrappers with style proxies, event
// listener registration, requestAnimationFrame, timers, and a synthetic
// compute kernel for modelling heavyweight callbacks.
//
// The binding layer is what lets application scripts behave like real Web
// code — registering rAF callbacks (the paper's Fig. 5 pattern), flipping
// style properties to trigger CSS transitions (Fig. 4), and performing
// program-dependent amounts of work that the browser's cost model meters.
package webapi

import (
	"fmt"
	"slices"
	"strings"

	"github.com/wattwiseweb/greenweb/internal/css"
	"github.com/wattwiseweb/greenweb/internal/dom"
	"github.com/wattwiseweb/greenweb/internal/js"
	"github.com/wattwiseweb/greenweb/internal/sim"
)

// Services is what the browser provides to scripts. The browser package
// implements it; AUTOGREEN wraps it to observe rAF and animation use.
type Services interface {
	// Now reports current virtual time (performance.now, in ms).
	Now() sim.Time
	// RequestAnimationFrame schedules cb to run before the next frame
	// paints, returning a request id.
	RequestAnimationFrame(cb js.Value) int
	// SetTimeout schedules cb after delay.
	SetTimeout(cb js.Value, delay sim.Duration) int
	// ConsoleLog delivers console output.
	ConsoleLog(msg string)
}

// WorkOpsPerUnit is how many interpreter operations one work(1) unit
// charges. Synthetic kernels use work(n) to model computation (image
// filtering, compression) whose cost would otherwise require megabytes of
// script.
const WorkOpsPerUnit = 1000

// Bindings owns the interpreter↔DOM glue for one page.
//
// Each node's script wrapper lives on the node itself (dom.Node.Wrapper),
// so it is collected with the node. Every DOM method is one function value per
// Bindings, built in Install and returned on each read, so
// el.appendChild === other.appendChild as in a browser. Element methods
// find their node from this, the way WebIDL operations do; a detached call
// (var f = el.appendChild; f(x)) is an illegal-invocation error.
type Bindings struct {
	In  *js.Interp
	Doc *dom.Document
	Svc Services

	m methods
}

// methods holds the document and element method values of one Bindings.
type methods struct {
	getElementByID, getElementsByTagName, getElementsByClassName,
	querySelector, querySelectorAll, createElement, createTextNode js.Value

	addEventListener, setAttribute, getAttribute, appendChild, removeChild js.Value

	preventDefault, stopPropagation js.Value
}

// Install creates bindings and defines the globals scripts expect:
// document, window, performance, requestAnimationFrame, setTimeout,
// console (via the interpreter stdlib), and work().
func Install(in *js.Interp, doc *dom.Document, svc Services) *Bindings {
	b := &Bindings{In: in, Doc: doc, Svc: svc}
	b.m = b.newMethods()
	in.InstallStdlib(svc.ConsoleLog)

	docObj := js.NewHost(&documentHost{b})
	in.Globals.Define("document", js.ObjVal(docObj))

	raf := js.NativeFunc("requestAnimationFrame", func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
		if len(args) == 0 {
			return js.Undefined, fmt.Errorf("requestAnimationFrame: missing callback")
		}
		id := svc.RequestAnimationFrame(args[0])
		return js.Num(float64(id)), nil
	})
	in.Globals.Define("requestAnimationFrame", raf)

	setTimeout := js.NativeFunc("setTimeout", func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
		if len(args) == 0 {
			return js.Undefined, fmt.Errorf("setTimeout: missing callback")
		}
		var delay sim.Duration
		if len(args) > 1 {
			delay = sim.Duration(args[1].Number() * float64(sim.Millisecond))
		}
		id := svc.SetTimeout(args[0], delay)
		return js.Num(float64(id)), nil
	})
	in.Globals.Define("setTimeout", setTimeout)

	perf := js.NewObject()
	perf.Set("now", js.NativeFunc("now", func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
		return js.Num(float64(svc.Now()) / float64(sim.Millisecond)), nil
	}))
	in.Globals.Define("performance", js.ObjVal(perf))

	winObj := js.NewObject()
	winObj.Set("requestAnimationFrame", raf)
	winObj.Set("setTimeout", setTimeout)
	winObj.Set("performance", js.ObjVal(perf))
	winObj.Set("document", js.ObjVal(docObj))
	in.Globals.Define("window", js.ObjVal(winObj))

	// work(n): synthetic compute kernel charging n×WorkOpsPerUnit ops.
	in.Globals.Define("work", js.NativeFunc("work", func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
		units := 1.0
		if len(args) > 0 {
			units = args[0].Number()
		}
		if units < 0 {
			units = 0
		}
		in.ChargeOps(int64(units * WorkOpsPerUnit))
		return js.Undefined, nil
	}))
	return b
}

// ElemValue returns the script wrapper for a DOM node, preserving object
// identity across lookups as engines do. The wrapper is cached on the node;
// one made by another Bindings on the same document is never reused, so two
// bindings never share wrappers (the latest to wrap a node keeps it).
func (b *Bindings) ElemValue(n *dom.Node) js.Value {
	if n == nil {
		return js.Null
	}
	if o, ok := n.Wrapper.(*js.Object); ok {
		if h, ok := o.Host.(*elementHost); ok && h.b == b {
			return js.ObjVal(o)
		}
	}
	o := js.NewHost(&elementHost{b: b, n: n})
	n.Wrapper = o
	return js.ObjVal(o)
}

// NodeOf extracts the DOM node backing a script value, or nil.
func (b *Bindings) NodeOf(v js.Value) *dom.Node {
	o := v.Object()
	if o == nil || o.Host == nil {
		return nil
	}
	if eh, ok := o.Host.(*elementHost); ok {
		return eh.n
	}
	return nil
}

// WrapEvent builds the script-visible event object for a DOM event: one
// allocation, a host object answering type, target, currentTarget (the
// node whose listener is running when the event is wrapped), the keys of
// e.Data, and the Bindings' preventDefault and stopPropagation methods.
// Its properties enumerate in that order, Data keys sorted.
func (b *Bindings) WrapEvent(e *dom.Event) js.Value {
	h := &eventHost{b: b, e: e, current: e.CurrentTarget}
	h.obj.Host = h
	return js.ObjVal(&h.obj)
}

// Handler adapts a script function into a DOM event handler. Script errors
// surface through onError (which may be nil to ignore, as browsers log and
// continue).
func (b *Bindings) Handler(fn js.Value, onError func(error)) dom.Handler {
	return func(e *dom.Event) {
		_, err := b.In.CallFunction(fn, b.ElemValue(e.CurrentTarget), []js.Value{b.WrapEvent(e)})
		if err != nil && onError != nil {
			onError(err)
		}
	}
}

// newMethods builds every document and element method once.
func (b *Bindings) newMethods() methods {
	return methods{
		getElementByID: js.NativeFunc("getElementById", func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				return js.Null, nil
			}
			return b.ElemValue(b.Doc.GetElementByID(args[0].Text())), nil
		}),
		getElementsByTagName: js.NativeFunc("getElementsByTagName", func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				return js.ObjVal(js.NewArray()), nil
			}
			arr := js.NewArray()
			for _, n := range b.Doc.GetElementsByTag(args[0].Text()) {
				arr.Elems = append(arr.Elems, b.ElemValue(n))
			}
			return js.ObjVal(arr), nil
		}),
		getElementsByClassName: js.NativeFunc("getElementsByClassName", func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				return js.ObjVal(js.NewArray()), nil
			}
			arr := js.NewArray()
			for _, n := range b.Doc.GetElementsByClass(args[0].Text()) {
				arr.Elems = append(arr.Elems, b.ElemValue(n))
			}
			return js.ObjVal(arr), nil
		}),
		querySelector: js.NativeFunc("querySelector", func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				return js.Null, nil
			}
			n, err := css.Query(b.Doc, args[0].Text())
			if err != nil {
				return js.Null, fmt.Errorf("querySelector: %w", err)
			}
			in.ChargeOps(int64(b.Doc.CountNodes()) / 2)
			return b.ElemValue(n), nil
		}),
		querySelectorAll: js.NativeFunc("querySelectorAll", func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
			arr := js.NewArray()
			if len(args) == 0 {
				return js.ObjVal(arr), nil
			}
			ns, err := css.QueryAll(b.Doc, args[0].Text())
			if err != nil {
				return js.Null, fmt.Errorf("querySelectorAll: %w", err)
			}
			for _, n := range ns {
				arr.Elems = append(arr.Elems, b.ElemValue(n))
			}
			in.ChargeOps(int64(b.Doc.CountNodes()) / 2)
			return js.ObjVal(arr), nil
		}),
		createElement: js.NativeFunc("createElement", func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
			tag := "div"
			if len(args) > 0 {
				tag = args[0].Text()
			}
			return b.ElemValue(b.Doc.NewElement(tag)), nil
		}),
		createTextNode: js.NativeFunc("createTextNode", func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
			text := ""
			if len(args) > 0 {
				text = args[0].Text()
			}
			return b.ElemValue(b.Doc.NewText(text)), nil
		}),

		addEventListener: b.elementMethod("addEventListener", func(n *dom.Node, args []js.Value) (js.Value, error) {
			if len(args) < 2 {
				return js.Undefined, fmt.Errorf("addEventListener: need event and handler")
			}
			n.AddEventListener(args[0].Text(), b.Handler(args[1], nil))
			return js.Undefined, nil
		}),
		setAttribute: b.elementMethod("setAttribute", func(n *dom.Node, args []js.Value) (js.Value, error) {
			if len(args) < 2 {
				return js.Undefined, nil
			}
			n.SetAttr(args[0].Text(), args[1].Text())
			return js.Undefined, nil
		}),
		getAttribute: b.elementMethod("getAttribute", func(n *dom.Node, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				return js.Null, nil
			}
			if v, ok := n.Attr(args[0].Text()); ok {
				return js.Str(v), nil
			}
			return js.Null, nil
		}),
		appendChild: b.elementMethod("appendChild", func(n *dom.Node, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				return js.Undefined, nil
			}
			child := b.NodeOf(args[0])
			if child == nil {
				return js.Undefined, fmt.Errorf("appendChild: not a node")
			}
			n.AppendChild(child)
			return args[0], nil
		}),
		removeChild: b.elementMethod("removeChild", func(n *dom.Node, args []js.Value) (js.Value, error) {
			if len(args) == 0 {
				return js.Undefined, nil
			}
			child := b.NodeOf(args[0])
			if child == nil {
				return js.Undefined, fmt.Errorf("removeChild: not a node")
			}
			n.RemoveChild(child)
			return args[0], nil
		}),

		preventDefault:  eventMethod("preventDefault", (*dom.Event).PreventDefault),
		stopPropagation: eventMethod("stopPropagation", (*dom.Event).StopPropagation),
	}
}

// eventMethod builds an event method that resolves its event from this;
// called on anything but an event object it is an illegal invocation.
func eventMethod(name string, fn func(*dom.Event)) js.Value {
	return js.NativeFunc(name, func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
		o := this.Object()
		if o == nil {
			return js.Undefined, fmt.Errorf("%s: illegal invocation", name)
		}
		h, ok := o.Host.(*eventHost)
		if !ok {
			return js.Undefined, fmt.Errorf("%s: illegal invocation", name)
		}
		fn(h.e)
		return js.Undefined, nil
	})
}

// elementMethod builds an element method that resolves its node from this.
// Called on anything but a node wrapper it is an illegal invocation, as in
// a browser.
func (b *Bindings) elementMethod(name string, fn func(n *dom.Node, args []js.Value) (js.Value, error)) js.Value {
	return js.NativeFunc(name, func(in *js.Interp, this js.Value, args []js.Value) (js.Value, error) {
		n := b.NodeOf(this)
		if n == nil {
			return js.Undefined, fmt.Errorf("%s: illegal invocation", name)
		}
		return fn(n, args)
	})
}

// ---- document host ----

type documentHost struct{ b *Bindings }

func (d *documentHost) HostGet(name string) (js.Value, bool) {
	b := d.b
	switch name {
	case "getElementById":
		return b.m.getElementByID, true
	case "getElementsByTagName":
		return b.m.getElementsByTagName, true
	case "getElementsByClassName":
		return b.m.getElementsByClassName, true
	case "querySelector":
		return b.m.querySelector, true
	case "querySelectorAll":
		return b.m.querySelectorAll, true
	case "createElement":
		return b.m.createElement, true
	case "createTextNode":
		return b.m.createTextNode, true
	case "body":
		if els := b.Doc.GetElementsByTag("body"); len(els) > 0 {
			return b.ElemValue(els[0]), true
		}
		return js.Null, true
	case "documentElement":
		if els := b.Doc.GetElementsByTag("html"); len(els) > 0 {
			return b.ElemValue(els[0]), true
		}
		return js.Null, true
	}
	return js.Undefined, false
}

func (d *documentHost) HostSet(string, js.Value) bool { return false }

// ---- element host ----

type elementHost struct {
	b     *Bindings
	n     *dom.Node
	style js.Value // lazily created style proxy
}

func (h *elementHost) HostGet(name string) (js.Value, bool) {
	b, n := h.b, h.n
	switch name {
	case "id":
		return js.Str(n.ID()), true
	case "tagName":
		return js.Str(strings.ToUpper(n.Tag)), true
	case "className":
		v, _ := n.Attr("class")
		return js.Str(v), true
	case "textContent":
		return js.Str(n.TextContent()), true
	case "parentNode":
		return b.ElemValue(n.Parent), true
	case "children":
		arr := js.NewArray()
		for _, c := range n.Children {
			if c.Type == dom.ElementNode {
				arr.Elems = append(arr.Elems, b.ElemValue(c))
			}
		}
		return js.ObjVal(arr), true
	case "style":
		if h.style.IsUndefined() || h.style.Object() == nil {
			h.style = js.ObjVal(js.NewHost(&styleHost{n: n}))
		}
		return h.style, true
	case "addEventListener":
		return b.m.addEventListener, true
	case "setAttribute":
		return b.m.setAttribute, true
	case "getAttribute":
		return b.m.getAttribute, true
	case "appendChild":
		return b.m.appendChild, true
	case "removeChild":
		return b.m.removeChild, true
	}
	return js.Undefined, false
}

func (h *elementHost) HostSet(name string, v js.Value) bool {
	n := h.n
	switch name {
	case "textContent":
		for len(n.Children) > 0 {
			n.RemoveChild(n.Children[0])
		}
		if doc := n.Document(); doc != nil {
			n.AppendChild(doc.NewText(v.Text()))
		}
		return true
	case "className":
		n.SetAttr("class", v.Text())
		return true
	case "id":
		n.SetAttr("id", v.Text())
		return true
	}
	return false
}

// ---- event host ----

// eventHost is a script event object. The js.Object is embedded so that
// wrapping an event is one allocation.
type eventHost struct {
	obj     js.Object
	b       *Bindings
	e       *dom.Event
	current *dom.Node // e.CurrentTarget when the event was wrapped
}

func (h *eventHost) HostGet(name string) (js.Value, bool) {
	switch name {
	case "type":
		return js.Str(h.e.Name), true
	case "target":
		return h.b.ElemValue(h.e.Target), true
	case "currentTarget":
		return h.b.ElemValue(h.current), true
	case "preventDefault":
		return h.b.m.preventDefault, true
	case "stopPropagation":
		return h.b.m.stopPropagation, true
	}
	if v, ok := h.e.Data[name]; ok {
		return js.Num(v), true
	}
	return js.Undefined, false
}

func (h *eventHost) HostSet(string, js.Value) bool { return false }

// HostKeys lists the event's properties in a fixed order: Data keys sorted,
// between the event's identity and its methods.
func (h *eventHost) HostKeys() []string {
	ks := []string{"type", "target", "currentTarget"}
	data := len(ks)
	for k := range h.e.Data {
		ks = append(ks, k)
	}
	slices.Sort(ks[data:])
	return append(ks, "preventDefault", "stopPropagation")
}

// ---- style proxy ----

type styleHost struct{ n *dom.Node }

func (s *styleHost) HostGet(name string) (js.Value, bool) {
	return js.Str(s.n.Style(camelToKebab(name))), true
}

func (s *styleHost) HostSet(name string, v js.Value) bool {
	s.n.SetStyle(camelToKebab(name), v.Text())
	return true
}

// camelToKebab maps script style names to CSS properties
// (backgroundColor → background-color).
func camelToKebab(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 'A' && r <= 'Z' {
			b.WriteByte('-')
			b.WriteRune(r - 'A' + 'a')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}
