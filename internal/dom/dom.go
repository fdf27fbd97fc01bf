// Package dom implements the Document Object Model tree that HTML parses
// into, CSS selectors match against, and scripts manipulate.
//
// The model covers what the GreenWeb stack needs from a DOM: element
// structure with attributes, id/class/tag lookup, inline and computed style
// storage, event listeners with bubbling dispatch, and mutation notification
// so the rendering pipeline can track dirtiness (the paper's dirty-bit
// system, Sec. 6.3).
package dom

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// NodeType discriminates the node kinds the tree can hold.
type NodeType int

const (
	// DocumentNode is the root of a document tree.
	DocumentNode NodeType = iota
	// ElementNode is a tag-delimited element.
	ElementNode
	// TextNode holds character data.
	TextNode
)

func (t NodeType) String() string {
	switch t {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// Node is a single DOM tree node.
type Node struct {
	Type     NodeType
	Tag      string // element tag name, lower-case; empty otherwise
	Text     string // character data for text nodes
	Parent   *Node
	Children []*Node

	attrs map[string]string
	// sharedAttrs marks attrs as borrowed from a clone template; SetAttr
	// copies the map before the first write (see clone.go).
	sharedAttrs bool

	// id and classes mirror attrs["id"] and attrs["class"], split once at
	// SetAttr time: selector matching reads them on every candidate test and
	// must not pay a map lookup plus strings.Fields per probe.
	id      string
	classes []string

	// InlineStyle holds style declarations from the element's style=""
	// attribute; ComputedStyle is filled by the CSS cascade.
	InlineStyle   map[string]string
	ComputedStyle map[string]string

	listeners map[string][]*Listener
	doc       *Document

	// Wrapper is the script binding's object for this node, kept here so a
	// wrapper lives exactly as long as its node does. The DOM never reads
	// it; clones start without one.
	Wrapper any
}

// Document owns a DOM tree and its lookup indexes.
type Document struct {
	Root *Node

	byID map[string]*Node

	// onMutation callbacks fire on any structural or style mutation; the
	// browser uses this to set the rendering dirty bit.
	onMutation []func(*Node)
	// onStyleChange callbacks additionally receive the property and values
	// of inline style writes; the browser's CSS-transition machinery needs
	// the property name to decide whether a transition starts.
	onStyleChange []func(n *Node, property, old, new string)

	listenerSeq int

	// gen counts structural and attribute mutations (AppendChild,
	// RemoveChild, SetAttr — not inline style writes, which cannot change
	// what selectors match or how many nodes exist). Caches keyed on the
	// tree's shape — the node-count cache below, the annotation lookup memo —
	// compare generations instead of re-walking.
	gen int
	// nodeCountCache packs (gen<<32 | count) into one word so concurrent
	// CountNodes calls on a shared immutable template (fleet workers cloning
	// the same cached page) are race-free: racing writers store the same
	// value. Mutations themselves are single-owner; only reads are shared.
	nodeCountCache atomic.Uint64
}

// NewDocument returns an empty document with a root node.
func NewDocument() *Document {
	d := &Document{byID: make(map[string]*Node), gen: 1}
	d.Root = &Node{Type: DocumentNode, doc: d}
	return d
}

// Generation returns a counter that increases on every structural or
// attribute mutation. Two calls returning the same value guarantee the
// tree's shape and attributes are unchanged between them; inline style
// writes do not advance it.
func (d *Document) Generation() int { return d.gen }

// NewElement creates a detached element owned by this document.
func (d *Document) NewElement(tag string) *Node {
	return &Node{Type: ElementNode, Tag: strings.ToLower(tag), doc: d}
}

// NewText creates a detached text node owned by this document.
func (d *Document) NewText(text string) *Node {
	return &Node{Type: TextNode, Text: text, doc: d}
}

// OnMutation registers a callback invoked with the mutated node after every
// structural, attribute, or style mutation anywhere in the document.
func (d *Document) OnMutation(fn func(*Node)) {
	d.onMutation = append(d.onMutation, fn)
}

func (d *Document) mutated(n *Node) {
	for _, fn := range d.onMutation {
		fn(n)
	}
}

// OnStyleChange registers a callback invoked with the property name and the
// old and new values on every inline style write.
func (d *Document) OnStyleChange(fn func(n *Node, property, old, new string)) {
	d.onStyleChange = append(d.onStyleChange, fn)
}

// GetElementByID returns the element with the given id attribute, or nil.
func (d *Document) GetElementByID(id string) *Node { return d.byID[id] }

// GetElementsByTag returns all elements with the given tag, in tree order.
func (d *Document) GetElementsByTag(tag string) []*Node {
	tag = strings.ToLower(tag)
	var out []*Node
	d.Root.Walk(func(n *Node) {
		if n.Type == ElementNode && n.Tag == tag {
			out = append(out, n)
		}
	})
	return out
}

// GetElementsByClass returns all elements carrying the given class.
func (d *Document) GetElementsByClass(class string) []*Node {
	var out []*Node
	d.Root.Walk(func(n *Node) {
		if n.Type == ElementNode && n.HasClass(class) {
			out = append(out, n)
		}
	})
	return out
}

// Elements returns every element node in tree order.
func (d *Document) Elements() []*Node {
	out := make([]*Node, 0, d.CountNodes())
	d.Root.Walk(func(n *Node) {
		if n.Type == ElementNode {
			out = append(out, n)
		}
	})
	return out
}

// CountNodes reports the total number of nodes in the tree, including the
// document node. The rendering pipeline scales style/layout cost with this
// on every frame, so the walk result is cached against the mutation
// generation and only recomputed after a structural change.
func (d *Document) CountNodes() int {
	if c := d.nodeCountCache.Load(); int(c>>32) == d.gen {
		return int(uint32(c))
	}
	n := 0
	d.Root.Walk(func(*Node) { n++ })
	d.nodeCountCache.Store(uint64(d.gen)<<32 | uint64(uint32(n)))
	return n
}

// AppendChild attaches child as the last child of n. A child is detached
// from its previous parent first. Appending an ancestor panics.
func (n *Node) AppendChild(child *Node) {
	if child == nil {
		panic("dom: AppendChild(nil)")
	}
	for a := n; a != nil; a = a.Parent {
		if a == child {
			panic("dom: AppendChild would create a cycle")
		}
	}
	if child.Parent != nil {
		child.Parent.RemoveChild(child)
	}
	child.Parent = n
	n.Children = append(n.Children, child)
	if n.doc != nil {
		child.adopt(n.doc)
		n.doc.gen++
		n.doc.mutated(n)
	}
}

// RemoveChild detaches child from n. Removing a non-child panics.
func (n *Node) RemoveChild(child *Node) {
	for i, c := range n.Children {
		if c == child {
			n.Children = slices.Delete(n.Children, i, i+1) // zeroes the vacated tail slot
			child.Parent = nil
			if n.doc != nil {
				child.unindex(n.doc)
				n.doc.gen++
				n.doc.mutated(n)
			}
			return
		}
	}
	panic("dom: RemoveChild of a non-child")
}

func (n *Node) adopt(d *Document) {
	n.Walk(func(m *Node) {
		m.doc = d
		if id := m.attr("id"); id != "" {
			d.byID[id] = m
		}
	})
}

func (n *Node) unindex(d *Document) {
	n.Walk(func(m *Node) {
		if id := m.attr("id"); id != "" && d.byID[id] == m {
			delete(d.byID, id)
		}
	})
}

// Walk visits n and every descendant in depth-first tree order.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Document returns the owning document, or nil for a detached tree built
// outside one.
func (n *Node) Document() *Document { return n.doc }

// Connected reports whether the node is attached to its document's tree.
// Only connected nodes appear in the document's id index, matching
// getElementById semantics.
func (n *Node) Connected() bool {
	if n.doc == nil {
		return false
	}
	for m := n; m != nil; m = m.Parent {
		if m == n.doc.Root {
			return true
		}
	}
	return false
}

func (n *Node) attr(name string) string {
	if n.attrs == nil {
		return ""
	}
	return n.attrs[name]
}

// Attr returns the attribute value and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	if n.attrs == nil {
		return "", false
	}
	v, ok := n.attrs[strings.ToLower(name)]
	return v, ok
}

// SetAttr sets an attribute, maintaining the document id index.
func (n *Node) SetAttr(name, value string) {
	name = strings.ToLower(name)
	if n.sharedAttrs {
		n.attrs = maps.Clone(n.attrs)
		n.sharedAttrs = false
	}
	if n.attrs == nil {
		n.attrs = make(map[string]string)
	}
	if name == "id" && n.doc != nil && n.Connected() {
		if old := n.attrs["id"]; old != "" && n.doc.byID[old] == n {
			delete(n.doc.byID, old)
		}
		if value != "" {
			n.doc.byID[value] = n
		}
	}
	n.attrs[name] = value
	switch name {
	case "id":
		n.id = value
	case "class":
		n.classes = strings.Fields(value)
	}
	if n.doc != nil {
		n.doc.gen++
		n.doc.mutated(n)
	}
}

// AttrNames returns the element's attribute names, sorted.
func (n *Node) AttrNames() []string {
	names := make([]string, 0, len(n.attrs))
	for k := range n.attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// ID returns the element's id attribute.
func (n *Node) ID() string { return n.id }

// Classes returns the element's class list. The returned slice is the
// node's cached list — callers must not mutate it.
func (n *Node) Classes() []string { return n.classes }

// HasClass reports whether the element carries the given class.
func (n *Node) HasClass(class string) bool {
	for _, c := range n.classes {
		if c == class {
			return true
		}
	}
	return false
}

// SetStyle sets an inline style property, as scripts do via
// element.style.foo = "...". It notifies mutation observers.
func (n *Node) SetStyle(property, value string) {
	if n.InlineStyle == nil {
		n.InlineStyle = make(map[string]string)
	}
	old := n.Computed(property)
	n.InlineStyle[property] = value
	if n.doc != nil {
		for _, fn := range n.doc.onStyleChange {
			fn(n, property, old, value)
		}
		n.doc.mutated(n)
	}
}

// Style returns the inline style property value, or "".
func (n *Node) Style(property string) string {
	return n.InlineStyle[property]
}

// Computed returns the cascaded style property value, falling back to the
// inline style, or "".
func (n *Node) Computed(property string) string {
	if v, ok := n.InlineStyle[property]; ok {
		return v
	}
	return n.ComputedStyle[property]
}

// TextContent concatenates the text of all descendant text nodes.
func (n *Node) TextContent() string {
	var b strings.Builder
	n.Walk(func(m *Node) {
		if m.Type == TextNode {
			b.WriteString(m.Text)
		}
	})
	return b.String()
}

// Path returns a readable ancestor path like "html>body>div#nav" for
// diagnostics and annotation generation.
func (n *Node) Path() string {
	var parts []string
	for m := n; m != nil && m.Type == ElementNode; m = m.Parent {
		s := m.Tag
		if id := m.ID(); id != "" {
			s += "#" + id
		}
		parts = append(parts, s)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, ">")
}

func (n *Node) String() string {
	switch n.Type {
	case ElementNode:
		return "<" + n.Tag + ">"
	case TextNode:
		return fmt.Sprintf("%q", n.Text)
	default:
		return "#document"
	}
}
