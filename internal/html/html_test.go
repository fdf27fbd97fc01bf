package html

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/wattwiseweb/greenweb/internal/dom"
)

func tokens(t *testing.T, src string) []Token {
	t.Helper()
	z := NewTokenizer(src)
	var out []Token
	for {
		tok, ok := z.Next()
		if !ok {
			return out
		}
		out = append(out, tok)
	}
}

func TestTokenizeSimple(t *testing.T) {
	toks := tokens(t, `<div id="a" class='b c'>hi</div>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[0].Type != StartTagToken || toks[0].Tag != "div" {
		t.Fatalf("token 0 = %+v", toks[0])
	}
	if v, ok := toks[0].Attr("id"); !ok || v != "a" {
		t.Fatalf("id attr = %q, %v", v, ok)
	}
	if v, _ := toks[0].Attr("class"); v != "b c" {
		t.Fatalf("class attr = %q", v)
	}
	if toks[1].Type != TextToken || toks[1].Data != "hi" {
		t.Fatalf("token 1 = %+v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Tag != "div" {
		t.Fatalf("token 2 = %+v", toks[2])
	}
}

func TestTokenizeUnquotedAndBoolean(t *testing.T) {
	toks := tokens(t, `<input type=text disabled>`)
	if toks[0].Type != StartTagToken {
		t.Fatalf("type = %v", toks[0].Type)
	}
	if v, _ := toks[0].Attr("type"); v != "text" {
		t.Fatalf("type attr = %q", v)
	}
	if _, ok := toks[0].Attr("disabled"); !ok {
		t.Fatal("boolean attr missing")
	}
}

func TestTokenizeSelfClosing(t *testing.T) {
	toks := tokens(t, `<br/><img src="x.png" />`)
	if toks[0].Type != SelfClosingTagToken || toks[0].Tag != "br" {
		t.Fatalf("token 0 = %+v", toks[0])
	}
	if toks[1].Type != SelfClosingTagToken || toks[1].Tag != "img" {
		t.Fatalf("token 1 = %+v", toks[1])
	}
}

func TestTokenizeCommentAndDoctype(t *testing.T) {
	toks := tokens(t, `<!DOCTYPE html><!-- note -->x`)
	if toks[0].Type != DoctypeToken {
		t.Fatalf("token 0 = %+v", toks[0])
	}
	if toks[1].Type != CommentToken || toks[1].Data != " note " {
		t.Fatalf("token 1 = %+v", toks[1])
	}
	if toks[2].Type != TextToken || toks[2].Data != "x" {
		t.Fatalf("token 2 = %+v", toks[2])
	}
}

func TestTokenizeScriptRawText(t *testing.T) {
	// Raw text runs to the first literal close tag; engines behave the
	// same way, which is why inline scripts avoid "</script>" literals.
	toks := tokens(t, `<script>if (a < b) { f(); }</script>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	if toks[1].Data != "if (a < b) { f(); }" {
		t.Fatalf("script body = %q", toks[1].Data)
	}
}

func TestTokenizeEmptyScript(t *testing.T) {
	toks := tokens(t, `<script></script><p>x</p>`)
	if len(toks) != 5 {
		t.Fatalf("tokens = %v", toks)
	}
	if toks[1].Type != EndTagToken || toks[1].Tag != "script" {
		t.Fatalf("token 1 = %+v", toks[1])
	}
}

func TestTokenizeStrayLessThan(t *testing.T) {
	toks := tokens(t, `a < b`)
	var text strings.Builder
	for _, tok := range toks {
		if tok.Type != TextToken {
			t.Fatalf("unexpected token %+v", tok)
		}
		text.WriteString(tok.Data)
	}
	if text.String() != "a < b" {
		t.Fatalf("text = %q", text.String())
	}
}

func TestUnescape(t *testing.T) {
	cases := map[string]string{
		"a &amp; b":      "a & b",
		"&lt;div&gt;":    "<div>",
		"&quot;x&quot;":  `"x"`,
		"&#65;&#x42;":    "AB",
		"&unknown; &":    "&unknown; &",
		"no entities":    "no entities",
		"&apos;&nbsp;":   "'\u00a0",
		"&#xZZ; literal": "&#xZZ; literal",
	}
	for in, want := range cases {
		if got := Unescape(in); got != want {
			t.Errorf("Unescape(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	s := `<a href="x">&`
	if got := Unescape(Escape(s)); got != s {
		t.Fatalf("round trip = %q", got)
	}
}

func TestEscapePlainTextAllocatesNothing(t *testing.T) {
	plain := "plain text with no markup characters"
	var got string
	if n := testing.AllocsPerRun(100, func() { got = Escape(plain) }); n != 0 {
		t.Fatalf("Escape(plain) allocated %v times per call, want 0", n)
	}
	if got != plain {
		t.Fatalf("Escape(%q) = %q", plain, got)
	}
}

func TestParseTree(t *testing.T) {
	doc := Parse(`<html><body><div id="main"><p>one</p><p>two</p></div></body></html>`)
	main := doc.GetElementByID("main")
	if main == nil {
		t.Fatal("no #main")
	}
	ps := doc.GetElementsByTag("p")
	if len(ps) != 2 {
		t.Fatalf("p count = %d", len(ps))
	}
	if ps[0].TextContent() != "one" || ps[1].TextContent() != "two" {
		t.Fatal("text content wrong")
	}
	if ps[0].Parent != main {
		t.Fatal("structure wrong")
	}
}

func TestParseSkipsWhitespaceText(t *testing.T) {
	doc := Parse("<div>\n  <p>x</p>\n</div>")
	div := doc.GetElementsByTag("div")[0]
	if len(div.Children) != 1 {
		t.Fatalf("div has %d children, want 1", len(div.Children))
	}
}

func TestParseVoidElements(t *testing.T) {
	doc := Parse(`<div><br><img src="a"><p>after</p></div>`)
	div := doc.GetElementsByTag("div")[0]
	if len(div.Children) != 3 {
		t.Fatalf("div children = %d, want 3 (br, img, p siblings)", len(div.Children))
	}
}

func TestParseRecoversFromUnmatchedEndTag(t *testing.T) {
	doc := Parse(`<div></span><p>x</p></div>`)
	if len(doc.GetElementsByTag("p")) != 1 {
		t.Fatal("p lost after bogus end tag")
	}
	p := doc.GetElementsByTag("p")[0]
	if p.Parent.Tag != "div" {
		t.Fatalf("p parent = %v", p.Parent)
	}
}

func TestParseClosesUnclosedAtEOF(t *testing.T) {
	doc := Parse(`<div><p>unclosed`)
	if got := doc.GetElementsByTag("p")[0].TextContent(); got != "unclosed" {
		t.Fatalf("text = %q", got)
	}
}

func TestScriptAndStyleSources(t *testing.T) {
	doc := Parse(`<html><head><style>p { color: red; }</style></head>
		<body><script>var x = 1;</script><script>  </script></body></html>`)
	ss := ScriptSources(doc)
	if len(ss) != 1 || ss[0] != "var x = 1;" {
		t.Fatalf("scripts = %q", ss)
	}
	cs := StyleSources(doc)
	if len(cs) != 1 || cs[0] != "p { color: red; }" {
		t.Fatalf("styles = %q", cs)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	src := `<html><body><div class="a" id="m"><p>hi &amp; bye</p><br></div></body></html>`
	doc := Parse(src)
	out := Render(doc)
	doc2 := Parse(out)
	// Semantic equivalence: same element structure and text.
	if doc.CountNodes() != doc2.CountNodes() {
		t.Fatalf("node count changed: %d → %d\n%s", doc.CountNodes(), doc2.CountNodes(), out)
	}
	if doc2.GetElementByID("m") == nil {
		t.Fatal("id lost in round trip")
	}
	if doc2.GetElementsByTag("p")[0].TextContent() != "hi & bye" {
		t.Fatalf("text mangled: %q", doc2.GetElementsByTag("p")[0].TextContent())
	}
}

func TestRenderScriptNotEscaped(t *testing.T) {
	src := `<body><script>if (a < 2) { b = a && c; }</script></body>`
	doc := Parse(src)
	out := Render(doc)
	if !strings.Contains(out, "if (a < 2) { b = a && c; }") {
		t.Fatalf("script body escaped: %s", out)
	}
	// And it must survive a second parse.
	doc2 := Parse(out)
	if ScriptSources(doc2)[0] != "if (a < 2) { b = a && c; }" {
		t.Fatalf("script lost: %q", ScriptSources(doc2))
	}
}

func TestTokenTypeStrings(t *testing.T) {
	for tt, want := range map[TokenType]string{
		TextToken: "text", StartTagToken: "start-tag", EndTagToken: "end-tag",
		SelfClosingTagToken: "self-closing-tag", CommentToken: "comment", DoctypeToken: "doctype",
	} {
		if tt.String() != want {
			t.Errorf("%d.String() = %q, want %q", tt, tt.String(), want)
		}
	}
}

// Property: parsing never panics and always yields a tree whose parent
// pointers are consistent, for arbitrary input.
func TestPropertyParseTotalFunction(t *testing.T) {
	f := func(s string) bool {
		doc := Parse(s)
		ok := true
		doc.Root.Walk(func(n *dom.Node) {
			for _, c := range n.Children {
				if c.Parent != n {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: render→parse→render reaches a fixed point (idempotent
// serialization) for documents built from parsing arbitrary tag soup.
func TestPropertyRenderFixedPoint(t *testing.T) {
	f := func(s string) bool {
		r1 := Render(Parse(s))
		r2 := Render(Parse(r1))
		return r1 == r2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
