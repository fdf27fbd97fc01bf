// Package html parses HTML documents into DOM trees.
//
// The parser covers the HTML features GreenWeb applications use: nested
// elements with quoted/unquoted attributes, void and self-closing elements,
// comments, character entities, and raw-text handling for <script> and
// <style> so embedded code reaches the script and CSS front ends verbatim.
// It is a pragmatic engine-style parser rather than a full WHATWG
// implementation: malformed input degrades gracefully instead of erroring,
// because real webpages are malformed.
package html

import (
	"strings"
	"unicode"
)

// TokenType identifies a lexical token in the HTML stream.
type TokenType int

const (
	// TextToken is character data between tags.
	TextToken TokenType = iota
	// StartTagToken is <tag attr="v">.
	StartTagToken
	// EndTagToken is </tag>.
	EndTagToken
	// SelfClosingTagToken is <tag/>.
	SelfClosingTagToken
	// CommentToken is <!-- ... -->.
	CommentToken
	// DoctypeToken is <!DOCTYPE ...>.
	DoctypeToken
)

func (t TokenType) String() string {
	switch t {
	case TextToken:
		return "text"
	case StartTagToken:
		return "start-tag"
	case EndTagToken:
		return "end-tag"
	case SelfClosingTagToken:
		return "self-closing-tag"
	case CommentToken:
		return "comment"
	case DoctypeToken:
		return "doctype"
	default:
		return "unknown"
	}
}

// Attr is one parsed attribute.
type Attr struct {
	Name  string
	Value string
}

// Token is one lexical unit of the HTML stream.
type Token struct {
	Type  TokenType
	Tag   string // lower-cased tag name for tag tokens
	Data  string // text content, comment body, or doctype body
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it is present.
func (t *Token) Attr(name string) (string, bool) {
	name = strings.ToLower(name)
	for _, a := range t.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// rawTextTags capture their content verbatim until the matching close tag.
var rawTextTags = map[string]bool{"script": true, "style": true}

// Tokenizer splits an HTML source into tokens.
type Tokenizer struct {
	src string
	pos int
	// pending raw-text element whose content should be consumed verbatim
	rawTag string
}

// NewTokenizer returns a tokenizer over src.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

// Next returns the next token, or ok=false at end of input.
func (z *Tokenizer) Next() (Token, bool) {
	if z.rawTag != "" {
		return z.rawText()
	}
	if z.pos >= len(z.src) {
		return Token{}, false
	}
	if z.src[z.pos] == '<' {
		return z.tag()
	}
	return z.text()
}

func (z *Tokenizer) text() (Token, bool) {
	start := z.pos
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	return Token{Type: TextToken, Data: Unescape(z.src[start:z.pos])}, true
}

// rawText consumes everything up to the close tag of the pending raw-text
// element (e.g. </script>), without entity decoding.
func (z *Tokenizer) rawText() (Token, bool) {
	close := "</" + z.rawTag
	z.rawTag = ""
	// A byte-offset-safe case-insensitive search: lowering the whole
	// suffix would replace invalid UTF-8 with U+FFFD and shift offsets.
	idx := indexASCIIFold(z.src[z.pos:], close)
	if idx < 0 {
		data := z.src[z.pos:]
		z.pos = len(z.src)
		if data == "" {
			return z.Next()
		}
		return Token{Type: TextToken, Data: data}, true
	}
	data := z.src[z.pos : z.pos+idx]
	z.pos += idx
	if data == "" {
		// Nothing between open and close: deliver the close tag instead.
		return z.tag()
	}
	return Token{Type: TextToken, Data: data}, true
}

// indexASCIIFold returns the byte offset of the first ASCII-case-
// insensitive occurrence of pat (which must be lower-case ASCII) in s,
// or -1. Byte offsets are preserved regardless of s's encoding.
func indexASCIIFold(s, pat string) int {
	if len(pat) == 0 {
		return 0
	}
	for i := 0; i+len(pat) <= len(s); i++ {
		match := true
		for j := 0; j < len(pat); j++ {
			c := s[i+j]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != pat[j] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

func (z *Tokenizer) tag() (Token, bool) {
	// z.src[z.pos] == '<'
	if strings.HasPrefix(z.src[z.pos:], "<!--") {
		end := strings.Index(z.src[z.pos+4:], "-->")
		var body string
		if end < 0 {
			body = z.src[z.pos+4:]
			z.pos = len(z.src)
		} else {
			body = z.src[z.pos+4 : z.pos+4+end]
			z.pos += 4 + end + 3
		}
		return Token{Type: CommentToken, Data: body}, true
	}
	if len(z.src[z.pos:]) >= 2 && z.src[z.pos+1] == '!' {
		// <!DOCTYPE ...> or other declaration.
		end := strings.IndexByte(z.src[z.pos:], '>')
		if end < 0 {
			z.pos = len(z.src)
			return Token{Type: DoctypeToken}, true
		}
		body := z.src[z.pos+2 : z.pos+end]
		z.pos += end + 1
		return Token{Type: DoctypeToken, Data: strings.TrimSpace(body)}, true
	}

	closing := false
	p := z.pos + 1
	if p < len(z.src) && z.src[p] == '/' {
		closing = true
		p++
	}
	// A '<' not followed by a name is literal text.
	if p >= len(z.src) || !isNameStart(z.src[p]) {
		z.pos++
		return Token{Type: TextToken, Data: "<"}, true
	}
	nameStart := p
	for p < len(z.src) && isNameChar(z.src[p]) {
		p++
	}
	name := strings.ToLower(z.src[nameStart:p])

	tok := Token{Tag: name}
	if closing {
		tok.Type = EndTagToken
		// Skip to '>'.
		for p < len(z.src) && z.src[p] != '>' {
			p++
		}
		if p < len(z.src) {
			p++
		}
		z.pos = p
		return tok, true
	}

	// Parse attributes.
	for {
		for p < len(z.src) && isSpace(z.src[p]) {
			p++
		}
		if p >= len(z.src) {
			break
		}
		if z.src[p] == '>' {
			p++
			tok.Type = StartTagToken
			break
		}
		if strings.HasPrefix(z.src[p:], "/>") {
			p += 2
			tok.Type = SelfClosingTagToken
			break
		}
		aStart := p
		for p < len(z.src) && !isSpace(z.src[p]) && z.src[p] != '=' && z.src[p] != '>' && !strings.HasPrefix(z.src[p:], "/>") {
			p++
		}
		aName := strings.ToLower(z.src[aStart:p])
		if aName == "" {
			p++ // stray character; skip to avoid an infinite loop
			continue
		}
		for p < len(z.src) && isSpace(z.src[p]) {
			p++
		}
		var aVal string
		if p < len(z.src) && z.src[p] == '=' {
			p++
			for p < len(z.src) && isSpace(z.src[p]) {
				p++
			}
			if p < len(z.src) && (z.src[p] == '"' || z.src[p] == '\'') {
				q := z.src[p]
				p++
				vStart := p
				for p < len(z.src) && z.src[p] != q {
					p++
				}
				aVal = Unescape(z.src[vStart:p])
				if p < len(z.src) {
					p++
				}
			} else {
				vStart := p
				for p < len(z.src) && !isSpace(z.src[p]) && z.src[p] != '>' {
					p++
				}
				aVal = Unescape(z.src[vStart:p])
			}
		}
		tok.Attrs = append(tok.Attrs, Attr{Name: aName, Value: aVal})
	}
	if tok.Type != StartTagToken && tok.Type != SelfClosingTagToken {
		tok.Type = StartTagToken // unterminated tag at EOF
	}
	z.pos = p
	if tok.Type == StartTagToken && rawTextTags[name] {
		z.rawTag = name
	}
	return tok, true
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' }

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':'
}

var entities = map[string]string{
	"amp":  "&",
	"lt":   "<",
	"gt":   ">",
	"quot": `"`,
	"apos": "'",
	"nbsp": "\u00a0",
}

// Unescape decodes the named and numeric character entities that occur in
// practice. Unknown entities pass through unchanged.
func Unescape(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte(c)
			i++
			continue
		}
		name := s[i+1 : i+semi]
		if rep, ok := entities[name]; ok {
			b.WriteString(rep)
			i += semi + 1
			continue
		}
		if strings.HasPrefix(name, "#") {
			num := name[1:]
			base := 10
			if strings.HasPrefix(num, "x") || strings.HasPrefix(num, "X") {
				base = 16
				num = num[1:]
			}
			var r rune
			ok := len(num) > 0
			for _, d := range num {
				var v rune
				switch {
				case d >= '0' && d <= '9':
					v = d - '0'
				case base == 16 && d >= 'a' && d <= 'f':
					v = d - 'a' + 10
				case base == 16 && d >= 'A' && d <= 'F':
					v = d - 'A' + 10
				default:
					ok = false
				}
				if !ok {
					break
				}
				r = r*rune(base) + v
			}
			if ok && unicode.IsGraphic(r) {
				b.WriteRune(r)
				i += semi + 1
				continue
			}
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

// escaper is shared: a Replacer is safe for concurrent use, and building
// one allocates its lookup table.
var escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// Escape encodes text for safe embedding in HTML content. Text with nothing
// to escape is returned as is, without allocating.
func Escape(s string) string { return escaper.Replace(s) }
