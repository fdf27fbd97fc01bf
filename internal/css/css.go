// Package css implements a CSS engine: tokenizing and parsing style sheets,
// selector matching with standard specificity, cascading computed styles
// onto a DOM tree — plus the GreenWeb language extension the paper
// contributes (Sec. 4, Fig. 3, Table 2):
//
//	GreenWebRule ::= Selector? { QoSDecl+ }
//	Selector     ::= Element:QoS
//	QoSDecl      ::= CDecl | SDecl
//	CDecl        ::= onEventName-qos: continuous [, v, v]
//	SDecl        ::= onEventName-qos: single, short|long | single, v, v
//
// A rule selects elements with the :QoS pseudo-class and declares, per DOM
// event, the QoS type (single or continuous) and optionally explicit
// imperceptible/usable targets in milliseconds. Ordinary visual declarations
// and GreenWeb declarations coexist in one sheet, exactly as CSS3 extension
// properties do.
package css

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/wattwiseweb/greenweb/internal/sim"
)

// Decl is one declaration: property: value, optionally flagged !important.
type Decl struct {
	Property  string
	Value     string
	Important bool
}

func (d Decl) String() string {
	if d.Important {
		return d.Property + ": " + d.Value + " !important;"
	}
	return d.Property + ": " + d.Value + ";"
}

// Rule is one style rule: a selector group and its declarations.
type Rule struct {
	Selectors []Selector
	Decls     []Decl
	// Index is the rule's position in its stylesheet, used as the cascade
	// tiebreak (later rules win at equal specificity).
	Index int
}

// Stylesheet is a parsed sheet.
type Stylesheet struct {
	Rules []*Rule

	// idx caches the rightmost-compound rule index Cascade matches
	// against (see cascade.go). It is rebuilt when Rules has grown since
	// the last build and shared through an atomic pointer so cached,
	// parsed sheets can cascade concurrently across engines.
	idx atomic.Pointer[ruleIndex]
}

// ParseError reports a malformed construct. The parser is tolerant: it
// records errors and skips to the next rule, like engines do.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string { return fmt.Sprintf("css: at offset %d: %s", e.Offset, e.Msg) }

// Parse parses a stylesheet. Unparseable rules are skipped; the errors
// returned describe what was skipped (the sheet is still usable).
func Parse(src string) (*Stylesheet, []error) {
	p := &parser{src: src}
	return p.parseSheet()
}

// MustParse parses a sheet and panics on any error; for embedded app
// sources and tests.
func MustParse(src string) *Stylesheet {
	sheet, errs := Parse(src)
	if len(errs) > 0 {
		panic(errs[0])
	}
	return sheet
}

type parser struct {
	src string
	pos int
}

func (p *parser) parseSheet() (*Stylesheet, []error) {
	sheet := &Stylesheet{}
	var errs []error
	for {
		p.skipSpaceAndComments()
		if p.pos >= len(p.src) {
			return sheet, errs
		}
		if p.src[p.pos] == '@' {
			// At-rules (media queries etc.) are skipped wholesale.
			if err := p.skipAtRule(); err != nil {
				errs = append(errs, err)
				return sheet, errs
			}
			continue
		}
		rule, err := p.parseRule()
		if err != nil {
			errs = append(errs, err)
			p.recover()
			continue
		}
		rule.Index = len(sheet.Rules)
		sheet.Rules = append(sheet.Rules, rule)
	}
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpaceAndComments() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		if strings.HasPrefix(p.src[p.pos:], "/*") {
			end := strings.Index(p.src[p.pos+2:], "*/")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += end + 4
			continue
		}
		return
	}
}

// recover skips past the next top-level '}' so parsing can resume.
func (p *parser) recover() {
	depth := 0
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '{':
			depth++
		case '}':
			depth--
			if depth <= 0 {
				p.pos++
				return
			}
		}
		p.pos++
	}
}

func (p *parser) skipAtRule() error {
	// Skip to ';' (statement at-rule) or a balanced block.
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ';':
			p.pos++
			return nil
		case '{':
			p.recover()
			return nil
		}
		p.pos++
	}
	return p.errorf("unterminated at-rule")
}

func (p *parser) parseRule() (*Rule, error) {
	brace := strings.IndexByte(p.src[p.pos:], '{')
	if brace < 0 {
		p.pos = len(p.src)
		return nil, p.errorf("expected '{' in rule")
	}
	selText := p.src[p.pos : p.pos+brace]
	p.pos += brace + 1

	sels, err := ParseSelectors(selText)
	if err != nil {
		return nil, &ParseError{Offset: p.pos, Msg: err.Error()}
	}

	var decls []Decl
	for {
		p.skipSpaceAndComments()
		if p.pos >= len(p.src) {
			return nil, p.errorf("unterminated rule body")
		}
		if p.src[p.pos] == '}' {
			p.pos++
			break
		}
		colon := strings.IndexByte(p.src[p.pos:], ':')
		endBrace := strings.IndexByte(p.src[p.pos:], '}')
		if colon < 0 || (endBrace >= 0 && colon > endBrace) {
			return nil, p.errorf("expected ':' in declaration")
		}
		prop := strings.TrimSpace(p.src[p.pos : p.pos+colon])
		p.pos += colon + 1
		// Value runs to ';' or '}'.
		valEnd := p.pos
		for valEnd < len(p.src) && p.src[valEnd] != ';' && p.src[valEnd] != '}' {
			valEnd++
		}
		val := strings.TrimSpace(p.src[p.pos:valEnd])
		p.pos = valEnd
		if p.pos < len(p.src) && p.src[p.pos] == ';' {
			p.pos++
		}
		if prop == "" {
			return nil, p.errorf("empty property name")
		}
		important := false
		if rest, ok := strings.CutSuffix(val, "!important"); ok {
			important = true
			val = strings.TrimSpace(rest)
		}
		decls = append(decls, Decl{Property: strings.ToLower(prop), Value: val, Important: important})
	}
	return &Rule{Selectors: sels, Decls: decls}, nil
}

// Serialize renders the stylesheet back to CSS text. AUTOGREEN uses this to
// inject generated annotation rules into application sources.
func (s *Stylesheet) Serialize() string {
	var b strings.Builder
	for i, r := range s.Rules {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(r.String())
	}
	return b.String()
}

func (r *Rule) String() string {
	var b strings.Builder
	for i, s := range r.Selectors {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(" {\n")
	for _, d := range r.Decls {
		b.WriteString("  ")
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	b.WriteString("}")
	return b.String()
}

// ParseDuration parses CSS time values: "2s", "500ms", "0.25s".
func ParseDuration(s string) (sim.Duration, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	var mult float64
	var numPart string
	switch {
	case strings.HasSuffix(s, "ms"):
		mult = float64(sim.Millisecond)
		numPart = s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		mult = float64(sim.Second)
		numPart = s[:len(s)-1]
	default:
		return 0, fmt.Errorf("css: time %q has no unit", s)
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(numPart), 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("css: malformed time %q", s)
	}
	return sim.Duration(f * mult), nil
}

// Transition is one parsed "transition: <property> <duration>" entry.
type Transition struct {
	Property string
	Duration sim.Duration
}

// ParseTransitions parses a transition shorthand value, e.g.
// "width 2s, height 500ms". Entries without a valid duration are skipped.
func ParseTransitions(value string) []Transition {
	var out []Transition
	for _, part := range strings.Split(value, ",") {
		fields := strings.Fields(part)
		if len(fields) < 2 {
			continue
		}
		d, err := ParseDuration(fields[1])
		if err != nil {
			continue
		}
		out = append(out, Transition{Property: strings.ToLower(fields[0]), Duration: d})
	}
	return out
}
