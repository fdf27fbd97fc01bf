// Package js implements a JavaScript-subset interpreter: a lexer, a Pratt
// parser producing an AST, and a bytecode compiler and VM with closures,
// objects, arrays, and a host-object protocol for browser bindings. A
// tree-walking evaluator over the same AST is the reference the VM is
// differentially tested against.
//
// The subset covers what mobile Web application logic needs — the paper's
// workloads are event callbacks that manipulate DOM state, register
// requestAnimationFrame callbacks, and run computational kernels. Notably,
// the interpreter meters its own execution: every evaluation step counts
// toward an operation total that the browser model converts into CPU cycles,
// so callback cost is program- and input-dependent rather than declared.
package js

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokKind classifies lexical tokens.
type TokKind int

const (
	// TokEOF marks the end of input.
	TokEOF TokKind = iota
	// TokIdent is an identifier.
	TokIdent
	// TokKeyword is a reserved word.
	TokKeyword
	// TokNumber is a numeric literal.
	TokNumber
	// TokString is a string literal (already unquoted).
	TokString
	// TokPunct is an operator or punctuation mark.
	TokPunct
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "eof"
	case TokIdent:
		return "identifier"
	case TokKeyword:
		return "keyword"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokPunct:
		return "punctuation"
	default:
		return "unknown"
	}
}

// Token is one lexical unit with its source position.
type Token struct {
	Kind TokKind
	Text string
	Num  float64
	Line int
	Col  int
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

var keywords = map[string]bool{
	"var": true, "let": true, "const": true, "function": true,
	"return": true, "if": true, "else": true, "while": true, "for": true,
	"break": true, "continue": true, "true": true, "false": true,
	"null": true, "undefined": true, "this": true, "typeof": true,
	"new": true, "throw": true, "do": true, "in": true, "of": true,
	"switch": true, "case": true, "default": true,
	"try": true, "catch": true, "finally": true, "delete": true,
}

// SyntaxError reports a lexing or parsing failure with position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("js: syntax error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Lexer turns source text into tokens.
type Lexer struct {
	src       string
	pos       int
	line, col int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the whole input.
func Lex(src string) ([]Token, error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (l *Lexer) errorf(format string, args ...any) error {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) advance(n int) {
	for i := 0; i < n && l.pos < len(l.src); i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.advance(1)
		case strings.HasPrefix(l.src[l.pos:], "//"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return l.errorf("unterminated block comment")
			}
			l.advance(end + 4)
		default:
			return nil
		}
	}
	return nil
}

// puncts are matched longest-first.
var puncts = []string{
	"===", "!==", "<<", ">>", "&&", "||", "==", "!=", "<=", ">=", "++", "--",
	"+=", "-=", "*=", "/=", "%=",
	"{", "}", "(", ")", "[", "]", ";", ",", ".", "?", ":",
	"+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: line, Col: col}, nil
	}
	c := l.src[l.pos]

	// Identifier or keyword.
	if isIdentStart(rune(c)) {
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.advance(1)
		}
		text := l.src[start:l.pos]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Line: line, Col: col}, nil
	}

	// Number.
	if c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
		return l.number(line, col)
	}

	// String.
	if c == '"' || c == '\'' {
		return l.str(line, col)
	}

	// Punctuation.
	for _, p := range puncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			l.advance(len(p))
			return Token{Kind: TokPunct, Text: p, Line: line, Col: col}, nil
		}
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return Token{}, l.errorf("unexpected character %q", r)
}

func (l *Lexer) number(line, col int) (Token, error) {
	start := l.pos
	seenDot, seenExp := false, false
	if strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X") {
		l.advance(2)
		hexStart := l.pos
		for l.pos < len(l.src) && isHex(l.src[l.pos]) {
			l.advance(1)
		}
		if l.pos == hexStart {
			return Token{}, l.errorf("malformed hex literal")
		}
		var v float64
		for _, d := range l.src[hexStart:l.pos] {
			v = v*16 + float64(hexVal(byte(d)))
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Num: v, Line: line, Col: col}, nil
	}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.advance(1)
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.advance(1)
		case (c == 'e' || c == 'E') && !seenExp:
			seenExp = true
			l.advance(1)
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.advance(1)
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	var v float64
	if _, err := fmt.Sscanf(text, "%g", &v); err != nil {
		return Token{}, l.errorf("malformed number %q", text)
	}
	return Token{Kind: TokNumber, Text: text, Num: v, Line: line, Col: col}, nil
}

func (l *Lexer) str(line, col int) (Token, error) {
	quote := l.src[l.pos]
	l.advance(1)
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			l.advance(1)
			return Token{Kind: TokString, Text: b.String(), Line: line, Col: col}, nil
		}
		if c == '\n' {
			return Token{}, l.errorf("newline in string literal")
		}
		if c == '\\' {
			if l.pos+1 >= len(l.src) {
				return Token{}, l.errorf("unterminated escape")
			}
			esc := l.src[l.pos+1]
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\', '\'', '"':
				b.WriteByte(esc)
			case '0':
				b.WriteByte(0)
			default:
				b.WriteByte(esc)
			}
			l.advance(2)
			continue
		}
		b.WriteByte(c)
		l.advance(1)
	}
	return Token{}, l.errorf("unterminated string literal")
}

func isIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || unicode.IsDigit(r)
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}
