package cminor

import (
	"fmt"
	"strconv"
	"strings"
)

// Lexer tokenizes cminor source text. Comments (// and /* */) and
// preprocessor-style lines beginning with '#' are skipped, so corpora can
// carry #include-looking headers for realism.
//
// Columns count bytes from 1. The lexer keeps the offset at which the
// current line starts, so a column is pos-lineStart+1 and only a newline
// updates the line state.
type Lexer struct {
	src       string
	file      string
	pos       int
	line      int
	lineStart int
}

// NewLexer creates a lexer over src; file is used in positions.
func NewLexer(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1}
}

func (l *Lexer) at(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

// newline notes that the byte before pos was a '\n'.
func (l *Lexer) newline() {
	l.line++
	l.lineStart = l.pos
}

func (l *Lexer) here() Pos { return Pos{File: l.file, Line: l.line, Col: l.pos - l.lineStart + 1} }

func (l *Lexer) skipTrivia() error {
	src := l.src
	for l.pos < len(src) {
		switch src[l.pos] {
		case ' ', '\t', '\r':
			l.pos++
		case '\n':
			l.pos++
			l.newline()
		case '#':
			if l.pos != l.lineStart {
				return nil
			}
			l.skipLine()
		case '/':
			switch l.at(1) {
			case '/':
				l.skipLine()
			case '*':
				start := l.here()
				l.pos += 2
				for {
					if l.pos >= len(src) {
						return fmt.Errorf("%s: unterminated block comment", start)
					}
					c := src[l.pos]
					l.pos++
					if c == '\n' {
						l.newline()
					} else if c == '*' && l.pos < len(src) && src[l.pos] == '/' {
						l.pos++
						break
					}
				}
			default:
				return nil
			}
		default:
			return nil
		}
	}
	return nil
}

// skipLine moves to the next '\n', leaving it unread.
func (l *Lexer) skipLine() {
	if i := strings.IndexByte(l.src[l.pos:], '\n'); i >= 0 {
		l.pos += i
	} else {
		l.pos = len(l.src)
	}
}

// identPart marks the bytes that may continue an identifier (and make up a
// number's spelling).
var identPart = func() (t [256]bool) {
	for c := range t {
		t[c] = isIdentStart(byte(c)) || (c >= '0' && c <= '9')
	}
	return t
}()

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	var t Token
	err := l.scan(&t)
	return t, err
}

// scan reads the next token into t.
func (l *Lexer) scan(t *Token) error {
	if err := l.skipTrivia(); err != nil {
		return err
	}
	src := l.src
	start := l.pos
	*t = Token{Line: int32(l.line), Col: int32(start - l.lineStart + 1)}
	if start >= len(src) {
		return nil // TokEOF
	}
	c := src[start]
	if isIdentStart(c) {
		l.pos++
		for l.pos < len(src) && identPart[src[l.pos]] {
			l.pos++
		}
		t.Text = src[start:l.pos]
		t.Kind = keyword(t.Text)
		return nil
	}
	if c >= '0' && c <= '9' {
		return l.number(t)
	}
	switch c {
	case '"':
		return l.str(t)
	case '\'':
		return l.char(t)
	case '(':
		t.Kind = TokLParen
	case ')':
		t.Kind = TokRParen
	case '{':
		t.Kind = TokLBrace
	case '}':
		t.Kind = TokRBrace
	case '[':
		t.Kind = TokLBracket
	case ']':
		t.Kind = TokRBracket
	case ';':
		t.Kind = TokSemi
	case ',':
		t.Kind = TokComma
	case '.':
		t.Kind = TokDot
		if l.at(1) == '.' && l.at(2) == '.' {
			t.Kind = TokEllipsis
			l.pos += 2
		}
	case '+':
		t.Kind = TokPlus
		if l.follow('+') {
			t.Kind = TokPlusPlus
		} else if l.follow('=') {
			t.Kind = TokPlusAssign
		}
	case '-':
		t.Kind = TokMinus
		if l.follow('>') {
			t.Kind = TokArrow
		} else if l.follow('-') {
			t.Kind = TokMinusMinus
		} else if l.follow('=') {
			t.Kind = TokMinusAssign
		}
	case '*':
		t.Kind = TokStar
	case '/':
		t.Kind = TokSlash
	case '%':
		t.Kind = TokPercent
	case '&':
		t.Kind = TokAmp
		if l.follow('&') {
			t.Kind = TokAndAnd
		}
	case '|':
		if !l.follow('|') {
			return fmt.Errorf("%s: unexpected character %q", l.here(), string(c))
		}
		t.Kind = TokOrOr
	case '!':
		t.Kind = TokBang
		if l.follow('=') {
			t.Kind = TokNe
		}
	case '=':
		t.Kind = TokAssign
		if l.follow('=') {
			t.Kind = TokEq
		}
	case '<':
		t.Kind = TokLt
		if l.follow('=') {
			t.Kind = TokLe
		}
	case '>':
		t.Kind = TokGt
		if l.follow('=') {
			t.Kind = TokGe
		}
	default:
		return fmt.Errorf("%s: unexpected character %q", l.here(), string(c))
	}
	l.pos++
	return nil
}

// follow consumes the byte after the one at pos when it is c, making a
// two-byte punctuator.
func (l *Lexer) follow(c byte) bool {
	if l.at(1) != c {
		return false
	}
	l.pos++
	return true
}

// number scans an integer literal: decimal or 0x hexadecimal, with any C
// suffix of U and L letters.
func (l *Lexer) number(t *Token) error {
	src := l.src
	start := l.pos
	base := 10
	if src[start] == '0' && (l.at(1) == 'x' || l.at(1) == 'X') {
		base = 16
		l.pos += 2
	}
	digits := true
	for l.pos < len(src) && identPart[src[l.pos]] {
		digits = digits && src[l.pos] >= '0' && src[l.pos] <= '9'
		l.pos++
	}
	text := src[start:l.pos]
	t.Kind, t.Text = TokInt, text
	if base == 10 && digits && len(text) <= 18 {
		// At most 18 decimal digits cannot overflow an int64.
		var v int64
		for i := 0; i < len(text); i++ {
			v = v*10 + int64(text[i]-'0')
		}
		t.Int = v
		return nil
	}
	parseText := text
	if base == 16 {
		parseText = text[2:]
	}
	// Tolerate C suffixes (U, L).
	parseText = strings.TrimRight(parseText, "uUlL")
	v, err := strconv.ParseInt(parseText, base, 64)
	if err != nil {
		pos := Pos{File: l.file, Line: l.line, Col: start - l.lineStart + 1}
		return fmt.Errorf("%s: bad integer literal %q", pos, text)
	}
	t.Int = v
	return nil
}

// str scans a string literal; its Text is the decoded value. A literal
// without escapes is a substring of the source.
func (l *Lexer) str(t *Token) error {
	src := l.src
	pos := l.here()
	l.pos++
	start := l.pos
	for l.pos < len(src) {
		switch src[l.pos] {
		case '"':
			t.Kind, t.Text = TokString, src[start:l.pos]
			l.pos++
			return nil
		case '\\':
			return l.strEscaped(t, pos, start)
		case '\n':
			l.pos++
			l.newline()
		default:
			l.pos++
		}
	}
	return fmt.Errorf("%s: unterminated string literal", pos)
}

// strEscaped finishes a string literal, begun at pos with its contents at
// start, whose first escape is at the current offset.
func (l *Lexer) strEscaped(t *Token, pos Pos, start int) error {
	src := l.src
	var sb strings.Builder
	sb.WriteString(src[start:l.pos])
	for {
		if l.pos >= len(src) {
			return fmt.Errorf("%s: unterminated string literal", pos)
		}
		ch := l.advance()
		if ch == '"' {
			break
		}
		if ch == '\\' {
			if l.pos >= len(src) {
				return fmt.Errorf("%s: unterminated escape", pos)
			}
			sb.WriteByte(unescape(l.advance()))
			continue
		}
		sb.WriteByte(ch)
	}
	t.Kind, t.Text = TokString, sb.String()
	return nil
}

// advance consumes one byte of a string or character literal.
func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.newline()
	}
	return c
}

// char scans a character literal.
func (l *Lexer) char(t *Token) error {
	pos := l.here()
	l.pos++
	if l.pos >= len(l.src) {
		return fmt.Errorf("%s: unterminated character literal", pos)
	}
	ch := l.advance()
	if ch == '\\' {
		if l.pos >= len(l.src) {
			return fmt.Errorf("%s: unterminated escape", pos)
		}
		ch = unescape(l.advance())
	}
	if l.pos >= len(l.src) || l.advance() != '\'' {
		return fmt.Errorf("%s: unterminated character literal", pos)
	}
	t.Kind, t.Int = TokChar, int64(ch)
	return nil
}

func unescape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	}
	return c
}

// LexAll tokenizes the entire input (testing helper).
func LexAll(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
