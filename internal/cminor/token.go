// Package cminor implements the C-subset intermediate language on which
// qualifier checking operates. It plays the role CIL plays in the paper
// (section 3): programs are parsed into an AST that cleanly separates
// side-effect-free expressions from instructions, and memory allocation
// (malloc) appears only in instruction position, where qualifier rules can
// match it as the pattern "new".
package cminor

import "fmt"

// TokenKind enumerates lexical token kinds.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokInt
	TokString
	TokChar

	// Keywords
	TokKwInt
	TokKwChar
	TokKwVoid
	TokKwStruct
	TokKwIf
	TokKwElse
	TokKwWhile
	TokKwFor
	TokKwReturn
	TokKwBreak
	TokKwContinue
	TokKwSizeof
	TokKwNull

	// Punctuation and operators
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokLBracket
	TokRBracket
	TokSemi
	TokComma
	TokDot
	TokArrow
	TokEllipsis

	TokAssign
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokAmp
	TokBang
	TokEq
	TokNe
	TokLt
	TokLe
	TokGt
	TokGe
	TokAndAnd
	TokOrOr
	TokPlusPlus
	TokMinusMinus
	TokPlusAssign
	TokMinusAssign
)

var tokenNames = map[TokenKind]string{
	TokEOF: "end of file", TokIdent: "identifier", TokInt: "integer literal",
	TokString: "string literal", TokChar: "character literal",
	TokKwInt: "'int'", TokKwChar: "'char'", TokKwVoid: "'void'",
	TokKwStruct: "'struct'", TokKwIf: "'if'", TokKwElse: "'else'",
	TokKwWhile: "'while'", TokKwFor: "'for'", TokKwReturn: "'return'",
	TokKwBreak: "'break'", TokKwContinue: "'continue'", TokKwSizeof: "'sizeof'",
	TokKwNull: "'NULL'",
	TokLParen: "'('", TokRParen: "')'", TokLBrace: "'{'", TokRBrace: "'}'",
	TokLBracket: "'['", TokRBracket: "']'", TokSemi: "';'", TokComma: "','",
	TokDot: "'.'", TokArrow: "'->'", TokEllipsis: "'...'",
	TokAssign: "'='", TokPlus: "'+'", TokMinus: "'-'", TokStar: "'*'",
	TokSlash: "'/'", TokPercent: "'%'", TokAmp: "'&'", TokBang: "'!'",
	TokEq: "'=='", TokNe: "'!='", TokLt: "'<'", TokLe: "'<='",
	TokGt: "'>'", TokGe: "'>='", TokAndAnd: "'&&'", TokOrOr: "'||'",
	TokPlusPlus: "'++'", TokMinusMinus: "'--'",
	TokPlusAssign: "'+='", TokMinusAssign: "'-='",
}

func (k TokenKind) String() string {
	if s, ok := tokenNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// keyword returns the keyword kind spelled by an identifier's text, or
// TokIdent.
func keyword(text string) TokenKind {
	switch text {
	case "int":
		return TokKwInt
	case "char":
		return TokKwChar
	case "void":
		return TokKwVoid
	case "struct":
		return TokKwStruct
	case "if":
		return TokKwIf
	case "else":
		return TokKwElse
	case "while":
		return TokKwWhile
	case "for":
		return TokKwFor
	case "return":
		return TokKwReturn
	case "break":
		return TokKwBreak
	case "continue":
		return TokKwContinue
	case "sizeof":
		return TokKwSizeof
	case "NULL":
		return TokKwNull
	}
	return TokIdent
}

// Pos is a source position.
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a lexical token: 40 bytes, so the parser copies it cheaply. It
// carries its line and column but not its file, which the lexer and parser
// hold once; Parser.posOf makes a node's Pos from it.
type Token struct {
	Kind      TokenKind
	Line, Col int32
	Text      string // identifier spelling, integer literal text, decoded string value
	Int       int64  // value for TokInt and TokChar
}
