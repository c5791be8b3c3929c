package cminor

import "testing"

func TestLexBasics(t *testing.T) {
	toks, err := LexAll("t.c", "int x = 42;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokKwInt, TokIdent, TokAssign, TokInt, TokSemi, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
	if toks[3].Int != 42 {
		t.Errorf("literal = %d, want 42", toks[3].Int)
	}
}

func TestLexOperators(t *testing.T) {
	src := "== != <= >= && || -> ++ -- += -= ... = < > + - * / % & ! . ,"
	toks, err := LexAll("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{
		TokEq, TokNe, TokLe, TokGe, TokAndAnd, TokOrOr, TokArrow,
		TokPlusPlus, TokMinusMinus, TokPlusAssign, TokMinusAssign, TokEllipsis,
		TokAssign, TokLt, TokGt, TokPlus, TokMinus, TokStar, TokSlash,
		TokPercent, TokAmp, TokBang, TokDot, TokComma, TokEOF,
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexCommentsAndPreprocessor(t *testing.T) {
	src := "#include <stdio.h>\n// line comment\n/* block\ncomment */ int x;"
	toks, err := LexAll("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokKwInt {
		t.Errorf("first token = %s, want int", toks[0].Kind)
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := LexAll("t.c", `"a\nb\"c"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "a\nb\"c" {
		t.Errorf("string = %q", toks[0].Text)
	}
}

func TestLexCharLiteral(t *testing.T) {
	toks, err := LexAll("t.c", `'a' '\n' '\0'`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Int != 'a' || toks[1].Int != '\n' || toks[2].Int != 0 {
		t.Errorf("chars = %d %d %d", toks[0].Int, toks[1].Int, toks[2].Int)
	}
}

func TestLexHexAndSuffixes(t *testing.T) {
	toks, err := LexAll("t.c", "0x10 42L 7U")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Int != 16 || toks[1].Int != 42 || toks[2].Int != 7 {
		t.Errorf("values = %d %d %d", toks[0].Int, toks[1].Int, toks[2].Int)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("t.c", "int\n  x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("x position = %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "'a", "@", "/* unterminated"} {
		if _, err := LexAll("t.c", src); err == nil {
			t.Errorf("LexAll(%q) succeeded, want error", src)
		}
	}
}

func TestLexNULLKeyword(t *testing.T) {
	toks, err := LexAll("t.c", "NULL null")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokKwNull {
		t.Errorf("NULL lexed as %s", toks[0].Kind)
	}
	if toks[1].Kind != TokIdent {
		t.Errorf("null (lowercase) lexed as %s, want identifier", toks[1].Kind)
	}
}
