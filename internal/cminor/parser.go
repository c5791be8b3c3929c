package cminor

import (
	"fmt"
	"strings"
)

// Parser parses cminor source into a Program. The parser must know the set
// of declared qualifier names to resolve the postfix annotation syntax
// (e.g. "int pos x" declares x of type int qualified by pos only when pos is
// a registered qualifier; otherwise pos is a variable name). This mirrors
// the paper's use of gcc attributes behind macros: the macro table there is
// the registry here.
type Parser struct {
	lex Lexer
	tok Token
	// ahead holds the nahead tokens peek has read past tok.
	ahead  [2]Token
	nahead int
	quals  map[string]bool
	depth  int

	// blockEnd is the '}' that closed the block parsed last; a function's
	// body is the last block its definition parses.
	blockEnd Token

	// stmts, params and args are stacks on which the statements of the
	// open blocks, the parameters of a function and the arguments of the
	// open calls collect; each list is copied off at its exact length when
	// it closes (see popFrom). decls holds the declarators of the
	// declaration parsed last.
	stmts  []Stmt
	params []Param
	args   []Expr
	decls  []declarator
	// calls counts the call nodes built so far. A call may only be a whole
	// statement or a whole right-hand side, so every other expression site
	// is a window (openCalls/closeCalls) that refuses the first call built
	// in it; callMark is calls when the innermost open window began, and
	// firstCall is the first call built since then.
	calls     int
	callMark  int
	firstCall *callExpr
	// lines and lineOff are the span cursor: line lines+1 starts at byte
	// lineOff. Functions come in source order, so it only moves forward.
	lines   int
	lineOff int

	// nodes is the last node number given (see NodeID).
	nodes NodeID
}

// MaxSourceBytes caps the size of one translation unit. The checker is
// exposed to untrusted sources through qualserve, and parse structures are a
// small multiple of the input size, so the cap is the first line of memory
// defense (the HTTP layer enforces its own request-body bound).
const MaxSourceBytes = 4 << 20

// maxNestingDepth caps the parser's recursion (nested expressions, blocks,
// statements). The recursive-descent grammar recurses once per nesting
// level, so a crafted "((((..." would otherwise overflow the goroutine stack
// — a panic no recover can catch. Deeper nesting returns a diagnostic.
const maxNestingDepth = 1000

// enter guards one recursion level; the caller decrements depth when the
// level returns. An error ends the parse, so an error return need not.
func (p *Parser) enter() error {
	p.depth++
	if p.depth > maxNestingDepth {
		return p.errf("nesting exceeds the maximum depth of %d", maxNestingDepth)
	}
	return nil
}

// popFrom returns a copy of the entries of stack from mark on, nil when
// there are none, and truncates stack to mark.
func popFrom[T any](stack *[]T, mark int) []T {
	s := *stack
	*stack = s[:mark]
	if len(s) == mark {
		return nil
	}
	return append([]T(nil), s[mark:]...)
}

// id gives the next node number. Constructors number a node after its
// children, so a wrapper discarded right after it was built holds the newest
// number and unwrapLValue can take it back.
func (p *Parser) id() NodeID {
	p.nodes++
	return p.nodes
}

// Parse parses a translation unit. qualNames is the set of user-defined
// qualifier names in scope.
func Parse(file, src string, qualNames map[string]bool) (*Program, error) {
	if len(src) > MaxSourceBytes {
		return nil, fmt.Errorf("%s: source is %d bytes; the limit is %d", file, len(src), MaxSourceBytes)
	}
	p := &Parser{lex: Lexer{src: src, file: file, line: 1}, quals: qualNames}
	if p.quals == nil {
		p.quals = map[string]bool{}
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	prog := &Program{File: file}
	for p.tok.Kind != TokEOF {
		if err := p.parseTopLevel(prog); err != nil {
			return nil, err
		}
	}
	prog.Nodes = p.nodes
	return prog, nil
}

func (p *Parser) next() error {
	if p.nahead > 0 {
		p.tok = p.ahead[0]
		p.ahead[0] = p.ahead[1]
		p.nahead--
		return nil
	}
	return p.lex.scan(&p.tok)
}

// peek returns the kind of the token n places past the current one; n is 1
// or 2.
func (p *Parser) peek(n int) (TokenKind, error) {
	for p.nahead < n {
		if err := p.lex.scan(&p.ahead[p.nahead]); err != nil {
			return 0, err
		}
		p.nahead++
	}
	return p.ahead[n-1].Kind, nil
}

// posOf is the position of token t.
func (p *Parser) posOf(t *Token) Pos {
	return Pos{File: p.lex.file, Line: int(t.Line), Col: int(t.Col)}
}

// pos is the position of the current token.
func (p *Parser) pos() Pos { return p.posOf(&p.tok) }

// span returns the source from the start of line startLine through the
// one-byte token end. The lexer counts columns in bytes, so end sits at its
// line's offset plus Col-1.
func (p *Parser) span(startLine int, end *Token) string {
	start := p.lineOffset(startLine)
	return p.lex.src[start : p.lineOffset(int(end.Line))+int(end.Col)]
}

// lineOffset returns the byte offset at which line starts. Calls must come
// in non-decreasing line order.
func (p *Parser) lineOffset(line int) int {
	for p.lines+1 < line {
		p.lineOff += strings.IndexByte(p.lex.src[p.lineOff:], '\n') + 1
		p.lines++
	}
	return p.lineOff
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%s: %s", p.pos(), fmt.Sprintf(format, args...))
}

func (p *Parser) expect(k TokenKind) (Token, error) {
	if p.tok.Kind != k {
		return Token{}, p.errf("expected %s, found %s", k, p.tok.Kind)
	}
	t := p.tok
	if err := p.next(); err != nil {
		return Token{}, err
	}
	return t, nil
}

func (p *Parser) accept(k TokenKind) (bool, error) {
	if p.tok.Kind != k {
		return false, nil
	}
	return true, p.next()
}

// isTypeStart reports whether the current token can begin a type.
func (p *Parser) isTypeStart() bool {
	switch p.tok.Kind {
	case TokKwInt, TokKwChar, TokKwVoid, TokKwStruct:
		return true
	}
	return false
}

// parseType parses a base type followed by any number of '*' and postfix
// qualifier names; each '*' points to the type built so far and each
// qualifier qualifies the type built so far ("a qualifier qualifies the
// entire type to its left").
func (p *Parser) parseType() (Type, error) {
	var t Type
	switch p.tok.Kind {
	case TokKwInt:
		t = IntType{}
	case TokKwChar:
		t = CharType{}
	case TokKwVoid:
		t = VoidType{}
	case TokKwStruct:
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		t = StructType{Name: name.Text}
		return p.parseTypeSuffix(t)
	default:
		return nil, p.errf("expected a type, found %s", p.tok.Kind)
	}
	if err := p.next(); err != nil {
		return nil, err
	}
	return p.parseTypeSuffix(t)
}

func (p *Parser) parseTypeSuffix(t Type) (Type, error) {
	for {
		switch {
		case p.tok.Kind == TokStar:
			if err := p.next(); err != nil {
				return nil, err
			}
			t = PointerType{Elem: t}
		case p.tok.Kind == TokIdent && p.quals[p.tok.Text]:
			t = Qualify(t, p.tok.Text)
			if err := p.next(); err != nil {
				return nil, err
			}
		default:
			return t, nil
		}
	}
}

func (p *Parser) parseTopLevel(prog *Program) error {
	// struct definition: struct Name { ... };
	if p.tok.Kind == TokKwStruct {
		k, err := p.peek(2)
		if err != nil {
			return err
		}
		if k == TokLBrace {
			def, err := p.parseStructDef()
			if err != nil {
				return err
			}
			prog.Structs = append(prog.Structs, def)
			return nil
		}
	}
	if !p.isTypeStart() {
		return p.errf("expected a declaration, found %s", p.tok.Kind)
	}
	startLine := int(p.tok.Line)
	typ, err := p.parseType()
	if err != nil {
		return err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	if p.tok.Kind == TokLParen {
		fn, err := p.parseFuncRest(typ, name, startLine)
		if err != nil {
			return err
		}
		prog.Funcs = append(prog.Funcs, fn)
		return nil
	}
	// Global variable declaration(s).
	decls, err := p.parseDeclarators(typ, name)
	if err != nil {
		return err
	}
	for _, d := range decls {
		if d.call != nil {
			return d.call.misplaced()
		}
		prog.Globals = append(prog.Globals, d.VarDecl)
	}
	return nil
}

func (p *Parser) parseStructDef() (*StructDef, error) {
	pos := p.pos()
	if _, err := p.expect(TokKwStruct); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	def := &StructDef{Pos: pos, Name: name.Text}
	for p.tok.Kind != TokRBrace {
		ft, err := p.parseType()
		if err != nil {
			return nil, err
		}
		for {
			fname, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			fieldType := ft
			if p.tok.Kind == TokLBracket {
				if err := p.next(); err != nil {
					return nil, err
				}
				size, err := p.expect(TokInt)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokRBracket); err != nil {
					return nil, err
				}
				fieldType = ArrayType{Elem: ft, Size: size.Int}
			}
			def.Fields = append(def.Fields, Field{Pos: p.posOf(&fname), Name: fname.Text, Type: fieldType})
			ok, err := p.accept(TokComma)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return def, nil
}

// parseDeclarators parses the remainder of a variable declaration after the
// type and first name, handling arrays, initializers, and comma-separated
// declarator lists; it consumes the trailing ';'. The returned slice is the
// parser's and the next call reuses it.
func (p *Parser) parseDeclarators(typ Type, first Token) ([]declarator, error) {
	out := p.decls[:0]
	name := first
	for {
		declType := typ
		if p.tok.Kind == TokLBracket {
			if err := p.next(); err != nil {
				return nil, err
			}
			size, err := p.expect(TokInt)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			// Array of the unqualified element; top-level qualifiers of typ
			// apply to the array's elements in our model.
			declType = ArrayType{Elem: typ, Size: size.Int}
		}
		decl := &VarDecl{Pos: p.posOf(&name), Name: name.Text, Type: declType}
		ok, err := p.accept(TokAssign)
		if err != nil {
			return nil, err
		}
		var call *callExpr
		if ok {
			outer := p.openCalls()
			init, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			decl.Init = init // calls are split out or rejected by the caller
			call = p.closeCalls(outer)
		}
		out = append(out, declarator{decl, call})
		ok, err = p.accept(TokComma)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		name, err = p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
	}
	p.decls = out
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return out, nil
}

// declarator is a parsed declarator and the first call its initializer
// built, or nil.
type declarator struct {
	*VarDecl
	call *callExpr
}

// parseFuncRest parses a function definition or prototype from its '('
// on; startLine is the line of the declaration's first token.
func (p *Parser) parseFuncRest(result Type, name Token, startLine int) (*FuncDef, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	fn := &FuncDef{Pos: p.posOf(&name), Name: name.Text, Result: result}
	mark := len(p.params)
	if p.tok.Kind == TokKwVoid {
		// void parameter list: f(void)
		k, err := p.peek(1)
		if err != nil {
			return nil, err
		}
		if k == TokRParen {
			if err := p.next(); err != nil {
				return nil, err
			}
		}
	}
	for p.tok.Kind != TokRParen {
		if p.tok.Kind == TokEllipsis {
			fn.Variadic = true
			if err := p.next(); err != nil {
				return nil, err
			}
			break
		}
		pt, err := p.parseType()
		if err != nil {
			return nil, err
		}
		pname, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		// Qualifiers may also follow the parameter name in the paper's
		// examples (e.g. "int pos n" parses via parseType; but "char *
		// untainted format" has them before the name already).
		p.params = append(p.params, Param{Pos: p.posOf(&pname), Name: pname.Text, Type: pt})
		ok, err := p.accept(TokComma)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	fn.Params = popFrom(&p.params, mark)
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if p.tok.Kind == TokSemi {
		fn.Src = p.span(startLine, &p.tok)
		return fn, p.next() // prototype
	}
	lo := p.nodes + 1
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	fn.Src = p.span(startLine, &p.blockEnd)
	fn.Nodes = NodeRange{Lo: lo, Hi: p.nodes + 1}
	return fn, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	pos := p.pos()
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	b := &Block{Pos: pos}
	mark := len(p.stmts)
	for p.tok.Kind != TokRBrace {
		if err := p.parseStmt(); err != nil {
			return nil, err
		}
	}
	b.Stmts = popFrom(&p.stmts, mark)
	p.blockEnd = p.tok
	return b, p.next()
}

// parseStmt parses one statement and pushes it on the statement stack, on
// the enclosing block's list: a declaration pushes a DeclStmt per
// declarator, each followed by the call instruction of a call initializer.
func (p *Parser) parseStmt() error {
	if err := p.enter(); err != nil {
		return err
	}
	var s Stmt
	var err error
	if p.isTypeStart() {
		err = p.parseLocalDecl()
	} else if s, err = p.parseOneStmt(); err == nil {
		p.stmts = append(p.stmts, s)
	}
	p.depth--
	return err
}

// parseBody parses the statement governed by the if, else, while or for at
// pos. A declaration that expands to several statements becomes a Block of
// them.
func (p *Parser) parseBody(pos Pos) (Stmt, error) {
	mark := len(p.stmts)
	if err := p.parseStmt(); err != nil {
		return nil, err
	}
	if len(p.stmts) == mark+1 {
		s := p.stmts[mark]
		p.stmts = p.stmts[:mark]
		return s, nil
	}
	return &Block{Pos: pos, Stmts: popFrom(&p.stmts, mark)}, nil
}

// parseOneStmt parses a statement that is not a declaration.
func (p *Parser) parseOneStmt() (Stmt, error) {
	pos := p.pos()
	switch p.tok.Kind {
	case TokLBrace:
		b, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return b, nil
	case TokSemi:
		return &Block{Pos: pos}, p.next()
	case TokKwIf:
		if err := p.next(); err != nil {
			return nil, err
		}
		cond, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		then, err := p.parseBody(pos)
		if err != nil {
			return nil, err
		}
		stmt := &If{Pos: pos, Cond: cond, Then: then}
		ok, err := p.accept(TokKwElse)
		if err != nil {
			return nil, err
		}
		if ok {
			if stmt.Else, err = p.parseBody(pos); err != nil {
				return nil, err
			}
		}
		return stmt, nil
	case TokKwWhile:
		if err := p.next(); err != nil {
			return nil, err
		}
		cond, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBody(pos)
		if err != nil {
			return nil, err
		}
		return &While{Pos: pos, Cond: cond, Body: body}, nil
	case TokKwFor:
		return p.parseFor()
	case TokKwReturn:
		if err := p.next(); err != nil {
			return nil, err
		}
		stmt := &Return{Pos: pos}
		if p.tok.Kind != TokSemi {
			x, err := p.parseCallFree()
			if err != nil {
				return nil, err
			}
			stmt.X = x
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return stmt, nil
	case TokKwBreak:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &Break{Pos: pos}, nil
	case TokKwContinue:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &Continue{Pos: pos}, nil
	}
	return p.parseSimpleStmt(true)
}

// parseCond parses the parenthesized condition of an if or while.
func (p *Parser) parseCond() (Expr, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseCallFree()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return cond, nil
}

// parseLocalDecl parses a local declaration and pushes its statements on
// the statement stack.
func (p *Parser) parseLocalDecl() error {
	typ, err := p.parseType()
	if err != nil {
		return err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return err
	}
	decls, err := p.parseDeclarators(typ, name)
	if err != nil {
		return err
	}
	for _, d := range decls {
		// Call initializers are split CIL-style into a declaration plus
		// a call instruction (figure 2's "int pos d = gcd(a, b);").
		if d.call != nil {
			init := d.Init
			d.Init = nil
			p.stmts = append(p.stmts, &DeclStmt{Pos: d.Pos, Decl: d.VarDecl})
			lv := &VarLV{Pos: d.Pos, Name: d.Name, id: p.id()}
			instr, err := p.assignOrCall(d.Pos, lv, init, d.call)
			if err != nil {
				return err
			}
			p.stmts = append(p.stmts, &InstrStmt{Pos: d.Pos, Instr: instr})
			continue
		}
		p.stmts = append(p.stmts, &DeclStmt{Pos: d.Pos, Decl: d.VarDecl})
	}
	return nil
}

func (p *Parser) parseFor() (Stmt, error) {
	pos := p.pos()
	if err := p.next(); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	f := &For{Pos: pos}
	if p.tok.Kind != TokSemi {
		if p.isTypeStart() {
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			decls, err := p.parseDeclarators(typ, name) // consumes ';'
			if err != nil {
				return nil, err
			}
			if len(decls) != 1 {
				return nil, fmt.Errorf("%s: for-init must declare one variable", pos)
			}
			if c := decls[0].call; c != nil {
				return nil, c.misplaced()
			}
			f.Init = &DeclStmt{Pos: decls[0].Pos, Decl: decls[0].VarDecl}
		} else {
			s, err := p.parseSimpleStmt(true)
			if err != nil {
				return nil, err
			}
			f.Init = s
		}
	} else if err := p.next(); err != nil {
		return nil, err
	}
	if p.tok.Kind != TokSemi {
		cond, err := p.parseCallFree()
		if err != nil {
			return nil, err
		}
		f.Cond = cond
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	if p.tok.Kind != TokRParen {
		s, err := p.parseSimpleStmt(false)
		if err != nil {
			return nil, err
		}
		f.Post = s
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	body, err := p.parseBody(pos)
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// parseSimpleStmt parses an assignment, call, or increment statement. When
// wantSemi is true the trailing ';' is consumed.
func (p *Parser) parseSimpleStmt(wantSemi bool) (Stmt, error) {
	pos := p.pos()
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var instr Instr
	switch p.tok.Kind {
	case TokAssign:
		lv, err := p.unwrapLValue(e)
		if err != nil {
			return nil, err
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		outer := p.openCalls()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		instr, err = p.assignOrCall(pos, lv, rhs, p.closeCalls(outer))
		if err != nil {
			return nil, err
		}
	case TokPlusPlus, TokMinusMinus:
		op := BAdd
		if p.tok.Kind == TokMinusMinus {
			op = BSub
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		lv, err := exprToLValue(e)
		if err != nil {
			return nil, err
		}
		one := &IntLit{Pos: pos, Value: 1, id: p.id()}
		instr = &Assign{Pos: pos, LHS: lv, RHS: &Binop{Pos: pos, Op: op, L: e, R: one, id: p.id()}}
	case TokPlusAssign, TokMinusAssign:
		op := BAdd
		if p.tok.Kind == TokMinusAssign {
			op = BSub
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		rhs, err := p.parseCallFree()
		if err != nil {
			return nil, err
		}
		lv, err := exprToLValue(e)
		if err != nil {
			return nil, err
		}
		instr = &Assign{Pos: pos, LHS: lv, RHS: &Binop{Pos: pos, Op: op, L: e, R: rhs, id: p.id()}}
	default:
		// Standalone call.
		call, ok := e.(*callExpr)
		if !ok {
			return nil, fmt.Errorf("%s: expression used as a statement", pos)
		}
		instr = &CallInstr{Pos: pos, Fn: call.fn, Args: call.args}
	}
	if wantSemi {
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
	}
	return &InstrStmt{Pos: pos, Instr: instr}, nil
}

// assignOrCall builds the instruction for lv = rhs, turning call and malloc
// right-hand sides into CallInstr/NewExpr; first is the first call parsing rhs
// built, or nil.
func (p *Parser) assignOrCall(pos Pos, lv LValue, rhs Expr, first *callExpr) (Instr, error) {
	// Unwrap casts to find a call underneath (the paper: "the cast to int*
	// in the assignment to array is ignored for the purposes of pattern
	// matching" — we keep the cast but allow the call under it).
	if call, ok := rhs.(*callExpr); ok {
		if call.fn == "malloc" {
			if len(call.args) != 1 {
				return nil, fmt.Errorf("%s: malloc takes one argument", pos)
			}
			return &Assign{Pos: pos, LHS: lv, RHS: &NewExpr{Pos: call.pos, Size: call.args[0], id: p.id()}}, nil
		}
		return &CallInstr{Pos: pos, LHS: lv, Fn: call.fn, Args: call.args}, nil
	}
	if cast, ok := rhs.(*Cast); ok {
		if call, ok := cast.X.(*callExpr); ok {
			if call.fn == "malloc" {
				if len(call.args) != 1 {
					return nil, fmt.Errorf("%s: malloc takes one argument", pos)
				}
				cast.X = &NewExpr{Pos: call.pos, Size: call.args[0], id: p.id()}
				return &Assign{Pos: pos, LHS: lv, RHS: cast}, nil
			}
			return nil, fmt.Errorf("%s: calls cannot appear under casts; assign to a temporary first", pos)
		}
	}
	if first != nil {
		return nil, first.misplaced()
	}
	return &Assign{Pos: pos, LHS: lv, RHS: rhs}, nil
}

// callExpr is a parse-time-only node: calls are instructions, not
// expressions, so any callExpr surviving into an expression context is an
// error.
type callExpr struct {
	pos  Pos
	fn   string
	args []Expr
}

func (c *callExpr) isExpr()       {}
func (c *callExpr) ID() NodeID    { return 0 }
func (c *callExpr) Position() Pos { return c.pos }

// misplaced is the error for a call in an expression position.
func (c *callExpr) misplaced() error {
	return fmt.Errorf("%s: call to %s used in expression position; assign it to a temporary first", c.pos, c.fn)
}

// openCalls begins a call window for the expression parsed next and returns
// the enclosing window's mark, which closeCalls restores.
func (p *Parser) openCalls() (outer int) {
	outer, p.callMark = p.callMark, p.calls
	return outer
}

// closeCalls ends the window openCalls began and returns the first call built
// in it, or nil. A call's arguments are windows that refuse any call, so the
// first call of a window that built one is the one firstCall holds.
func (p *Parser) closeCalls(outer int) *callExpr {
	mark := p.callMark
	p.callMark = outer
	if p.calls == mark {
		return nil
	}
	return p.firstCall
}

// parseCallFree parses an expression that may hold no call.
func (p *Parser) parseCallFree() (Expr, error) {
	outer := p.openCalls()
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if c := p.closeCalls(outer); c != nil {
		return nil, c.misplaced()
	}
	return x, nil
}

// unwrapLValue is exprToLValue for a parsed expression whose LVExpr wrapper
// is dropped: it takes back the wrapper's number, which is the newest one, so
// the program's numbers stay dense.
func (p *Parser) unwrapLValue(e Expr) (LValue, error) {
	lv, err := exprToLValue(e)
	if err == nil && e.ID() == p.nodes {
		p.nodes--
	}
	return lv, err
}

// exprToLValue reinterprets a parsed expression as an assignment target.
func exprToLValue(e Expr) (LValue, error) {
	switch e := e.(type) {
	case *LVExpr:
		return e.LV, nil
	default:
		return nil, fmt.Errorf("%s: expression is not assignable", e.Position())
	}
}

// ---- Expressions ----

func (p *Parser) parseExpr() (Expr, error) { return p.parseBinary(1) }

// binop returns the binary operator kind k spells and its precedence, from
// 1 (||) to 6 (* / %); precedence 0 means k is no binary operator.
func binop(k TokenKind) (BinopKind, int) {
	switch k {
	case TokOrOr:
		return BOr, 1
	case TokAndAnd:
		return BAnd, 2
	case TokEq:
		return BEq, 3
	case TokNe:
		return BNe, 3
	case TokLt:
		return BLt, 4
	case TokLe:
		return BLe, 4
	case TokGt:
		return BGt, 4
	case TokGe:
		return BGe, 4
	case TokPlus:
		return BAdd, 5
	case TokMinus:
		return BSub, 5
	case TokStar:
		return BMul, 6
	case TokSlash:
		return BDiv, 6
	case TokPercent:
		return BMod, 6
	}
	return 0, 0
}

// parseBinary parses a chain of operands joined by binary operators of
// precedence minPrec or higher, by precedence climbing. Operators of one
// precedence associate to the left, and each Binop is numbered after both
// of its operands.
func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, prec := binop(p.tok.Kind)
		if prec < minPrec {
			return left, nil
		}
		pos := p.pos()
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &Binop{Pos: pos, Op: op, L: left, R: right, id: p.id()}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	x, err := p.unary()
	p.depth--
	return x, err
}

// unary is parseUnary inside its nesting guard.
func (p *Parser) unary() (Expr, error) {
	pos := p.pos()
	switch p.tok.Kind {
	case TokMinus:
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*IntLit); ok && !lit.IsChar {
			// Fold the negation into the literal, which keeps its number.
			lit.Pos, lit.Value = pos, -lit.Value
			return lit, nil
		}
		return &Unop{Pos: pos, Op: UNeg, X: x, id: p.id()}, nil
	case TokBang:
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unop{Pos: pos, Op: UNot, X: x, id: p.id()}, nil
	case TokStar:
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return p.lvExpr(pos, &DerefLV{Pos: pos, Addr: x, id: p.id()}), nil
	case TokAmp:
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		lv, err := p.unwrapLValue(x)
		if err != nil {
			return nil, err
		}
		return &AddrOf{Pos: pos, LV: lv, id: p.id()}, nil
	case TokKwSizeof:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return &SizeofExpr{Pos: pos, Type: t, id: p.id()}, nil
	case TokLParen:
		// Cast or parenthesized expression: a type keyword after '(' means
		// cast (there are no typedef names in cminor).
		k, err := p.peek(1)
		if err != nil {
			return nil, err
		}
		switch k {
		case TokKwInt, TokKwChar, TokKwVoid, TokKwStruct:
			if err := p.next(); err != nil {
				return nil, err
			}
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Cast{Pos: pos, Type: typ, X: x, id: p.id()}, nil
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return p.parsePostfix(x)
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	pos := p.pos()
	switch p.tok.Kind {
	case TokInt:
		v := p.tok.Int
		return &IntLit{Pos: pos, Value: v, id: p.id()}, p.next()
	case TokChar:
		v := p.tok.Int
		return &IntLit{Pos: pos, Value: v, IsChar: true, id: p.id()}, p.next()
	case TokString:
		s := p.tok.Text
		return &StrLit{Pos: pos, Value: s, id: p.id()}, p.next()
	case TokKwNull:
		return &NullLit{Pos: pos, id: p.id()}, p.next()
	case TokIdent:
		name := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind == TokLParen {
			// Call.
			if err := p.next(); err != nil {
				return nil, err
			}
			mark := len(p.args)
			for p.tok.Kind != TokRParen {
				a, err := p.parseCallFree()
				if err != nil {
					return nil, err
				}
				p.args = append(p.args, a)
				ok, err := p.accept(TokComma)
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
			}
			args := popFrom(&p.args, mark)
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			c := &callExpr{pos: pos, fn: name, args: args}
			if p.calls == p.callMark {
				p.firstCall = c
			}
			p.calls++
			return c, nil
		}
		return p.parsePostfix(p.varExpr(pos, name))
	}
	return nil, p.errf("expected an expression, found %s", p.tok.Kind)
}

// varExpr builds the r-use of variable name, numbering the VarLV before its
// LVExpr wrapper. Variable references are the commonest operands, so the
// two nodes share one allocation.
func (p *Parser) varExpr(pos Pos, name string) *LVExpr {
	n := &struct {
		e LVExpr
		v VarLV
	}{v: VarLV{Pos: pos, Name: name, id: p.id()}}
	n.e = LVExpr{Pos: pos, LV: &n.v, id: p.id()}
	return &n.e
}

// lvExpr wraps an l-value built just before it, numbering the wrapper last.
func (p *Parser) lvExpr(pos Pos, lv LValue) *LVExpr {
	return &LVExpr{Pos: pos, LV: lv, id: p.id()}
}

// parsePostfix handles [], ., and -> chains on an expression.
func (p *Parser) parsePostfix(e Expr) (Expr, error) {
	for {
		pos := p.pos()
		switch p.tok.Kind {
		case TokLBracket:
			if err := p.next(); err != nil {
				return nil, err
			}
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			// a[i] desugars to *(a + i), per the logical memory model.
			addr := &Binop{Pos: pos, Op: BAdd, L: e, R: idx, id: p.id()}
			e = p.lvExpr(pos, &DerefLV{Pos: pos, Addr: addr, id: p.id()})
		case TokDot:
			if err := p.next(); err != nil {
				return nil, err
			}
			f, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			lv, err := p.unwrapLValue(e)
			if err != nil {
				return nil, err
			}
			e = p.lvExpr(pos, &FieldLV{Pos: pos, Base: lv, Field: f.Text, id: p.id()})
		case TokArrow:
			if err := p.next(); err != nil {
				return nil, err
			}
			f, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			base := &DerefLV{Pos: pos, Addr: e, id: p.id()}
			e = p.lvExpr(pos, &FieldLV{Pos: pos, Base: base, Field: f.Text, id: p.id()})
		default:
			return e, nil
		}
	}
}
