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
	lex   *Lexer
	tok   Token
	ahead []Token
	quals map[string]bool
	depth int

	// blockEnd is the position of the '}' that closed the block parsed
	// last; a function's body is the last block its definition parses.
	blockEnd Pos
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

// enter guards one recursion level; pair with leave.
func (p *Parser) enter() error {
	p.depth++
	if p.depth > maxNestingDepth {
		return p.errf("nesting exceeds the maximum depth of %d", maxNestingDepth)
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

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
	p := &Parser{lex: NewLexer(file, src), quals: qualNames}
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
	if len(p.ahead) > 0 {
		p.tok = p.ahead[0]
		p.ahead = p.ahead[1:]
		return nil
	}
	t, err := p.lex.Next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// peek returns the token n positions ahead (0 = current).
func (p *Parser) peek(n int) (Token, error) {
	if n == 0 {
		return p.tok, nil
	}
	for len(p.ahead) < n {
		t, err := p.lex.Next()
		if err != nil {
			return Token{}, err
		}
		p.ahead = append(p.ahead, t)
	}
	return p.ahead[n-1], nil
}

// span returns the source from the start of line startLine through the
// one-byte token at end. The lexer counts columns in bytes, so end sits at
// its line's offset plus Col-1.
func (p *Parser) span(startLine int, end Pos) string {
	start := p.lineOffset(startLine)
	return p.lex.src[start : p.lineOffset(end.Line)+end.Col]
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
	return fmt.Errorf("%s: %s", p.tok.Pos, fmt.Sprintf(format, args...))
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
		t1, err := p.peek(2)
		if err != nil {
			return err
		}
		if t1.Kind == TokLBrace {
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
	startLine := p.tok.Pos.Line
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
		if d.Init != nil {
			if err := rejectCall(d.Init); err != nil {
				return err
			}
		}
	}
	prog.Globals = append(prog.Globals, decls...)
	return nil
}

func (p *Parser) parseStructDef() (*StructDef, error) {
	pos := p.tok.Pos
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
			def.Fields = append(def.Fields, Field{Pos: fname.Pos, Name: fname.Text, Type: fieldType})
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
// declarator lists; it consumes the trailing ';'.
func (p *Parser) parseDeclarators(typ Type, first Token) ([]*VarDecl, error) {
	var out []*VarDecl
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
		decl := &VarDecl{Pos: name.Pos, Name: name.Text, Type: declType}
		ok, err := p.accept(TokAssign)
		if err != nil {
			return nil, err
		}
		if ok {
			init, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			decl.Init = init // calls are split out or rejected by the caller
		}
		out = append(out, decl)
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
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return out, nil
}

// parseFuncRest parses a function definition or prototype from its '('
// on; startLine is the line of the declaration's first token.
func (p *Parser) parseFuncRest(result Type, name Token, startLine int) (*FuncDef, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	fn := &FuncDef{Pos: name.Pos, Name: name.Text, Result: result}
	if p.tok.Kind == TokKwVoid {
		// void parameter list: f(void)
		t1, err := p.peek(1)
		if err != nil {
			return nil, err
		}
		if t1.Kind == TokRParen {
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
		fn.Params = append(fn.Params, Param{Pos: pname.Pos, Name: pname.Text, Type: pt})
		ok, err := p.accept(TokComma)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if p.tok.Kind == TokSemi {
		fn.Src = p.span(startLine, p.tok.Pos)
		return fn, p.next() // prototype
	}
	lo := p.nodes + 1
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	fn.Src = p.span(startLine, p.blockEnd)
	fn.Nodes = NodeRange{Lo: lo, Hi: p.nodes + 1}
	return fn, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	pos := p.tok.Pos
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	b := &Block{Pos: pos}
	for p.tok.Kind != TokRBrace {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s...)
	}
	p.blockEnd = p.tok.Pos
	return b, p.next()
}

// parseStmt returns one or more statements (a multi-declarator declaration
// expands to several DeclStmts).
func (p *Parser) parseStmt() ([]Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokLBrace:
		b, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return []Stmt{b}, nil
	case TokSemi:
		return []Stmt{&Block{Pos: pos}}, p.next()
	case TokKwIf:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := rejectCall(cond); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmt := &If{Pos: pos, Cond: cond, Then: blockOf(pos, then)}
		ok, err := p.accept(TokKwElse)
		if err != nil {
			return nil, err
		}
		if ok {
			els, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			stmt.Else = blockOf(pos, els)
		}
		return []Stmt{stmt}, nil
	case TokKwWhile:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := rejectCall(cond); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return []Stmt{&While{Pos: pos, Cond: cond, Body: blockOf(pos, body)}}, nil
	case TokKwFor:
		return p.parseFor()
	case TokKwReturn:
		if err := p.next(); err != nil {
			return nil, err
		}
		stmt := &Return{Pos: pos}
		if p.tok.Kind != TokSemi {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := rejectCall(x); err != nil {
				return nil, err
			}
			stmt.X = x
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return []Stmt{stmt}, nil
	case TokKwBreak:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return []Stmt{&Break{Pos: pos}}, nil
	case TokKwContinue:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return []Stmt{&Continue{Pos: pos}}, nil
	}
	if p.isTypeStart() {
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		decls, err := p.parseDeclarators(typ, name)
		if err != nil {
			return nil, err
		}
		var out []Stmt
		for _, d := range decls {
			// Call initializers are split CIL-style into a declaration plus
			// a call instruction (figure 2's "int pos d = gcd(a, b);").
			if d.Init != nil && containsCall(d.Init) {
				init := d.Init
				d.Init = nil
				out = append(out, &DeclStmt{Pos: d.Pos, Decl: d})
				lv := &VarLV{Pos: d.Pos, Name: d.Name, id: p.id()}
				instr, err := p.assignOrCall(d.Pos, lv, init)
				if err != nil {
					return nil, err
				}
				out = append(out, &InstrStmt{Pos: d.Pos, Instr: instr})
				continue
			}
			out = append(out, &DeclStmt{Pos: d.Pos, Decl: d})
		}
		return out, nil
	}
	s, err := p.parseSimpleStmt(true)
	if err != nil {
		return nil, err
	}
	return []Stmt{s}, nil
}

func blockOf(pos Pos, stmts []Stmt) Stmt {
	if len(stmts) == 1 {
		return stmts[0]
	}
	return &Block{Pos: pos, Stmts: stmts}
}

func (p *Parser) parseFor() ([]Stmt, error) {
	pos := p.tok.Pos
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
			if decls[0].Init != nil {
				if err := rejectCall(decls[0].Init); err != nil {
					return nil, err
				}
			}
			f.Init = &DeclStmt{Pos: decls[0].Pos, Decl: decls[0]}
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
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := rejectCall(cond); err != nil {
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
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	f.Body = blockOf(pos, body)
	return []Stmt{f}, nil
}

// parseSimpleStmt parses an assignment, call, or increment statement. When
// wantSemi is true the trailing ';' is consumed.
func (p *Parser) parseSimpleStmt(wantSemi bool) (Stmt, error) {
	pos := p.tok.Pos
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
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		instr, err = p.assignOrCall(pos, lv, rhs)
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
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := rejectCall(rhs); err != nil {
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
// right-hand sides into CallInstr/NewExpr.
func (p *Parser) assignOrCall(pos Pos, lv LValue, rhs Expr) (Instr, error) {
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
	if err := rejectCall(rhs); err != nil {
		return nil, err
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

// containsCall reports whether e contains a parse-time call node.
func containsCall(e Expr) bool { return rejectCall(e) != nil }

// rejectCall reports an error if e contains a call (calls are only legal as
// a whole statement or a whole assignment right-hand side).
func rejectCall(e Expr) error {
	switch e := e.(type) {
	case *callExpr:
		return fmt.Errorf("%s: call to %s used in expression position; assign it to a temporary first", e.pos, e.fn)
	case *Unop:
		return rejectCall(e.X)
	case *Binop:
		if err := rejectCall(e.L); err != nil {
			return err
		}
		return rejectCall(e.R)
	case *Cast:
		return rejectCall(e.X)
	case *AddrOf:
		return rejectCallLV(e.LV)
	case *LVExpr:
		return rejectCallLV(e.LV)
	}
	return nil
}

func rejectCallLV(lv LValue) error {
	switch lv := lv.(type) {
	case *DerefLV:
		return rejectCall(lv.Addr)
	case *FieldLV:
		return rejectCallLV(lv.Base)
	}
	return nil
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

func (p *Parser) parseExpr() (Expr, error) { return p.parseBinary(0) }

// binary precedence levels, low to high.
var binPrec = []map[TokenKind]BinopKind{
	{TokOrOr: BOr},
	{TokAndAnd: BAnd},
	{TokEq: BEq, TokNe: BNe},
	{TokLt: BLt, TokLe: BLe, TokGt: BGt, TokGe: BGe},
	{TokPlus: BAdd, TokMinus: BSub},
	{TokStar: BMul, TokSlash: BDiv, TokPercent: BMod},
}

func (p *Parser) parseBinary(level int) (Expr, error) {
	if level >= len(binPrec) {
		return p.parseUnary()
	}
	left, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		op, ok := binPrec[level][p.tok.Kind]
		if !ok {
			return left, nil
		}
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parseBinary(level + 1)
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
	defer p.leave()
	pos := p.tok.Pos
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
		t1, err := p.peek(1)
		if err != nil {
			return nil, err
		}
		switch t1.Kind {
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
	pos := p.tok.Pos
	switch p.tok.Kind {
	case TokInt:
		v := p.tok.Int
		return &IntLit{Pos: pos, Value: v, id: p.id()}, p.next()
	case TokChar:
		v := p.tok.Int
		return &IntLit{Pos: pos, Value: v, IsChar: true, id: p.id()}, p.next()
	case TokString:
		s := p.tok.Str
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
			var args []Expr
			for p.tok.Kind != TokRParen {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := rejectCall(a); err != nil {
					return nil, err
				}
				args = append(args, a)
				ok, err := p.accept(TokComma)
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return &callExpr{pos: pos, fn: name, args: args}, nil
		}
		return p.parsePostfix(p.lvExpr(pos, &VarLV{Pos: pos, Name: name, id: p.id()}))
	}
	return nil, p.errf("expected an expression, found %s", p.tok.Kind)
}

// lvExpr wraps an l-value built just before it, numbering the wrapper last.
func (p *Parser) lvExpr(pos Pos, lv LValue) *LVExpr {
	return &LVExpr{Pos: pos, LV: lv, id: p.id()}
}

// parsePostfix handles [], ., and -> chains on an expression.
func (p *Parser) parsePostfix(e Expr) (Expr, error) {
	for {
		pos := p.tok.Pos
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
