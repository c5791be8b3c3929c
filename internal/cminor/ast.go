package cminor

// This file defines the AST. Following CIL, the grammar separates
// side-effect-free expressions (Expr), l-values (LValue), side-effecting
// instructions (Instr), and statements (Stmt). Memory allocation (NewExpr,
// produced from malloc calls) may appear only as the right-hand side of an
// assignment instruction, possibly under a cast — the only position where
// qualifier rules can match the pattern "new".

// Node is any AST node with a source position.
type Node interface {
	Position() Pos
}

// Expr is a side-effect-free expression.
type Expr interface {
	Node
	ID() NodeID
	isExpr()
}

// LValue is an addressable expression.
type LValue interface {
	Node
	ID() NodeID
	isLValue()
}

// NodeID is the number Parse gives an expression or l-value node as it
// builds it. The numbers of one Program are 1..Program.Nodes, each used by
// exactly one node, and the nodes of one function body form the contiguous
// range FuncDef.Nodes. A node not built by Parse has number 0 (unnumbered);
// consumers that index tables by number keep such nodes aside. Numbers never
// change after Parse, so a program may be typechecked any number of times,
// concurrently too.
type NodeID int32

// NodeRange is the half-open range of node numbers [Lo, Hi).
type NodeRange struct{ Lo, Hi NodeID }

// Contains reports whether id lies in the range; it never holds for 0.
func (r NodeRange) Contains(id NodeID) bool { return id >= r.Lo && id < r.Hi && id != 0 }

// Len is the number of node numbers in the range.
func (r NodeRange) Len() int { return int(r.Hi - r.Lo) }

// Instr is a side-effecting instruction (assignment or call).
type Instr interface {
	Node
	isInstr()
}

// Stmt is a statement.
type Stmt interface {
	Node
	isStmt()
}

// ---- Expressions ----

// IntLit is an integer (or character) constant.
type IntLit struct {
	Pos    Pos
	Value  int64
	IsChar bool
	id     NodeID
}

// StrLit is a string literal; its type is char*.
type StrLit struct {
	Pos   Pos
	Value string
	id    NodeID
}

// NullLit is the NULL pointer constant.
type NullLit struct {
	Pos Pos
	id  NodeID
}

// LVExpr is the r-use of an l-value (reading its contents).
type LVExpr struct {
	Pos Pos
	LV  LValue
	id  NodeID
}

// AddrOf is &lv.
type AddrOf struct {
	Pos Pos
	LV  LValue
	id  NodeID
}

// UnopKind enumerates unary operators.
type UnopKind int

// Unary operators.
const (
	UNeg UnopKind = iota // -x
	UNot                 // !x
)

func (k UnopKind) String() string {
	if k == UNeg {
		return "-"
	}
	return "!"
}

// Unop is a unary operation.
type Unop struct {
	Pos Pos
	Op  UnopKind
	X   Expr
	id  NodeID
}

// BinopKind enumerates binary operators.
type BinopKind int

// Binary operators.
const (
	BAdd BinopKind = iota
	BSub
	BMul
	BDiv
	BMod
	BEq
	BNe
	BLt
	BLe
	BGt
	BGe
	BAnd // &&
	BOr  // ||
)

var binopNames = map[BinopKind]string{
	BAdd: "+", BSub: "-", BMul: "*", BDiv: "/", BMod: "%",
	BEq: "==", BNe: "!=", BLt: "<", BLe: "<=", BGt: ">", BGe: ">=",
	BAnd: "&&", BOr: "||",
}

func (k BinopKind) String() string { return binopNames[k] }

// Binop is a binary operation. && and || are expressions here (side-effect
// freedom makes short-circuit evaluation unobservable).
type Binop struct {
	Pos  Pos
	Op   BinopKind
	L, R Expr
	id   NodeID
}

// Cast is (type) x. Casts to value-qualified types are instrumented with
// run-time checks (section 2.1.3).
type Cast struct {
	Pos  Pos
	Type Type
	X    Expr
	id   NodeID
}

// SizeofExpr is sizeof(type); it evaluates to the type's size.
type SizeofExpr struct {
	Pos  Pos
	Type Type
	id   NodeID
}

// NewExpr is a memory allocation (a malloc call). It is an expression node
// so it can sit under a Cast on an assignment's right-hand side, but the
// parser only produces it in instruction position.
type NewExpr struct {
	Pos  Pos
	Size Expr
	id   NodeID
}

func (*IntLit) isExpr()     {}
func (*StrLit) isExpr()     {}
func (*NullLit) isExpr()    {}
func (*LVExpr) isExpr()     {}
func (*AddrOf) isExpr()     {}
func (*Unop) isExpr()       {}
func (*Binop) isExpr()      {}
func (*Cast) isExpr()       {}
func (*SizeofExpr) isExpr() {}
func (*NewExpr) isExpr()    {}

func (e *IntLit) ID() NodeID     { return e.id }
func (e *StrLit) ID() NodeID     { return e.id }
func (e *NullLit) ID() NodeID    { return e.id }
func (e *LVExpr) ID() NodeID     { return e.id }
func (e *AddrOf) ID() NodeID     { return e.id }
func (e *Unop) ID() NodeID       { return e.id }
func (e *Binop) ID() NodeID      { return e.id }
func (e *Cast) ID() NodeID       { return e.id }
func (e *SizeofExpr) ID() NodeID { return e.id }
func (e *NewExpr) ID() NodeID    { return e.id }

func (e *IntLit) Position() Pos     { return e.Pos }
func (e *StrLit) Position() Pos     { return e.Pos }
func (e *NullLit) Position() Pos    { return e.Pos }
func (e *LVExpr) Position() Pos     { return e.Pos }
func (e *AddrOf) Position() Pos     { return e.Pos }
func (e *Unop) Position() Pos       { return e.Pos }
func (e *Binop) Position() Pos      { return e.Pos }
func (e *Cast) Position() Pos       { return e.Pos }
func (e *SizeofExpr) Position() Pos { return e.Pos }
func (e *NewExpr) Position() Pos    { return e.Pos }

// ---- LValues ----

// VarLV is a variable reference.
type VarLV struct {
	Pos  Pos
	Name string
	id   NodeID
}

// DerefLV is *addr. Array indexing a[i] is desugared to *(a+i), matching
// the paper's logical memory model in which p+i has p's type.
type DerefLV struct {
	Pos  Pos
	Addr Expr
	id   NodeID
}

// FieldLV is base.field (p->f is (*p).f).
type FieldLV struct {
	Pos   Pos
	Base  LValue
	Field string
	id    NodeID
}

func (*VarLV) isLValue()   {}
func (*DerefLV) isLValue() {}
func (*FieldLV) isLValue() {}

func (l *VarLV) ID() NodeID   { return l.id }
func (l *DerefLV) ID() NodeID { return l.id }
func (l *FieldLV) ID() NodeID { return l.id }

func (l *VarLV) Position() Pos   { return l.Pos }
func (l *DerefLV) Position() Pos { return l.Pos }
func (l *FieldLV) Position() Pos { return l.Pos }

// ---- Instructions ----

// Assign is lhs = rhs.
type Assign struct {
	Pos Pos
	LHS LValue
	RHS Expr
}

// CallInstr is [lhs =] fn(args).
type CallInstr struct {
	Pos  Pos
	LHS  LValue // nil when the result is discarded
	Fn   string
	Args []Expr
}

func (*Assign) isInstr()           {}
func (*CallInstr) isInstr()        {}
func (i *Assign) Position() Pos    { return i.Pos }
func (i *CallInstr) Position() Pos { return i.Pos }

// ---- Statements ----

// DeclStmt is a local variable declaration.
type DeclStmt struct {
	Pos  Pos
	Decl *VarDecl
}

// InstrStmt wraps an instruction as a statement.
type InstrStmt struct {
	Pos   Pos
	Instr Instr
}

// Block is { stmts }.
type Block struct {
	Pos   Pos
	Stmts []Stmt
}

// If is if (cond) then else else; Else may be nil.
type If struct {
	Pos  Pos
	Cond Expr
	Then Stmt
	Else Stmt
}

// While is while (cond) body.
type While struct {
	Pos  Pos
	Cond Expr
	Body Stmt
}

// For is for (init; cond; post) body. Init and Post may be nil; Cond nil
// means true.
type For struct {
	Pos  Pos
	Init Stmt
	Cond Expr
	Post Stmt
	Body Stmt
}

// Return is return [x].
type Return struct {
	Pos Pos
	X   Expr // nil for void
}

// Break is a break statement.
type Break struct{ Pos Pos }

// Continue is a continue statement.
type Continue struct{ Pos Pos }

func (*DeclStmt) isStmt()  {}
func (*InstrStmt) isStmt() {}
func (*Block) isStmt()     {}
func (*If) isStmt()        {}
func (*While) isStmt()     {}
func (*For) isStmt()       {}
func (*Return) isStmt()    {}
func (*Break) isStmt()     {}
func (*Continue) isStmt()  {}

func (s *DeclStmt) Position() Pos  { return s.Pos }
func (s *InstrStmt) Position() Pos { return s.Pos }
func (s *Block) Position() Pos     { return s.Pos }
func (s *If) Position() Pos        { return s.Pos }
func (s *While) Position() Pos     { return s.Pos }
func (s *For) Position() Pos       { return s.Pos }
func (s *Return) Position() Pos    { return s.Pos }
func (s *Break) Position() Pos     { return s.Pos }
func (s *Continue) Position() Pos  { return s.Pos }

// ---- Declarations and programs ----

// VarDecl declares a variable (global or local).
type VarDecl struct {
	Pos  Pos
	Name string
	Type Type
	Init Expr // nil when uninitialized
}

// Field is a struct field.
type Field struct {
	Pos  Pos
	Name string
	Type Type
}

// StructDef defines a struct.
type StructDef struct {
	Pos    Pos
	Name   string
	Fields []Field
}

// Param is a function parameter.
type Param struct {
	Pos  Pos
	Name string
	Type Type
}

// FuncDef is a function definition or prototype (Body nil for prototypes).
type FuncDef struct {
	Pos      Pos
	Name     string
	Params   []Param
	Result   Type
	Variadic bool
	Body     *Block
	// Src is the function's source text as Parse read it: from the start of
	// the line holding its first token through its closing brace (through
	// its ';' for a prototype). It is a substring of the parsed source, so
	// it fixes the function's tokens and the column of every one of them.
	// Empty when the FuncDef was not built by Parse.
	Src string
	// Nodes is the range of node numbers Parse gave the body's expressions
	// and l-values (see NodeID); empty for a prototype or a FuncDef not
	// built by Parse.
	Nodes NodeRange
}

// Signature returns the function's type.
func (f *FuncDef) Signature() FuncType {
	params := make([]Type, len(f.Params))
	for i, p := range f.Params {
		params[i] = p.Type
	}
	return FuncType{Params: params, Result: f.Result, Variadic: f.Variadic}
}

// Program is a parsed translation unit.
type Program struct {
	File    string
	Structs []*StructDef
	Globals []*VarDecl
	Funcs   []*FuncDef
	// Nodes is the highest node number Parse gave (see NodeID); 0 for a
	// program not built by Parse.
	Nodes NodeID
}

// Func returns the named function (definition preferred over prototype), or
// nil.
func (p *Program) Func(name string) *FuncDef {
	var proto *FuncDef
	for _, f := range p.Funcs {
		if f.Name == name {
			if f.Body != nil {
				return f
			}
			if proto == nil {
				proto = f
			}
		}
	}
	return proto
}
