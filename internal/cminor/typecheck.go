package cminor

import (
	"fmt"
)

// Diagnostic is a positioned message from the typechecker.
type Diagnostic struct {
	Pos Pos
	Msg string
}

func (d Diagnostic) String() string { return fmt.Sprintf("%s: %s", d.Pos, d.Msg) }

// VarKind classifies a resolved variable.
type VarKind int

// Variable kinds.
const (
	GlobalVar VarKind = iota
	LocalVar
	ParamVar
)

// VarDef is the resolved definition of a variable occurrence.
type VarDef struct {
	Name string
	Type Type
	Kind VarKind
	Pos  Pos
}

// TypeInfo records the results of base typechecking: the (fully qualified,
// as-declared) type of every expression and l-value, and variable
// resolution. Qualifier checking consumes this.
//
// The per-node facts live in a slice indexed by node number (see NodeID),
// sized to the program's numbers when TypeCheck starts; a node without a
// number in that range (one not built by Parse) is kept in a map instead.
// TypeCheck only writes its own TypeInfo, and a finished TypeInfo is
// read-only, so checks may share one across goroutines.
type TypeInfo struct {
	Funcs   map[string]*FuncDef
	Structs map[string]*StructDef

	nodes      []nodeInfo
	unnumbered map[Node]*nodeInfo
}

// nodeInfo is what typechecking records for one node: its type (nil until
// recorded) and, for a variable l-value, the definition it resolves to.
type nodeInfo struct {
	t   Type
	def *VarDef
}

// info returns n's record, or nil when none was made.
func (ti *TypeInfo) info(id NodeID, n Node) *nodeInfo {
	if id != 0 && int(id) < len(ti.nodes) {
		return &ti.nodes[id]
	}
	return ti.unnumbered[n]
}

// record returns n's record, creating it for an unnumbered node.
func (ti *TypeInfo) record(id NodeID, n Node) *nodeInfo {
	if r := ti.info(id, n); r != nil {
		return r
	}
	if ti.unnumbered == nil {
		ti.unnumbered = map[Node]*nodeInfo{}
	}
	r := &nodeInfo{}
	ti.unnumbered[n] = r
	return r
}

func (ti *TypeInfo) typeOf(id NodeID, n Node) Type {
	if r := ti.info(id, n); r != nil && r.t != nil {
		return r.t
	}
	return IntType{}
}

// TypeOf returns the recorded type of an expression (int when none was
// recorded).
func (ti *TypeInfo) TypeOf(e Expr) Type { return ti.typeOf(e.ID(), e) }

// LVTypeOf returns the recorded declared type of an l-value (int when none
// was recorded).
func (ti *TypeInfo) LVTypeOf(lv LValue) Type { return ti.typeOf(lv.ID(), lv) }

// VarDef returns the definition a variable occurrence resolves to, or nil
// when it resolved to none.
func (ti *TypeInfo) VarDef(v *VarLV) *VarDef {
	if r := ti.info(v.id, v); r != nil {
		return r.def
	}
	return nil
}

// checker is the base (qualifier-erased) typechecker state.
type tcState struct {
	prog  *Program
	info  *TypeInfo
	diags []Diagnostic
	// vars maps each visible name, globals included, to its innermost
	// declaration. Block scopes share one stack: undo records what each of
	// their declarations hid, and marks[i] is where the i-th starts in undo.
	vars  map[string]scoped
	undo  []shadowed
	marks []int
	cur   *FuncDef
}

// scoped is a declaration and its scope's depth (0 is the file scope);
// shadowed is what a block-scope declaration of name hid (zero for nothing).
type (
	scoped struct {
		def   *VarDef
		depth int
	}
	shadowed struct {
		name string
		prev scoped
	}
)

// TypeCheck performs standard C-style typechecking, ignoring qualifiers for
// compatibility but recording declared (qualified) types for every
// expression and l-value. It returns the type information and any
// diagnostics; checking continues past errors (the paper's checker reports
// warnings and lets compilation continue).
func TypeCheck(prog *Program) (*TypeInfo, []Diagnostic) {
	s := &tcState{
		prog: prog,
		info: &TypeInfo{
			Funcs:   map[string]*FuncDef{},
			Structs: map[string]*StructDef{},
			nodes:   make([]nodeInfo, prog.Nodes+1),
		},
		vars: make(map[string]scoped, len(prog.Globals)),
	}
	for _, st := range prog.Structs {
		if _, dup := s.info.Structs[st.Name]; dup {
			s.errorf(st.Pos, "struct %s redefined", st.Name)
		}
		s.info.Structs[st.Name] = st
	}
	for _, f := range prog.Funcs {
		if prev, ok := s.info.Funcs[f.Name]; ok {
			if prev.Body != nil && f.Body != nil {
				s.errorf(f.Pos, "function %s redefined", f.Name)
			}
			if !BaseTypeEqual(prev.Signature(), f.Signature()) {
				s.errorf(f.Pos, "conflicting signatures for %s", f.Name)
			}
			if f.Body != nil {
				s.info.Funcs[f.Name] = f
			}
			continue
		}
		s.info.Funcs[f.Name] = f
	}
	for _, g := range prog.Globals {
		s.declare(g, GlobalVar)
		if g.Init != nil {
			t := s.exprType(g.Init)
			if !assignable(g.Type, t) {
				s.errorf(g.Pos, "cannot initialize %s (type %s) from %s", g.Name, g.Type, t)
			}
		}
	}
	for _, f := range prog.Funcs {
		if f.Body == nil {
			continue
		}
		s.cur = f
		s.pushScope()
		for i := range f.Params {
			p := &f.Params[i]
			s.declareDef(&VarDef{Name: p.Name, Type: p.Type, Kind: ParamVar, Pos: p.Pos})
		}
		s.stmt(f.Body)
		s.popScope()
		s.cur = nil
	}
	return s.info, s.diags
}

func (s *tcState) errorf(pos Pos, format string, args ...interface{}) {
	s.diags = append(s.diags, Diagnostic{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (s *tcState) pushScope() { s.marks = append(s.marks, len(s.undo)) }

// popScope closes the innermost block scope, restoring what it hid.
func (s *tcState) popScope() {
	mark := s.marks[len(s.marks)-1]
	for i := len(s.undo) - 1; i >= mark; i-- {
		if u := s.undo[i]; u.prev.def != nil {
			s.vars[u.name] = u.prev
		} else {
			delete(s.vars, u.name)
		}
	}
	s.undo, s.marks = s.undo[:mark], s.marks[:len(s.marks)-1]
}

func (s *tcState) declare(d *VarDecl, kind VarKind) {
	s.declareDef(&VarDef{Name: d.Name, Type: d.Type, Kind: kind, Pos: d.Pos})
}

// declareDef declares def in the innermost open scope (depth 0: file scope).
func (s *tcState) declareDef(def *VarDef) {
	depth := len(s.marks)
	prev := s.vars[def.Name]
	if prev.def != nil && prev.depth == depth {
		s.errorf(def.Pos, "%s redeclared in this scope", def.Name)
	}
	if depth > 0 {
		s.undo = append(s.undo, shadowed{def.Name, prev})
	}
	s.vars[def.Name] = scoped{def, depth}
	// Validate struct references in the type.
	s.checkTypeRefs(def.Pos, def.Type)
}

func (s *tcState) checkTypeRefs(pos Pos, t Type) {
	switch t := t.(type) {
	case StructType:
		if _, ok := s.info.Structs[t.Name]; !ok {
			s.errorf(pos, "undefined struct %s", t.Name)
		}
	case PointerType:
		s.checkTypeRefs(pos, t.Elem)
	case ArrayType:
		s.checkTypeRefs(pos, t.Elem)
	case QualType:
		s.checkTypeRefs(pos, t.Base)
	}
}

func (s *tcState) lookup(name string) *VarDef { return s.vars[name].def }

// assignable reports whether a value of type src may be assigned to a
// location of type dst under base (qualifier-erased) C rules.
func assignable(dst, src Type) bool {
	d := EraseQuals(Decay(dst))
	c := EraseQuals(Decay(src))
	if TypeEqual(d, c) {
		return true
	}
	if IsIntegral(d) && IsIntegral(c) {
		return true
	}
	dp, dOK := d.(PointerType)
	cp, cOK := c.(PointerType)
	if dOK && cOK {
		// void* converts to and from any pointer.
		if _, ok := dp.Elem.(VoidType); ok {
			return true
		}
		if _, ok := cp.Elem.(VoidType); ok {
			return true
		}
	}
	return false
}

// ---- Statements ----

func (s *tcState) stmt(st Stmt) {
	switch st := st.(type) {
	case *Block:
		s.pushScope()
		for _, inner := range st.Stmts {
			s.stmt(inner)
		}
		s.popScope()
	case *DeclStmt:
		if st.Decl.Init != nil {
			t := s.exprType(st.Decl.Init)
			if !assignable(st.Decl.Type, t) {
				s.errorf(st.Pos, "cannot initialize %s (type %s) from %s", st.Decl.Name, st.Decl.Type, t)
			}
		}
		s.declare(st.Decl, LocalVar)
	case *InstrStmt:
		s.instr(st.Instr)
	case *If:
		s.condType(st.Cond)
		s.stmt(st.Then)
		if st.Else != nil {
			s.stmt(st.Else)
		}
	case *While:
		s.condType(st.Cond)
		s.stmt(st.Body)
	case *For:
		s.pushScope()
		if st.Init != nil {
			s.stmt(st.Init)
		}
		if st.Cond != nil {
			s.condType(st.Cond)
		}
		if st.Post != nil {
			s.stmt(st.Post)
		}
		s.stmt(st.Body)
		s.popScope()
	case *Return:
		want := s.cur.Result
		if st.X == nil {
			if _, isVoid := StripQuals(want).(VoidType); !isVoid {
				s.errorf(st.Pos, "missing return value in %s", s.cur.Name)
			}
			return
		}
		got := s.exprType(st.X)
		if !assignable(want, got) {
			s.errorf(st.Pos, "cannot return %s from %s (want %s)", got, s.cur.Name, want)
		}
	case *Break, *Continue:
		// Loop nesting is not tracked; corpora are well-formed C.
	}
}

func (s *tcState) condType(e Expr) {
	t := s.exprType(e)
	if !IsIntegral(t) && !IsPointer(t) {
		s.errorf(e.Position(), "condition has non-scalar type %s", t)
	}
}

func (s *tcState) instr(in Instr) {
	switch in := in.(type) {
	case *Assign:
		lt := s.lvalueType(in.LHS)
		rt := s.exprType(in.RHS)
		if !assignable(lt, rt) {
			s.errorf(in.Pos, "cannot assign %s to %s", rt, lt)
		}
	case *CallInstr:
		fn, ok := s.info.Funcs[in.Fn]
		if !ok {
			s.errorf(in.Pos, "call to undefined function %s", in.Fn)
			for _, a := range in.Args {
				s.exprType(a)
			}
			return
		}
		sig := fn.Signature()
		if len(in.Args) < len(sig.Params) || (!sig.Variadic && len(in.Args) > len(sig.Params)) {
			s.errorf(in.Pos, "%s expects %d argument(s), got %d", in.Fn, len(sig.Params), len(in.Args))
		}
		for i, a := range in.Args {
			at := s.exprType(a)
			if i < len(sig.Params) && !assignable(sig.Params[i], at) {
				s.errorf(a.Position(), "argument %d of %s: cannot pass %s as %s", i+1, in.Fn, at, sig.Params[i])
			}
		}
		if in.LHS != nil {
			lt := s.lvalueType(in.LHS)
			if !assignable(lt, sig.Result) {
				s.errorf(in.Pos, "cannot assign result of %s (%s) to %s", in.Fn, sig.Result, lt)
			}
		}
	}
}

// ---- Expressions ----

func (s *tcState) exprType(e Expr) Type {
	t := s.exprTypeUncached(e)
	s.info.record(e.ID(), e).t = t
	return t
}

func (s *tcState) exprTypeUncached(e Expr) Type {
	switch e := e.(type) {
	case *IntLit:
		if e.IsChar {
			return CharType{}
		}
		return IntType{}
	case *StrLit:
		return PointerType{Elem: CharType{}}
	case *NullLit:
		return PointerType{Elem: VoidType{}}
	case *LVExpr:
		return Decay(s.lvalueType(e.LV))
	case *AddrOf:
		return PointerType{Elem: s.lvalueType(e.LV)}
	case *Unop:
		xt := s.exprType(e.X)
		switch e.Op {
		case UNeg:
			if !IsIntegral(xt) {
				s.errorf(e.Pos, "operand of unary - has type %s", xt)
			}
			return IntType{}
		case UNot:
			if !IsIntegral(xt) && !IsPointer(xt) {
				s.errorf(e.Pos, "operand of ! has type %s", xt)
			}
			return IntType{}
		}
		return IntType{}
	case *Binop:
		lt := s.exprType(e.L)
		rt := s.exprType(e.R)
		switch e.Op {
		case BAdd, BSub:
			// Pointer arithmetic keeps the pointer's type (the logical
			// memory model of section 3.3).
			if IsPointer(lt) && IsIntegral(rt) {
				return Decay(lt)
			}
			if e.Op == BAdd && IsIntegral(lt) && IsPointer(rt) {
				return Decay(rt)
			}
			if e.Op == BSub && IsPointer(lt) && IsPointer(rt) {
				return IntType{}
			}
			if IsIntegral(lt) && IsIntegral(rt) {
				return IntType{}
			}
			s.errorf(e.Pos, "invalid operands to %s: %s and %s", e.Op, lt, rt)
			return IntType{}
		case BMul, BDiv, BMod:
			if !IsIntegral(lt) || !IsIntegral(rt) {
				s.errorf(e.Pos, "invalid operands to %s: %s and %s", e.Op, lt, rt)
			}
			return IntType{}
		case BEq, BNe, BLt, BLe, BGt, BGe:
			okInt := IsIntegral(lt) && IsIntegral(rt)
			okPtr := IsPointer(lt) && IsPointer(rt)
			okNull := (IsPointer(lt) && isNullExpr(e.R)) || (IsPointer(rt) && isNullExpr(e.L))
			if !okInt && !okPtr && !okNull {
				s.errorf(e.Pos, "invalid comparison between %s and %s", lt, rt)
			}
			return IntType{}
		case BAnd, BOr:
			return IntType{}
		}
		return IntType{}
	case *Cast:
		s.exprType(e.X)
		s.checkTypeRefs(e.Pos, e.Type)
		return e.Type
	case *SizeofExpr:
		return IntType{}
	case *NewExpr:
		s.exprType(e.Size)
		return PointerType{Elem: VoidType{}}
	case *callExpr:
		s.errorf(e.pos, "call to %s in expression position", e.fn)
		return IntType{}
	}
	return IntType{}
}

func isNullExpr(e Expr) bool {
	switch e := e.(type) {
	case *NullLit:
		return true
	case *IntLit:
		return e.Value == 0
	case *Cast:
		return isNullExpr(e.X)
	}
	return false
}

func (s *tcState) lvalueType(lv LValue) Type {
	t := s.lvalueTypeUncached(lv)
	s.info.record(lv.ID(), lv).t = t
	return t
}

func (s *tcState) lvalueTypeUncached(lv LValue) Type {
	switch lv := lv.(type) {
	case *VarLV:
		def := s.lookup(lv.Name)
		if def == nil {
			s.errorf(lv.Pos, "undefined variable %s", lv.Name)
			return IntType{}
		}
		s.info.record(lv.id, lv).def = def
		return def.Type
	case *DerefLV:
		at := s.exprType(lv.Addr)
		elem, ok := PointeeOf(at)
		if !ok {
			s.errorf(lv.Pos, "dereference of non-pointer type %s", at)
			return IntType{}
		}
		return elem
	case *FieldLV:
		bt := s.lvalueType(lv.Base)
		st, ok := StripQuals(bt).(StructType)
		if !ok {
			s.errorf(lv.Pos, "field access on non-struct type %s", bt)
			return IntType{}
		}
		def, ok := s.info.Structs[st.Name]
		if !ok {
			s.errorf(lv.Pos, "undefined struct %s", st.Name)
			return IntType{}
		}
		for _, f := range def.Fields {
			if f.Name == lv.Field {
				return f.Type
			}
		}
		s.errorf(lv.Pos, "struct %s has no field %s", st.Name, lv.Field)
		return IntType{}
	}
	return IntType{}
}
