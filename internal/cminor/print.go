package cminor

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a program back to cminor source. Output is parseable by
// Parse given the same qualifier registry (used by the instrumenter to emit
// checked programs, mirroring CIL's AST-to-C output stage).
func Print(p *Program) string {
	var sb strings.Builder
	for _, st := range p.Structs {
		fmt.Fprintf(&sb, "struct %s {\n", st.Name)
		for _, f := range st.Fields {
			if at, ok := f.Type.(ArrayType); ok {
				fmt.Fprintf(&sb, "  %s %s[%d];\n", at.Elem, f.Name, at.Size)
			} else {
				fmt.Fprintf(&sb, "  %s %s;\n", f.Type, f.Name)
			}
		}
		sb.WriteString("};\n")
	}
	for _, g := range p.Globals {
		sb.WriteString(declString(g))
		sb.WriteString("\n")
	}
	for _, f := range p.Funcs {
		sb.WriteString(funcHeader(f))
		if f.Body == nil {
			sb.WriteString(";\n")
			continue
		}
		sb.WriteString(" ")
		printStmt(&sb, f.Body, 0)
		sb.WriteString("\n")
	}
	return sb.String()
}

// FuncString renders one function definition (header plus body) back to
// source in Print's layout, so it is position-free and ignores the original
// whitespace and comments (FuncDef.Src keeps those).
func FuncString(f *FuncDef) string {
	var sb strings.Builder
	sb.WriteString(funcHeader(f))
	if f.Body == nil {
		sb.WriteString(";\n")
		return sb.String()
	}
	sb.WriteString(" ")
	printStmt(&sb, f.Body, 0)
	sb.WriteString("\n")
	return sb.String()
}

// HeaderString renders a function's signature (result type, name, parameter
// list) without its body.
func HeaderString(f *FuncDef) string { return funcHeader(f) }

// DeclString renders one variable declaration, including its initializer.
func DeclString(d *VarDecl) string { return declString(d) }

func funcHeader(f *FuncDef) string {
	var sb strings.Builder
	sb.WriteString(f.Result.String())
	sb.WriteByte(' ')
	sb.WriteString(f.Name)
	sb.WriteByte('(')
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.Type.String())
		sb.WriteByte(' ')
		sb.WriteString(p.Name)
	}
	if f.Variadic {
		if len(f.Params) > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("...")
	}
	sb.WriteByte(')')
	return sb.String()
}

func declString(d *VarDecl) string {
	var s string
	if at, ok := d.Type.(ArrayType); ok {
		s = fmt.Sprintf("%s %s[%d]", at.Elem, d.Name, at.Size)
	} else {
		s = fmt.Sprintf("%s %s", d.Type, d.Name)
	}
	if d.Init != nil {
		s += " = " + ExprString(d.Init)
	}
	return s + ";"
}

func printStmt(sb *strings.Builder, s Stmt, indent int) {
	ind := strings.Repeat("  ", indent)
	switch s := s.(type) {
	case *Block:
		sb.WriteString("{\n")
		for _, inner := range s.Stmts {
			sb.WriteString(ind + "  ")
			printStmt(sb, inner, indent+1)
			sb.WriteString("\n")
		}
		sb.WriteString(ind + "}")
	case *DeclStmt:
		sb.WriteString(declString(s.Decl))
	case *InstrStmt:
		sb.WriteString(InstrString(s.Instr) + ";")
	case *If:
		fmt.Fprintf(sb, "if (%s) ", ExprString(s.Cond))
		printStmt(sb, ensureBlock(s.Then), indent)
		if s.Else != nil {
			sb.WriteString(" else ")
			printStmt(sb, ensureBlock(s.Else), indent)
		}
	case *While:
		fmt.Fprintf(sb, "while (%s) ", ExprString(s.Cond))
		printStmt(sb, ensureBlock(s.Body), indent)
	case *For:
		sb.WriteString("for (")
		if s.Init != nil {
			switch init := s.Init.(type) {
			case *DeclStmt:
				sb.WriteString(declString(init.Decl))
			case *InstrStmt:
				sb.WriteString(InstrString(init.Instr) + ";")
			}
		} else {
			sb.WriteString(";")
		}
		sb.WriteString(" ")
		if s.Cond != nil {
			sb.WriteString(ExprString(s.Cond))
		}
		sb.WriteString("; ")
		if s.Post != nil {
			if is, ok := s.Post.(*InstrStmt); ok {
				sb.WriteString(InstrString(is.Instr))
			}
		}
		sb.WriteString(") ")
		printStmt(sb, ensureBlock(s.Body), indent)
	case *Return:
		if s.X != nil {
			fmt.Fprintf(sb, "return %s;", ExprString(s.X))
		} else {
			sb.WriteString("return;")
		}
	case *Break:
		sb.WriteString("break;")
	case *Continue:
		sb.WriteString("continue;")
	}
}

func ensureBlock(s Stmt) Stmt {
	if _, ok := s.(*Block); ok {
		return s
	}
	return &Block{Pos: s.Position(), Stmts: []Stmt{s}}
}

// InstrString renders an instruction (without the trailing ';').
func InstrString(in Instr) string {
	switch in := in.(type) {
	case *Assign:
		return fmt.Sprintf("%s = %s", LValueString(in.LHS), ExprString(in.RHS))
	case *CallInstr:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = ExprString(a)
		}
		call := fmt.Sprintf("%s(%s)", in.Fn, strings.Join(args, ", "))
		if in.LHS != nil {
			return fmt.Sprintf("%s = %s", LValueString(in.LHS), call)
		}
		return call
	}
	return "?"
}

// ExprString renders an expression with full parenthesization.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case *IntLit:
		if e.IsChar && e.Value >= 0 && e.Value <= 0xff {
			return quote(string([]byte{byte(e.Value)}), '\'')
		}
		return strconv.FormatInt(e.Value, 10)
	case *StrLit:
		return quote(e.Value, '"')
	case *NullLit:
		return "NULL"
	case *LVExpr:
		return LValueString(e.LV)
	case *AddrOf:
		return "&" + LValueString(e.LV)
	case *Unop:
		return fmt.Sprintf("%s(%s)", e.Op, ExprString(e.X))
	case *Binop:
		return fmt.Sprintf("(%s %s %s)", ExprString(e.L), e.Op, ExprString(e.R))
	case *Cast:
		return fmt.Sprintf("(%s)(%s)", e.Type, ExprString(e.X))
	case *SizeofExpr:
		return fmt.Sprintf("sizeof(%s)", e.Type)
	case *NewExpr:
		return fmt.Sprintf("malloc(%s)", ExprString(e.Size))
	case *callExpr:
		args := make([]string, len(e.args))
		for i, a := range e.args {
			args[i] = ExprString(a)
		}
		return fmt.Sprintf("%s(%s)", e.fn, strings.Join(args, ", "))
	}
	return "?"
}

// quote renders s as a literal between q quotes, in the escapes the lexer
// reads (\n \t \r \0 \\ and the quote's own); every other byte stands for
// itself, so the lexer reads back exactly s.
func quote(s string, q byte) string {
	b := make([]byte, 0, len(s)+2)
	b = append(b, q)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			b = append(b, '\\', 'n')
		case '\t':
			b = append(b, '\\', 't')
		case '\r':
			b = append(b, '\\', 'r')
		case 0:
			b = append(b, '\\', '0')
		case '\\', q:
			b = append(b, '\\', c)
		default:
			b = append(b, c)
		}
	}
	return string(append(b, q))
}

// LValueString renders an l-value.
func LValueString(lv LValue) string {
	switch lv := lv.(type) {
	case *VarLV:
		return lv.Name
	case *DerefLV:
		return "*" + ExprString(lv.Addr)
	case *FieldLV:
		if d, ok := lv.Base.(*DerefLV); ok {
			return fmt.Sprintf("(%s)->%s", ExprString(d.Addr), lv.Field)
		}
		return fmt.Sprintf("%s.%s", LValueString(lv.Base), lv.Field)
	}
	return "?"
}
