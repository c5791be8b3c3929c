package cminor

import (
	"sort"
	"strings"
)

// Type is a cminor type. Qualified types wrap a base type with a set of
// user-defined qualifier names; per the paper, qualifier order is irrelevant
// (rule SubQualReorder), so the set is kept sorted.
type Type interface {
	String() string
	isType()
}

// IntType is the type of int values.
type IntType struct{}

// CharType is the type of char values.
type CharType struct{}

// VoidType is the C void type (function results, void*).
type VoidType struct{}

// PointerType is a pointer to Elem.
type PointerType struct{ Elem Type }

// ArrayType is a fixed-size array; in r-value position it decays to a
// pointer to Elem (the paper's logical memory model treats p+i as having
// p's type).
type ArrayType struct {
	Elem Type
	Size int64
}

// StructType refers to a named struct.
type StructType struct{ Name string }

// FuncType is a function type; used for signatures, not first-class values.
type FuncType struct {
	Params   []Type
	Result   Type
	Variadic bool
}

// QualType attaches user-defined qualifiers to a base type. Base is never
// itself a QualType (construction flattens).
type QualType struct {
	Base  Type
	Quals []string // sorted, unique
}

func (IntType) isType()     {}
func (CharType) isType()    {}
func (VoidType) isType()    {}
func (PointerType) isType() {}
func (ArrayType) isType()   {}
func (StructType) isType()  {}
func (FuncType) isType()    {}
func (QualType) isType()    {}

func (IntType) String() string  { return "int" }
func (CharType) String() string { return "char" }
func (VoidType) String() string { return "void" }

func (t PointerType) String() string { return t.Elem.String() + "*" }

func (t ArrayType) String() string {
	return t.Elem.String() + "[]"
}

func (t StructType) String() string { return "struct " + t.Name }

func (t FuncType) String() string {
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		parts[i] = p.String()
	}
	if t.Variadic {
		parts = append(parts, "...")
	}
	return t.Result.String() + "(" + strings.Join(parts, ", ") + ")"
}

func (t QualType) String() string {
	return t.Base.String() + " " + strings.Join(t.Quals, " ")
}

// Qualify adds qualifier q to t, flattening nested QualTypes and keeping the
// qualifier set sorted and duplicate-free.
func Qualify(t Type, quals ...string) Type {
	if len(quals) == 0 {
		return t
	}
	if _, ok := t.(QualType); !ok && len(quals) == 1 {
		return QualType{Base: t, Quals: []string{quals[0]}} // the parser's case
	}
	base := t
	var all []string
	if qt, ok := t.(QualType); ok {
		base = qt.Base
		all = append(all, qt.Quals...)
	}
	all = append(all, quals...)
	sort.Strings(all)
	uniq := all[:0]
	for i, q := range all {
		if i == 0 || all[i-1] != q {
			uniq = append(uniq, q)
		}
	}
	return QualType{Base: base, Quals: append([]string(nil), uniq...)}
}

// StripQuals removes the top-level qualifiers of t (not recursively).
func StripQuals(t Type) Type {
	if qt, ok := t.(QualType); ok {
		return qt.Base
	}
	return t
}

// QualsOf returns the top-level qualifier names of t (nil if unqualified).
func QualsOf(t Type) []string {
	if qt, ok := t.(QualType); ok {
		return qt.Quals
	}
	return nil
}

// HasQual reports whether q is among t's top-level qualifiers.
func HasQual(t Type, q string) bool {
	for _, x := range QualsOf(t) {
		if x == q {
			return true
		}
	}
	return false
}

// WithoutQual removes qualifier q from t's top-level qualifiers.
func WithoutQual(t Type, q string) Type {
	qt, ok := t.(QualType)
	if !ok {
		return t
	}
	var rest []string
	for _, x := range qt.Quals {
		if x != q {
			rest = append(rest, x)
		}
	}
	if len(rest) == 0 {
		return qt.Base
	}
	return QualType{Base: qt.Base, Quals: rest}
}

// WithoutQuals removes all the named qualifiers from t's top level.
func WithoutQuals(t Type, quals []string) Type {
	out := t
	for _, q := range quals {
		out = WithoutQual(out, q)
	}
	return out
}

// TypeEqual reports structural equality including qualifier sets.
func TypeEqual(a, b Type) bool {
	switch a := a.(type) {
	case IntType:
		_, ok := b.(IntType)
		return ok
	case CharType:
		_, ok := b.(CharType)
		return ok
	case VoidType:
		_, ok := b.(VoidType)
		return ok
	case PointerType:
		b, ok := b.(PointerType)
		return ok && TypeEqual(a.Elem, b.Elem)
	case ArrayType:
		b, ok := b.(ArrayType)
		return ok && a.Size == b.Size && TypeEqual(a.Elem, b.Elem)
	case StructType:
		b, ok := b.(StructType)
		return ok && a.Name == b.Name
	case FuncType:
		b, ok := b.(FuncType)
		if !ok || len(a.Params) != len(b.Params) || a.Variadic != b.Variadic || !TypeEqual(a.Result, b.Result) {
			return false
		}
		for i := range a.Params {
			if !TypeEqual(a.Params[i], b.Params[i]) {
				return false
			}
		}
		return true
	case QualType:
		b, ok := b.(QualType)
		if !ok || len(a.Quals) != len(b.Quals) || !TypeEqual(a.Base, b.Base) {
			return false
		}
		for i := range a.Quals {
			if a.Quals[i] != b.Quals[i] {
				return false
			}
		}
		return true
	}
	return false
}

// BaseTypeEqual reports equality of the types with all qualifiers erased,
// recursively. This is the "ordinary C typechecking" notion of equality.
// Qualifier wrappers are skipped in place rather than erased into freshly
// rebuilt type trees (this comparison is the checker's hottest primitive).
func BaseTypeEqual(a, b Type) bool {
	for {
		if qt, ok := a.(QualType); ok {
			a = qt.Base
			continue
		}
		break
	}
	for {
		if qt, ok := b.(QualType); ok {
			b = qt.Base
			continue
		}
		break
	}
	switch a := a.(type) {
	case IntType:
		_, ok := b.(IntType)
		return ok
	case CharType:
		_, ok := b.(CharType)
		return ok
	case VoidType:
		_, ok := b.(VoidType)
		return ok
	case PointerType:
		b, ok := b.(PointerType)
		return ok && BaseTypeEqual(a.Elem, b.Elem)
	case ArrayType:
		b, ok := b.(ArrayType)
		return ok && a.Size == b.Size && BaseTypeEqual(a.Elem, b.Elem)
	case StructType:
		b, ok := b.(StructType)
		return ok && a.Name == b.Name
	case FuncType:
		b, ok := b.(FuncType)
		if !ok || len(a.Params) != len(b.Params) || a.Variadic != b.Variadic || !BaseTypeEqual(a.Result, b.Result) {
			return false
		}
		for i := range a.Params {
			if !BaseTypeEqual(a.Params[i], b.Params[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// EraseQuals removes all qualifiers from t, recursively.
func EraseQuals(t Type) Type {
	switch t := t.(type) {
	case QualType:
		return EraseQuals(t.Base)
	case PointerType:
		return PointerType{Elem: EraseQuals(t.Elem)}
	case ArrayType:
		return ArrayType{Elem: EraseQuals(t.Elem), Size: t.Size}
	case FuncType:
		params := make([]Type, len(t.Params))
		for i, p := range t.Params {
			params[i] = EraseQuals(p)
		}
		return FuncType{Params: params, Result: EraseQuals(t.Result), Variadic: t.Variadic}
	default:
		return t
	}
}

// Decay converts array types to pointer types (r-value use).
func Decay(t Type) Type {
	switch t := t.(type) {
	case ArrayType:
		return PointerType{Elem: t.Elem}
	case QualType:
		if at, ok := t.Base.(ArrayType); ok {
			return QualType{Base: PointerType{Elem: at.Elem}, Quals: t.Quals}
		}
	}
	return t
}

// IsPointer reports whether t (ignoring top-level qualifiers) is a pointer
// or array type.
func IsPointer(t Type) bool {
	switch StripQuals(t).(type) {
	case PointerType, ArrayType:
		return true
	}
	return false
}

// IsIntegral reports whether t (ignoring top-level qualifiers) is int or
// char.
func IsIntegral(t Type) bool {
	switch StripQuals(t).(type) {
	case IntType, CharType:
		return true
	}
	return false
}

// PointeeOf returns the element type of a pointer or array type (ignoring
// top-level qualifiers); ok is false otherwise.
func PointeeOf(t Type) (Type, bool) {
	switch t := StripQuals(t).(type) {
	case PointerType:
		return t.Elem, true
	case ArrayType:
		return t.Elem, true
	}
	return nil, false
}
