// Package query defines the aggregate query IR evaluated by the engine:
//
//	Q(F1,...,Ff; α1,...,αl) += R1(ω1), ..., Rm(ωm)
//
// following the paper's query language (§1.1, §2). Each aggregate α is a sum
// of products of unary functions (UDAFs) over attributes:
//
//	α = Σ_j  c_j · Π_k f_jk(X_jk)
//
// Counts, sums, sums of powers, decision-tree predicates (Kronecker deltas
// 1_{X op t}), one-hot interactions and custom UDFs are all expressible.
package query

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/data"
)

// FactorKind enumerates the built-in unary function shapes. Built-in shapes
// are known to the compilation layer, which specializes them; Custom
// functions are called through a closure (and may be Dynamic, i.e. replaced
// between iterations as in decision-tree learning).
type FactorKind uint8

const (
	// Const is the constant function f() = Value (no attribute).
	Const FactorKind = iota
	// Ident is the identity f(X) = X.
	Ident
	// Pow is f(X) = X^Exp for integer Exp >= 1.
	Pow
	// Indicator is the Kronecker delta f(X) = 1_{X Op Threshold}.
	Indicator
	// InSet is f(X) = 1_{X ∈ Set} for discrete X.
	InSet
	// Log is f(X) = ln(X).
	Log
	// Custom is an arbitrary user-defined unary function.
	Custom
)

// CmpOp is the comparison operator of an Indicator factor.
type CmpOp uint8

const (
	LE CmpOp = iota
	LT
	GE
	GT
	EQ
	NE
)

// String returns the SQL-ish spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case LE:
		return "<="
	case LT:
		return "<"
	case GE:
		return ">="
	case GT:
		return ">"
	case EQ:
		return "="
	case NE:
		return "<>"
	}
	return "?"
}

// Compare applies the operator to (x, t).
func (op CmpOp) Compare(x, t float64) bool {
	switch op {
	case LE:
		return x <= t
	case LT:
		return x < t
	case GE:
		return x >= t
	case GT:
		return x > t
	case EQ:
		return x == t
	case NE:
		return x != t
	}
	return false
}

// Factor is one unary function application f(Attr). Exactly which fields are
// meaningful depends on Kind.
type Factor struct {
	Kind      FactorKind
	Attr      data.AttrID
	Value     float64 // Const value
	Exp       int     // Pow exponent
	Op        CmpOp   // Indicator operator
	Threshold float64 // Indicator threshold
	Set       []int64 // InSet membership (sorted)
	Fn        func(float64) float64
	Name      string // identifies Custom functions for sharing/merging
	Dynamic   bool   // Custom function replaced between iterations
}

// ConstF returns the constant factor c.
func ConstF(c float64) Factor { return Factor{Kind: Const, Value: c} }

// IdentF returns the identity factor over attr.
func IdentF(attr data.AttrID) Factor { return Factor{Kind: Ident, Attr: attr} }

// PowF returns the power factor attr^exp.
func PowF(attr data.AttrID, exp int) Factor { return Factor{Kind: Pow, Attr: attr, Exp: exp} }

// IndicatorF returns the Kronecker delta 1_{attr op t}.
func IndicatorF(attr data.AttrID, op CmpOp, t float64) Factor {
	return Factor{Kind: Indicator, Attr: attr, Op: op, Threshold: t}
}

// InSetF returns 1_{attr ∈ set}. The set is copied and sorted.
func InSetF(attr data.AttrID, set []int64) Factor {
	s := append([]int64(nil), set...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return Factor{Kind: InSet, Attr: attr, Set: s}
}

// LogF returns ln(attr).
func LogF(attr data.AttrID) Factor { return Factor{Kind: Log, Attr: attr} }

// CustomF returns a user-defined unary factor. name must uniquely identify
// fn's behaviour: factors with equal names are assumed interchangeable by the
// view-merging layer.
func CustomF(name string, attr data.AttrID, fn func(float64) float64) Factor {
	return Factor{Kind: Custom, Attr: attr, Fn: fn, Name: name}
}

// DynamicF is CustomF for functions that change between iterations (the
// paper's "dynamic functions", §1.2): they are never inlined or merged by
// name across plan rebuilds.
func DynamicF(name string, attr data.AttrID, fn func(float64) float64) Factor {
	f := CustomF(name, attr, fn)
	f.Dynamic = true
	return f
}

// HasAttr reports whether the factor reads an attribute (false for Const).
func (f Factor) HasAttr() bool { return f.Kind != Const }

// Eval applies the factor to an attribute value (ignored for Const).
func (f Factor) Eval(x float64) float64 {
	switch f.Kind {
	case Const:
		return f.Value
	case Ident:
		return x
	case Pow:
		p := x
		for i := 1; i < f.Exp; i++ {
			p *= x
		}
		return p
	case Indicator:
		if f.Op.Compare(x, f.Threshold) {
			return 1
		}
		return 0
	case InSet:
		v := int64(x)
		i := sort.Search(len(f.Set), func(i int) bool { return f.Set[i] >= v })
		if i < len(f.Set) && f.Set[i] == v {
			return 1
		}
		return 0
	case Log:
		return math.Log(x)
	case Custom:
		return f.Fn(x)
	}
	panic(fmt.Sprintf("query: unknown factor kind %d", f.Kind))
}

// Compile returns a monomorphic closure evaluating the factor. This is the
// unit of the engine's closure-compilation layer: built-in shapes become
// direct arithmetic with no switch in the loop.
func (f Factor) Compile() func(float64) float64 {
	switch f.Kind {
	case Const:
		c := f.Value
		return func(float64) float64 { return c }
	case Ident:
		return func(x float64) float64 { return x }
	case Pow:
		switch f.Exp {
		case 1:
			return func(x float64) float64 { return x }
		case 2:
			return func(x float64) float64 { return x * x }
		case 3:
			return func(x float64) float64 { return x * x * x }
		default:
			e := f.Exp
			return func(x float64) float64 {
				p := x
				for i := 1; i < e; i++ {
					p *= x
				}
				return p
			}
		}
	case Indicator:
		t := f.Threshold
		switch f.Op {
		case LE:
			return func(x float64) float64 {
				if x <= t {
					return 1
				}
				return 0
			}
		case LT:
			return func(x float64) float64 {
				if x < t {
					return 1
				}
				return 0
			}
		case GE:
			return func(x float64) float64 {
				if x >= t {
					return 1
				}
				return 0
			}
		case GT:
			return func(x float64) float64 {
				if x > t {
					return 1
				}
				return 0
			}
		case EQ:
			return func(x float64) float64 {
				if x == t {
					return 1
				}
				return 0
			}
		default:
			return func(x float64) float64 {
				if x != t {
					return 1
				}
				return 0
			}
		}
	case InSet:
		if len(f.Set) <= 4 {
			set := f.Set
			return func(x float64) float64 {
				v := int64(x)
				for _, s := range set {
					if s == v {
						return 1
					}
				}
				return 0
			}
		}
		m := make(map[int64]struct{}, len(f.Set))
		for _, s := range f.Set {
			m[s] = struct{}{}
		}
		return func(x float64) float64 {
			if _, ok := m[int64(x)]; ok {
				return 1
			}
			return 0
		}
	case Log:
		return math.Log
	case Custom:
		return f.Fn
	}
	panic(fmt.Sprintf("query: unknown factor kind %d", f.Kind))
}

// Signature returns a structural identity string used for sharing and
// merging. Dynamic custom functions are never merged, so their signature
// includes their (required-unique) name and a dynamic marker.
func (f Factor) Signature() string { return string(f.AppendSignature(nil)) }

// AppendSignature appends the bytes of Signature to dst. Numbers are written
// as fmt's %d and %g would write them, without fmt's cost: planning builds a
// signature for every factor of every pushed-down aggregate.
func (f Factor) AppendSignature(dst []byte) []byte {
	attr := func(b []byte) []byte { return strconv.AppendInt(append(b, 'x'), int64(f.Attr), 10) }
	switch f.Kind {
	case Const:
		dst = append(strconv.AppendFloat(append(dst, "c("...), f.Value, 'g', -1, 64), ')')
	case Ident:
		dst = attr(dst)
	case Pow:
		dst = strconv.AppendInt(append(attr(dst), '^'), int64(f.Exp), 10)
	case Indicator:
		dst = append(attr(append(dst, "1["...)), f.Op.String()...)
		dst = append(strconv.AppendFloat(dst, f.Threshold, 'g', -1, 64), ']')
	case InSet:
		dst = append(attr(append(dst, "1["...)), " in ["...)
		for i, v := range f.Set {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = strconv.AppendInt(dst, v, 10)
		}
		dst = append(dst, "]]"...)
	case Log:
		dst = append(attr(append(dst, "log("...)), ')')
	case Custom:
		dst = append(attr(append(append(dst, "udf:"...), f.Name+"("...)), ')')
		if f.Dynamic {
			dst = append(dst, "!dyn"...)
		}
	}
	return dst
}
