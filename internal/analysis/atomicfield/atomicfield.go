// Package atomicfield checks that struct fields published through
// sync/atomic are never read or written plainly.
//
// The engine's snapshot publication protocol (a session shard's snap and
// its wedge mirror) hinges on every cross-goroutine handoff going
// through an atomic operation: one plain load of a
// published pointer is a data race the randomized oracles only catch if a
// scheduler interleaving happens to trip it. The analyzer makes the
// protocol structural:
//
//   - A field whose type is one of sync/atomic's typed values (Bool,
//     Int32/64, Uint32/64, Uintptr, Pointer[T], Value) may only be used as
//     the receiver of a method call (Load/Store/Swap/...) or have its
//     address taken for delegation. Copying it, assigning to it or
//     comparing it bypasses the atomic protocol and is flagged.
//   - A field whose address is ever passed to a sync/atomic function
//     (atomic.LoadUint64(&s.n), ...) is an old-style atomic field: every
//     other access to it in the package must also be atomic; plain reads
//     and writes are flagged.
package atomicfield

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the atomicfield analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "atomicfield",
	Doc:  "forbid plain access to fields published through sync/atomic",
	Run:  run,
}

// atomicTypeNames are sync/atomic's typed atomic values.
var atomicTypeNames = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

func run(pass *analysis.Pass) error {
	// Pass 1: find old-style atomic fields — fields whose address is an
	// argument to a sync/atomic function somewhere in this package.
	oldStyle := make(map[*types.Var]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicFuncCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				if fld := addressedField(pass, arg); fld != nil {
					oldStyle[fld] = true
				}
			}
			return true
		})
	}

	// Pass 2: flag plain uses. For typed atomic fields every use except a
	// method call or address-taking is plain; for old-style fields every
	// use outside a sync/atomic call argument is plain.
	for _, f := range pass.Files {
		w := &fileWalker{pass: pass, oldStyle: oldStyle}
		w.walk(f)
	}
	return nil
}

// fileWalker walks one file keeping enough ancestry to classify each
// selector use of an atomic field.
type fileWalker struct {
	pass     *analysis.Pass
	oldStyle map[*types.Var]bool
	// stack holds the ancestors of the node being visited.
	stack []ast.Node
}

func (w *fileWalker) walk(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			w.stack = w.stack[:len(w.stack)-1]
			return true
		}
		w.stack = append(w.stack, n)
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fld := w.fieldOf(sel)
		if fld == nil {
			return true
		}
		typed := isAtomicType(fld.Type())
		if !typed && !w.oldStyle[fld] {
			return true
		}
		if typed {
			if !w.typedUseOK() {
				w.pass.Reportf(sel.Pos(),
					"field %s has atomic type %s and must only be accessed through its methods (plain access bypasses the publication protocol)",
					fld.Name(), typeString(fld.Type()))
			}
			return true
		}
		if !w.oldStyleUseOK() {
			w.pass.Reportf(sel.Pos(),
				"field %s is accessed with sync/atomic elsewhere in this package; plain reads and writes race with those atomic accesses",
				fld.Name())
		}
		return true
	})
}

// fieldOf resolves a selector to the struct field it selects, or nil.
func (w *fileWalker) fieldOf(sel *ast.SelectorExpr) *types.Var {
	s, ok := w.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// parent returns the i-th ancestor of the current node (1 = immediate).
func (w *fileWalker) parent(i int) ast.Node {
	if len(w.stack) <= i {
		return nil
	}
	return w.stack[len(w.stack)-1-i]
}

// typedUseOK reports whether the current selector (a typed atomic field)
// is used legally: as the receiver of a method call or behind &.
func (w *fileWalker) typedUseOK() bool {
	switch p := w.parent(1).(type) {
	case *ast.SelectorExpr:
		// s.closed.Load(): the field selector is the X of a method
		// selector that must itself be called.
		if call, ok := w.parent(2).(*ast.CallExpr); ok && call.Fun == p {
			return true
		}
		return false
	case *ast.UnaryExpr:
		return p.Op == token.AND
	}
	return false
}

// oldStyleUseOK reports whether the current selector (an old-style atomic
// field) is used as &field in a sync/atomic call argument.
func (w *fileWalker) oldStyleUseOK() bool {
	u, ok := w.parent(1).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return false
	}
	call, ok := w.parent(2).(*ast.CallExpr)
	return ok && isAtomicFuncCall(w.pass, call)
}

// addressedField returns the struct field behind an &x.f argument, or nil.
func addressedField(pass *analysis.Pass, arg ast.Expr) *types.Var {
	u, ok := arg.(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	sel, ok := u.X.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// isAtomicFuncCall reports whether call invokes a function from
// sync/atomic (LoadUint64, StorePointer, AddInt64, ...).
func isAtomicFuncCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic"
}

// isAtomicType reports whether t is one of sync/atomic's typed values.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		// Generic instances (atomic.Pointer[T]) are *types.Named too;
		// aliases resolve through Underlying only, so unalias first.
		if alias, okA := t.(*types.Alias); okA {
			return isAtomicType(types.Unalias(alias))
		}
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && atomicTypeNames[obj.Name()]
}

func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
