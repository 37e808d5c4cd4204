// Package lockheld checks the suite's two mutex annotations:
//
//	lmfao:requires <mu>      — the function must only be called with <mu> held
//	lmfao:acquires <mu>[.R]  — the function body must lock and release <mu>
//
// The engine splits locked operations in two: an exported entry point that
// acquires a mutex, and *Locked helpers that assume it is held
// (publishLocked, runLocked, applyLocked under writerMu). Calling a
// *Locked helper without the lock corrupts shared state without tripping
// any runtime check, and removing a lock acquisition from an entry point
// reintroduces the sharded-session shutdown race fixed in the serving-tier
// PR (a writer must accept jobs only under closeMu.R, so Close cannot tear
// a shard down under an accepted Run). This analyzer makes both directions
// machine-checked.
//
// The call-site rule is lexical, not control-flow based: a call to a
// requires-annotated function is considered guarded when the enclosing
// declared function either carries a matching requires/acquires annotation
// itself, or contains an earlier <recv>.<mu>.Lock()/RLock() with no
// intervening plain release of <mu>. Deferred releases never end the
// guard, and neither do bail-out releases — an Unlock immediately followed
// by a return/branch statement, the error-exit idiom. Mutexes are matched
// by field name, so distinctly named mutexes (writerMu, closeMu, mergeMu)
// are tracked independently; two locks that share a name are
// conservatively conflated.
package lockheld

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/annotations"
)

// Analyzer is the lockheld analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockheld",
	Doc:  "enforce lmfao:requires and lmfao:acquires mutex annotations",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	requires := requiredMutexes(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkAcquires(pass, fd)
			checkCalls(pass, requires, fd)
		}
	}
	return nil
}

// requiredMutexes maps each function annotated lmfao:requires to the name
// of the mutex it demands. Only same-package callees are visible: the
// engine keeps *Locked helpers unexported, so every caller is in scope.
func requiredMutexes(pass *analysis.Pass) map[*types.Func]string {
	req := map[*types.Func]string{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			mu, ok := annotations.Arg(fd.Doc, annotations.Requires)
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				req[fn] = mu
			}
		}
	}
	return req
}

// checkAcquires verifies that a function annotated lmfao:acquires <mu>[.R]
// actually contains the matching acquire and release calls. This is the
// regression guard: deleting the closeMu.RLock from writer.submit fails
// here, not in a rare shutdown interleaving.
func checkAcquires(pass *analysis.Pass, fd *ast.FuncDecl) {
	for _, d := range annotations.Parse(fd.Doc) {
		if d.Name != annotations.Acquires {
			continue
		}
		mu, read := strings.CutSuffix(d.Args, ".R")
		lock, unlock := "Lock", "Unlock"
		if read {
			lock, unlock = "RLock", "RUnlock"
		}
		var haveLock, haveUnlock bool
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name, op := mutexOp(call); name == mu {
					switch op {
					case lock:
						haveLock = true
					case unlock:
						haveUnlock = true
					}
				}
			}
			return true
		})
		if !haveLock {
			pass.Reportf(fd.Name.Pos(), "%s is annotated lmfao:acquires %s but never calls %s.%s", fd.Name.Name, d.Args, mu, lock)
		} else if !haveUnlock {
			pass.Reportf(fd.Name.Pos(), "%s is annotated lmfao:acquires %s but never calls %s.%s", fd.Name.Name, d.Args, mu, unlock)
		}
	}
}

// lockEvent is one lexical mutex operation inside a function body.
type lockEvent struct {
	pos     token.Pos
	mu      string
	op      string // Lock, RLock, Unlock, RUnlock
	defers  bool   // wrapped in a defer statement
	bailout bool   // release immediately followed by return/branch
}

// checkCalls flags calls to requires-annotated functions that are not
// lexically guarded by the demanded mutex.
func checkCalls(pass *analysis.Pass, requires map[*types.Func]string, fd *ast.FuncDecl) {
	held := heldMutexes(fd)

	var events []lockEvent
	deferredCalls := map[*ast.CallExpr]bool{}
	bailoutCalls := bailouts(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferredCalls[n.Call] = true
		case *ast.CallExpr:
			if name, op := mutexOp(n); op != "" {
				events = append(events, lockEvent{
					pos:     n.Pos(),
					mu:      name,
					op:      op,
					defers:  deferredCalls[n],
					bailout: bailoutCalls[n],
				})
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil {
			return true
		}
		mu, ok := requires[fn]
		if !ok || held[mu] {
			return true
		}
		if !guardedAt(events, mu, call.Pos()) {
			pass.Reportf(call.Pos(), "call to %s requires %s held (lmfao:requires %s), but no lock of %s is in effect here", fn.Name(), mu, mu, mu)
		}
		return true
	})
}

// heldMutexes returns the mutexes the function may assume held for its
// whole body, from its own requires/acquires annotations.
func heldMutexes(fd *ast.FuncDecl) map[string]bool {
	held := map[string]bool{}
	for _, d := range annotations.Parse(fd.Doc) {
		if d.Name == annotations.Requires || d.Name == annotations.Acquires {
			held[strings.TrimSuffix(d.Args, ".R")] = true
		}
	}
	return held
}

// guardedAt reports whether mutex mu is lexically held at pos: some
// earlier Lock/RLock of mu with no plain (non-deferred, non-bailout)
// release between it and pos.
func guardedAt(events []lockEvent, mu string, pos token.Pos) bool {
	lock := token.NoPos
	for _, e := range events {
		if e.mu != mu || e.pos >= pos {
			continue
		}
		switch e.op {
		case "Lock", "RLock":
			if e.pos > lock {
				lock = e.pos
			}
		}
	}
	if lock == token.NoPos {
		return false
	}
	for _, e := range events {
		if e.mu != mu || e.defers || e.bailout {
			continue
		}
		if (e.op == "Unlock" || e.op == "RUnlock") && e.pos > lock && e.pos < pos {
			return false
		}
	}
	return true
}

// bailouts marks release calls whose statement is immediately followed by
// a return or branch statement — the error-exit idiom, which never
// reaches the code below it.
func bailouts(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i := 0; i+1 < len(block.List); i++ {
			es, ok := block.List[i].(*ast.ExprStmt)
			if !ok {
				continue
			}
			switch block.List[i+1].(type) {
			case *ast.ReturnStmt, *ast.BranchStmt:
			default:
				continue
			}
			if call, ok := es.X.(*ast.CallExpr); ok {
				if _, op := mutexOp(call); op == "Unlock" || op == "RUnlock" {
					out[call] = true
				}
			}
		}
		return true
	})
	return out
}

// mutexOp decomposes a call like s.writerMu.Lock() or mu.RUnlock() into
// the mutex name and the operation, or ("", "").
func mutexOp(call *ast.CallExpr) (mu, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		return x.Name, sel.Sel.Name
	case *ast.SelectorExpr:
		return x.Sel.Name, sel.Sel.Name
	}
	return "", ""
}

// calleeFunc resolves the called function's type object, or nil.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}
