package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file holds lockorder's held-lock flow machinery: a source-order
// walk over a function body that tracks which mutexes are held on each
// path, recursing into control flow with a copy of the held set.

// lockRef identifies one mutex acquisition.
type lockRef struct {
	// key is the instance-ish identity: the rendered lock expression
	// ("s.mu"). Two acquisitions with the same key in one function are the
	// same lock.
	key string
	// class is the cross-function lock class: "pkg/path.Type.field" for a
	// field lock, "pkg/path.var" for a package-level lock, "" for locals
	// and shapes the resolver cannot name.
	class string
	// recvField is the field path rooted at the enclosing method's
	// receiver ("mu", "cache.mu"), or "" when the lock is not
	// receiver-rooted. Call sites use it to instantiate a callee's
	// acquisitions against a concrete receiver.
	recvField string
	pos       token.Pos
}

// lockHooks receives the walker's events.
type lockHooks struct {
	// acquire fires on every Lock/RLock with the locks held so far; ref is
	// the new acquisition, not yet in held (so relocks are visible).
	acquire func(ref lockRef, held map[string]lockRef)
	// call fires for every call expression evaluated while locks are held
	// (lockorder propagates callee acquisitions); lock/unlock calls
	// themselves are not reported.
	call func(call *ast.CallExpr, held map[string]lockRef)
}

// lockCallKey classifies a call as sync lock/unlock and returns the lock
// expression's text key ("s.mu").
func lockCallKey(pkg *Package, call *ast.CallExpr) (key string, lock, unlock bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	obj := calleeOf(pkg, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", false, false
	}
	recv := recvTypeName(obj)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", false, false
	}
	switch obj.Name() {
	case "Lock", "RLock":
		return exprText(sel.X), true, false
	case "Unlock", "RUnlock":
		return exprText(sel.X), false, true
	}
	return "", false, false
}

// lockAcquire classifies call as a mutex Lock/RLock and resolves its
// lockRef. recvObj is the enclosing method's receiver variable (nil for
// plain functions) for receiver-rooted classification.
func lockAcquire(pkg *Package, call *ast.CallExpr, recvObj types.Object) (lockRef, bool) {
	key, lock, _ := lockCallKey(pkg, call)
	if !lock {
		return lockRef{}, false
	}
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr) // lockCallKey guarantees the shape
	ref := lockRef{key: key, pos: call.Pos()}
	ref.class = lockClassOf(pkg, sel.X)
	if recvObj != nil {
		if rest, ok := strings.CutPrefix(key, recvObj.Name()+"."); ok {
			ref.recvField = rest
		}
	}
	return ref, true
}

// lockClassOf names the cross-function class of a lock expression: the
// named type owning the field for "x.f" shapes, the package-qualified name
// for package-level vars, "" otherwise.
func lockClassOf(pkg *Package, lockExpr ast.Expr) string {
	switch e := ast.Unparen(lockExpr).(type) {
	case *ast.SelectorExpr:
		// Package-qualified var: "leaf.Reg" where leaf is a package name.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Path() + "." + e.Sel.Name
			}
		}
		tv, ok := pkg.Info.Types[e.X]
		if !ok {
			return ""
		}
		named, ok := derefType(tv.Type).(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
	case *ast.Ident:
		obj := identObj(pkg, e)
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		// Package-level vars sit directly in the package scope.
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return ""
	}
	return ""
}

// derefType unwraps one level of pointer.
func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// scanLockFlow walks stmts in source order with the held set, firing
// hooks. Function literals are skipped: they run on their own stack (often
// their own goroutine) where the caller's locks are not held — or are, in
// which case the literal's body is scanned when it is visited as its own
// funcNode with an empty held set, an accepted approximation.
func scanLockFlow(pkg *Package, recvObj types.Object, stmts []ast.Stmt, held map[string]lockRef, h lockHooks) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if key, lock, unlock := lockCallKey(pkg, call); lock || unlock {
					if lock {
						ref, _ := lockAcquire(pkg, call, recvObj)
						h.acquire(ref, held)
						held[key] = ref
					} else {
						delete(held, key)
					}
					continue
				}
			}
			scanHeldExpr(pkg, s.X, held, h)
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held for the rest of the
			// function; defer of anything else runs after returns, where
			// held-lock order is out of scope for this lexical walk.
			continue
		case *ast.GoStmt:
			// The goroutine body runs without the caller's locks.
			continue
		case *ast.SelectStmt:
			for _, clause := range s.Body.List {
				if comm, ok := clause.(*ast.CommClause); ok {
					scanLockFlow(pkg, recvObj, comm.Body, copyHeldRefs(held), h)
				}
			}
		case *ast.BlockStmt:
			scanLockFlow(pkg, recvObj, s.List, copyHeldRefs(held), h)
		case *ast.IfStmt:
			if s.Init != nil {
				scanHeldExpr(pkg, s.Init, held, h)
			}
			scanHeldExpr(pkg, s.Cond, held, h)
			scanLockFlow(pkg, recvObj, s.Body.List, copyHeldRefs(held), h)
			if s.Else != nil {
				scanLockFlow(pkg, recvObj, []ast.Stmt{s.Else}, copyHeldRefs(held), h)
			}
		case *ast.ForStmt:
			if s.Cond != nil {
				scanHeldExpr(pkg, s.Cond, held, h)
			}
			scanLockFlow(pkg, recvObj, s.Body.List, copyHeldRefs(held), h)
		case *ast.RangeStmt:
			scanHeldExpr(pkg, s.X, held, h)
			scanLockFlow(pkg, recvObj, s.Body.List, copyHeldRefs(held), h)
		case *ast.SwitchStmt:
			if s.Tag != nil {
				scanHeldExpr(pkg, s.Tag, held, h)
			}
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					scanLockFlow(pkg, recvObj, cc.Body, copyHeldRefs(held), h)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, clause := range s.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					scanLockFlow(pkg, recvObj, cc.Body, copyHeldRefs(held), h)
				}
			}
		case *ast.LabeledStmt:
			scanLockFlow(pkg, recvObj, []ast.Stmt{s.Stmt}, held, h)
		default:
			// Assignments, declarations, returns: scan contained
			// expressions.
			scanHeldExpr(pkg, stmt, held, h)
		}
	}
}

// scanHeldExpr fires the call hook for every call under n (skipping
// nested function literals and lock/unlock calls themselves). Only fires
// while locks are held.
func scanHeldExpr(pkg *Package, n ast.Node, held map[string]lockRef, h lockHooks) {
	if n == nil || len(held) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if _, lock, unlock := lockCallKey(pkg, v); !lock && !unlock {
				h.call(v, held)
			}
		}
		return true
	})
}

func copyHeldRefs(held map[string]lockRef) map[string]lockRef {
	out := make(map[string]lockRef, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}
