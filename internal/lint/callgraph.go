package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer: a module-wide call graph over
// every declared function in the analyzed packages, plus per-function
// summaries computed bottom-up over strongly connected components. The
// intra-procedural analyzers see one body at a time; the summaries are how
// lockorder and budgetbound see through a call — a helper that locks
// again, a wrapper that enforces the byte budget.
//
// The graph covers statically resolved calls to declared functions and
// methods of the analyzed packages. Calls through function values,
// interface methods, and packages outside the analysis set resolve to
// nothing and contribute empty summaries — a deliberate under-
// approximation: the analyzers stay quiet rather than guess.

// FuncID names a declared function across the program:
// "pkg/path.Name" for functions, "pkg/path.(Recv).Name" for methods.
type FuncID string

// funcID derives the FuncID for a function object, or "" when obj is not a
// declared function of a named package.
func funcID(obj types.Object) FuncID {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if recv := recvTypeName(fn); recv != "" {
		return FuncID(fn.Pkg().Path() + ".(" + recv + ")." + fn.Name())
	}
	return FuncID(fn.Pkg().Path() + "." + fn.Name())
}

// callSite is one statically resolved call out of a function body.
type callSite struct {
	callee FuncID
	call   *ast.CallExpr
	// recvText is the rendered receiver expression for method calls
	// ("s.cache"), used to instantiate the callee's receiver-rooted lock
	// acquisitions at this site.
	recvText string
	// inGo marks calls lexically inside a `go func(){...}` literal: they
	// run on another stack, so lock effects do not propagate to the
	// spawning function.
	inGo bool
}

// Summary is one function's bottom-up effect summary. All fields are
// transitive over the call graph except where noted.
type Summary struct {
	// Acquires maps lock classes this function may acquire — directly or
	// through any call path — to a witness position.
	Acquires map[string]token.Pos
	// RecvAcquires maps receiver-rooted lock field paths ("mu",
	// "cache.mu") that a method may lock on its own receiver, directly or
	// via same-receiver calls. Call sites instantiate these against the
	// concrete receiver expression to catch same-instance relocks.
	RecvAcquires map[string]token.Pos
	// BudgetGuard: the function compares one of its integer parameters
	// against a bound — the shape of a budget-check wrapper.
	BudgetGuard bool
}

// FuncInfo is one declared function in the program.
type FuncInfo struct {
	ID      FuncID
	Decl    *ast.FuncDecl
	Pkg     *Package
	RecvObj types.Object // receiver variable, nil for plain functions
	Calls   []callSite
	Summary Summary
}

// Program is the module-wide interprocedural view handed to Module
// analyzers.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Funcs map[FuncID]*FuncInfo
	// order lists functions callees-first (reverse topological over SCCs);
	// mutually recursive groups are contiguous.
	order []*FuncInfo
}

// FuncOf resolves a call expression (in pkg) to the FuncInfo it invokes,
// or nil for unresolved callees.
func (prog *Program) FuncOf(pkg *Package, call *ast.CallExpr) *FuncInfo {
	obj := calleeOf(pkg, call)
	if obj == nil {
		return nil
	}
	return prog.Funcs[funcID(obj)]
}

// BuildProgram constructs the call graph and computes summaries for every
// function declared in pkgs.
func BuildProgram(pkgs []*Package, fset *token.FileSet) *Program {
	prog := &Program{Fset: fset, Pkgs: pkgs, Funcs: map[FuncID]*FuncInfo{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				id := funcID(obj)
				if id == "" {
					continue
				}
				fi := &FuncInfo{ID: id, Decl: fd, Pkg: pkg, RecvObj: recvObjOf(pkg, fd)}
				fi.Calls = collectCalls(pkg, fd.Body)
				prog.Funcs[id] = fi
			}
		}
	}
	prog.order = prog.sccOrder()
	prog.computeSummaries()
	return prog
}

// recvObjOf returns the object of the method's receiver variable, or nil.
func recvObjOf(pkg *Package, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pkg.Info.Defs[fd.Recv.List[0].Names[0]]
}

// collectCalls gathers the statically resolved calls under body, tracking
// whether each sits inside a go-statement function literal.
func collectCalls(pkg *Package, body *ast.BlockStmt) []callSite {
	var out []callSite
	var walk func(n ast.Node, inGo bool)
	walk = func(n ast.Node, inGo bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.GoStmt:
				// The spawned call itself, and everything inside a spawned
				// literal, runs on another stack.
				walk(v.Call, true)
				return false
			case *ast.CallExpr:
				obj := calleeOf(pkg, v)
				if id := funcID(obj); id != "" {
					site := callSite{callee: id, call: v, inGo: inGo}
					if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok && recvTypeName(obj) != "" {
						site.recvText = exprText(sel.X)
					}
					out = append(out, site)
				}
			}
			return true
		})
	}
	walk(body, false)
	return out
}

// sccOrder returns every function callees-first: Tarjan's strongly
// connected components emitted in reverse topological order, so by the
// time a function is summarized its callees (outside its own recursion
// group) already are.
func (prog *Program) sccOrder() []*FuncInfo {
	ids := make([]FuncID, 0, len(prog.Funcs))
	for id := range prog.Funcs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	index := map[FuncID]int{}
	low := map[FuncID]int{}
	onStack := map[FuncID]bool{}
	var stack []FuncID
	var order []*FuncInfo
	next := 0

	var strong func(id FuncID)
	strong = func(id FuncID) {
		index[id] = next
		low[id] = next
		next++
		stack = append(stack, id)
		onStack[id] = true
		for _, cs := range prog.Funcs[id].Calls {
			w := cs.callee
			if prog.Funcs[w] == nil {
				continue
			}
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[id] {
					low[id] = low[w]
				}
			} else if onStack[w] && index[w] < low[id] {
				low[id] = index[w]
			}
		}
		if low[id] == index[id] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				order = append(order, prog.Funcs[w])
				if w == id {
					break
				}
			}
		}
	}
	for _, id := range ids {
		if _, seen := index[id]; !seen {
			strong(id)
		}
	}
	return order
}

// computeSummaries seeds each function's direct effects, then propagates
// callee summaries in callees-first order, iterating to a fixpoint so
// mutually recursive groups converge (every field only grows).
func (prog *Program) computeSummaries() {
	for _, fi := range prog.order {
		seedSummary(fi)
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.order {
			if prog.propagate(fi) {
				changed = true
			}
		}
	}
}

// propagate folds callee summaries into fi's, reporting whether anything
// grew.
func (prog *Program) propagate(fi *FuncInfo) bool {
	changed := false
	recvName := ""
	if fi.RecvObj != nil {
		recvName = fi.RecvObj.Name()
	}
	for _, cs := range fi.Calls {
		callee := prog.Funcs[cs.callee]
		if callee == nil || cs.inGo {
			continue
		}
		for class, pos := range callee.Summary.Acquires {
			if _, ok := fi.Summary.Acquires[class]; !ok {
				fi.Summary.Acquires[class] = pos
				changed = true
			}
		}
		for field, pos := range callee.Summary.RecvAcquires {
			// A same-receiver call (c.inner() from a method on c) keeps the
			// acquisition receiver-rooted in the caller too.
			if recvName != "" && cs.recvText == recvName {
				if _, ok := fi.Summary.RecvAcquires[field]; !ok {
					fi.Summary.RecvAcquires[field] = pos
					changed = true
				}
			}
			// Class-level effect regardless of instance.
			if class := classOfRecvField(callee, field); class != "" {
				if _, ok := fi.Summary.Acquires[class]; !ok {
					fi.Summary.Acquires[class] = pos
					changed = true
				}
			}
		}
		if callee.Summary.BudgetGuard && callPassesIntParam(fi, cs.call) && !fi.Summary.BudgetGuard {
			fi.Summary.BudgetGuard = true
			changed = true
		}
	}
	return changed
}

// classOfRecvField renders the lock class of a receiver-rooted field path
// on the callee's receiver type ("pkg.Type.mu").
func classOfRecvField(callee *FuncInfo, field string) string {
	recv := recvTypeName(callee.Pkg.Info.Defs[callee.Decl.Name])
	if recv == "" {
		return ""
	}
	// Only single-segment paths name a field of the receiver type itself;
	// deeper paths ("cache.mu") belong to the nested type's class, which
	// the callee's own Acquires entry already covers.
	if strings.Contains(field, ".") {
		return ""
	}
	return callee.Pkg.Path + "." + recv + "." + field
}

// callPassesIntParam reports whether any argument of call mentions an
// integer-typed parameter of the enclosing function — the budget value
// being forwarded into a guard wrapper.
func callPassesIntParam(fi *FuncInfo, call *ast.CallExpr) bool {
	params := map[types.Object]bool{}
	if fi.Decl.Type.Params != nil {
		for _, field := range fi.Decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := fi.Pkg.Info.Defs[name]; obj != nil && isIntegerType(obj.Type()) {
					params[obj] = true
				}
			}
		}
	}
	if len(params) == 0 {
		return false
	}
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && params[fi.Pkg.Info.Uses[id]] {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// seedSummary computes fi's direct (non-transitive) effects.
func seedSummary(fi *FuncInfo) {
	fi.Summary.Acquires = map[string]token.Pos{}
	fi.Summary.RecvAcquires = map[string]token.Pos{}
	pkg := fi.Pkg

	// Direct lock acquisitions, skipping go-statement literals (another
	// stack) but descending into ordinary and deferred literals, which run
	// in this frame.
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.GoStmt:
				return false
			case *ast.CallExpr:
				if ref, ok := lockAcquire(pkg, v, fi.RecvObj); ok {
					if _, seen := fi.Summary.Acquires[ref.class]; !seen && ref.class != "" {
						fi.Summary.Acquires[ref.class] = v.Pos()
					}
					if ref.recvField != "" {
						if _, seen := fi.Summary.RecvAcquires[ref.recvField]; !seen {
							fi.Summary.RecvAcquires[ref.recvField] = v.Pos()
						}
					}
				}
			}
			return true
		})
	}
	walk(fi.Decl.Body)

	fi.Summary.BudgetGuard = directBudgetGuard(fi)
}

// directBudgetGuard reports whether the function compares one of its
// integer parameters against a bound.
func directBudgetGuard(fi *FuncInfo) bool {
	params := map[types.Object]bool{}
	if fi.Decl.Type.Params != nil {
		for _, field := range fi.Decl.Type.Params.List {
			for _, name := range field.Names {
				if obj := fi.Pkg.Info.Defs[name]; obj != nil && isIntegerType(obj.Type()) {
					params[obj] = true
				}
			}
		}
	}
	if len(params) == 0 {
		return false
	}
	found := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || !isOrderingOp(b.Op) {
			return !found
		}
		for _, side := range []ast.Expr{b.X, b.Y} {
			ast.Inspect(side, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && params[fi.Pkg.Info.Uses[id]] {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func isOrderingOp(op token.Token) bool {
	return op == token.LSS || op == token.LEQ || op == token.GTR || op == token.GEQ
}
