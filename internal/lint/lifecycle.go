package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the resource-lifecycle engine behind streamclose and
// pairedadmission. Both enforce the same shape of invariant — an
// acquisition must reach its release on every return path. The engine owns
// the use classification and the return-path walk; the analyzers supply
// what an acquisition is, what the release is called, and how to word the
// diagnostics.

// resource is one tracked acquisition inside a function body.
type resource struct {
	// pos anchors diagnostics: the acquiring call.
	pos token.Pos
	// end is the end of the acquiring statement; only returns after it are
	// obligated.
	end token.Pos
	// exemptLo/exemptHi bound a source range whose returns are exempt (the
	// rejection branch of a failed admission); zero when unused.
	exemptLo, exemptHi token.Pos
	// errObj is the error bound by the acquiring assignment, if any;
	// returns guarded by a check of it are exempt (the resource was never
	// created on that path).
	errObj types.Object
}

// classifyResourceUses inspects every reference to a resource variable and
// sorts them into: a deferred release (obj.release inside a defer), an
// escape (the resource handed to a call, return, assignment, closure, or
// composite — the holder owns the release from there), or a plain release
// call position. Other method calls on the receiver are ordinary uses and
// constrain nothing.
func classifyResourceUses(pkg *Package, body *ast.BlockStmt, parents map[ast.Node]ast.Node, obj types.Object, releaseName string) (deferred, escaped bool, releases []token.Pos) {
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pkg.Info.Uses[id] != obj {
			return true
		}
		// A reference inside a nested closure hands responsibility to the
		// closure (deferred cleanup funcs, goroutines).
		for p := parents[ast.Node(id)]; p != nil; p = parents[p] {
			if _, ok := p.(*ast.FuncLit); ok {
				escaped = true
				return true
			}
		}
		parent := parents[ast.Node(id)]
		if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == ast.Expr(id) {
			if call, ok := parents[ast.Node(sel)].(*ast.CallExpr); ok && call.Fun == ast.Expr(sel) {
				if sel.Sel.Name == releaseName {
					if _, isDefer := parents[ast.Node(call)].(*ast.DeferStmt); isDefer {
						deferred = true
					} else {
						releases = append(releases, call.Pos())
					}
					return true
				}
				// Any other method on the receiver: a plain use.
				return true
			}
			// Method value or field access: conservative handoff.
			escaped = true
			return true
		}
		// Any other use (argument, return value, re-assignment, composite
		// literal, channel send, comparison...) counts as a handoff, except
		// the defining identifier itself.
		if pkg.Info.Defs[id] == obj {
			return true
		}
		escaped = true
		return true
	})
	return deferred, escaped, releases
}

// checkReleasePaths walks every return path after the acquisition and
// reports the ones that miss a release. neverMsg is the diagnostic when no
// release exists anywhere; leakMsg renders the diagnostic for one escaping
// return line. A deferred release discharges every path at once.
func checkReleasePaths(pass *Pass, pkg *Package, body *ast.BlockStmt, parents map[ast.Node]ast.Node, r resource, deferred bool, releases []token.Pos, neverMsg string, leakMsg func(retLine int) string) {
	if deferred {
		return
	}
	if len(releases) == 0 {
		pass.Reportf(r.pos, "%s", neverMsg)
		return
	}
	block := enclosingBlock(body, r.pos)
	for _, ret := range returnsOf(body) {
		if ret.Pos() <= r.end || ret.Pos() < block.Pos() || ret.End() > block.End() {
			continue
		}
		if r.exemptLo.IsValid() && ret.Pos() >= r.exemptLo && ret.End() <= r.exemptHi {
			continue
		}
		if guardedByErr(pkg, parents, ret, r.errObj) {
			continue // the resource is nil on the creation-failed path
		}
		released := false
		for _, e := range releases {
			if e > r.end && e < ret.Pos() {
				released = true
				break
			}
		}
		if !released {
			pass.Reportf(r.pos, "%s", leakMsg(pass.Fset.Position(ret.Pos()).Line))
		}
	}
}

// guardedByErr reports whether ret sits inside an if statement whose
// condition tests the acquisition's error variable — the canonical
// "if err != nil { return ... }" path, where the resource was never
// created.
func guardedByErr(pkg *Package, parents map[ast.Node]ast.Node, ret *ast.ReturnStmt, errObj types.Object) bool {
	if errObj == nil {
		return false
	}
	for p := parents[ast.Node(ret)]; p != nil; p = parents[p] {
		if ifs, ok := p.(*ast.IfStmt); ok && usesObject(pkg, ifs.Cond, errObj) {
			return true
		}
	}
	return false
}

// assignedObj resolves the object a target identifier binds: a fresh
// definition for :=, the used variable for plain assignment.
func assignedObj(pkg *Package, target *ast.Ident) types.Object {
	if obj := pkg.Info.Defs[target]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[target]
}
