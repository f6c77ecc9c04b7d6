package lint

import (
	"go/ast"
)

var analyzerCtxflow = &Analyzer{
	Name: "ctxflow",
	Doc: `enforce that cancellation flows from the caller: no context.Background()/
context.TODO() outside package main, tests, and justified roots, and no
dead context.Context parameters. Every remote request and goroutine the
engine issues must be cancellable from the query that caused it; a context
fabricated mid-stack detaches that subtree from cancellation and leaks
work past query teardown.`,
	Run: runCtxflow,
}

func runCtxflow(pass *Pass) {
	if pass.Pkg.Types != nil && pass.Pkg.Types.Name() == "main" {
		return
	}
	for _, f := range pass.Pkg.Files {
		// Rule 1: context fabricated mid-stack.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeOf(pass.Pkg, call)
			for _, name := range []string{"Background", "TODO"} {
				if isFunc(obj, "context", name) {
					pass.Reportf(call.Pos(),
						"context.%s() outside main/tests: accept and thread the caller's context.Context (suppress with %s ctxflow -- <why> for a true root)",
						name, directivePrefix)
				}
			}
			return true
		})
		// Rule 2: a context.Context parameter that is never used — the
		// function promises cancellation flow but drops it on the floor.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Params == nil {
				continue
			}
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if name.Name == "_" {
						continue
					}
					obj := pass.Pkg.Info.Defs[name]
					if obj == nil || !isContextType(obj.Type()) {
						continue
					}
					if !usesObject(pass.Pkg, fd.Body, obj) {
						pass.Reportf(name.Pos(),
							"context.Context parameter %q is unused: thread it to callees, or rename it to _ if the signature is fixed by an interface",
							name.Name)
					}
				}
			}
		}
	}
}
