package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

var analyzerStreamclose = &Analyzer{
	Name: "streamclose",
	Doc: `enforce that every row stream reaches Close on all paths. A pull
stream obtained from a call — an op.RowStream operator, a *core.Rows
cursor, a sparql.RowReader — owns goroutines, HTTP response bodies, pool
admissions, and spill files until Close releases them; a path that
returns without closing leaks all of that until the surrounding context
dies. Detection is by shape, not by name: any call result with
Next() bool / Err() error / Close() error (a cursor) or
Vars() / Read() (T, error) / Close() error (a reader) is tracked.
Prefer "defer s.Close()"; a stream handed to another function, struct,
or closure is that holder's responsibility, and a return guarded by the
creation's own error check is exempt (the stream is nil there). Built on
the shared resource-lifecycle engine (lifecycle.go).`,
	Run: runStreamclose,
}

func runStreamclose(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, fn := range functionsIn(f) {
			checkStreamsIn(pass, fn)
		}
	}
}

// methodSig looks name up in t's method set — including the pointer method
// set, so addressable values of named types count — and returns its
// signature, or nil.
func methodSig(t types.Type, name string) *types.Signature {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				sig, _ := ms.At(i).Type().(*types.Signature)
				return sig
			}
		}
	}
	return nil
}

func isNiladic(sig *types.Signature, results int) bool {
	return sig != nil && sig.Params().Len() == 0 && !sig.Variadic() && sig.Results().Len() == results
}

func isBoolType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// streamKind classifies t by method shape: "stream" for pull cursors
// (Next() bool, Err() error, Close() error — RowStream operators,
// *core.Rows), "reader" for incremental result decoders (Vars(),
// Read() (T, error), Close() error — sparql.RowReader implementations).
// io.ReadCloser does not match: its Read takes a buffer argument.
func streamKind(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	cl := methodSig(t, "Close")
	if !isNiladic(cl, 1) || !implementsError(cl.Results().At(0).Type()) {
		return "", false
	}
	next, errm := methodSig(t, "Next"), methodSig(t, "Err")
	if isNiladic(next, 1) && isBoolType(next.Results().At(0).Type()) &&
		isNiladic(errm, 1) && implementsError(errm.Results().At(0).Type()) {
		return "stream", true
	}
	read, vars := methodSig(t, "Read"), methodSig(t, "Vars")
	if isNiladic(read, 2) && implementsError(read.Results().At(1).Type()) && isNiladic(vars, 1) {
		return "reader", true
	}
	return "", false
}

func checkStreamsIn(pass *Pass, fn funcNode) {
	parents := parentMap(fn.body)
	walkShallow(fn.body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		tv, ok := pass.Pkg.Info.Types[call]
		if !ok {
			return true
		}
		var results []types.Type
		if tup, ok := tv.Type.(*types.Tuple); ok {
			for i := 0; i < tup.Len(); i++ {
				results = append(results, tup.At(i).Type())
			}
		} else {
			results = []types.Type{tv.Type}
		}
		if len(results) != len(asg.Lhs) {
			return true
		}
		var errObj types.Object
		for i, rt := range results {
			if implementsError(rt) && !isErrorProducer(rt) {
				errObj = identObj(pass.Pkg, asg.Lhs[i])
			}
		}
		for i, rt := range results {
			kind, ok := streamKind(rt)
			if !ok {
				continue
			}
			target, ok := ast.Unparen(asg.Lhs[i]).(*ast.Ident)
			if !ok {
				continue // assigned to a field/element: handed off
			}
			if target.Name == "_" {
				pass.Reportf(call.Pos(), "%s discarded: the result of %s can never be closed; bind it and defer Close()", kind, exprText(call.Fun))
				continue
			}
			obj := assignedObj(pass.Pkg, target)
			if obj == nil {
				continue
			}
			deferred, escaped, closes := classifyResourceUses(pass.Pkg, fn.body, parents, obj, "Close")
			if deferred || escaped {
				continue
			}
			name := target.Name
			checkReleasePaths(pass, pass.Pkg, fn.body, parents,
				resource{pos: call.Pos(), end: asg.End(), errObj: errObj}, false, closes,
				fmt.Sprintf("%s %s is never closed: add defer %s.Close() after the error check", kind, name, name),
				func(retLine int) string {
					return fmt.Sprintf("%s %s may leak on the return at line %d: Close() is not reached on that path; prefer defer %s.Close()",
						kind, name, retLine, name)
				})
		}
		return true
	})
}

// isErrorProducer keeps a stream that itself satisfies error (none do
// today) from being mistaken for the creation's error result.
func isErrorProducer(t types.Type) bool {
	_, ok := streamKind(t)
	return ok
}
