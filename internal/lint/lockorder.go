package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

var analyzerLockorder = &Analyzer{
	Name:   "lockorder",
	Module: true,
	Doc: `statically detect deadlocks: build the lock-ordering graph for every
sync.Mutex/RWMutex in the tree — including acquisitions reached through
calls, via the interprocedural summaries — and report (1) a lock
re-acquired while already held (a guaranteed self-deadlock, possibly
through a helper that locks again), and (2) cycles between lock classes
(function f takes A then B, function g takes B then A: two goroutines
interleaving deadlock both). Locks are classed by owning type and field
("server.ResultCache.mu") or package-level variable; distinct instances of
one class are not ordered against each other.`,
	Run: runLockorder,
}

// lockEdge is one observed ordering: "to" was acquired while "from" was
// held.
type lockEdge struct {
	from, to string
	pos      token.Pos
	// via describes how the second acquisition was reached ("" for a
	// direct Lock, "via call to pkg.F" for a summarized one).
	via string
}

func runLockorder(pass *Pass) {
	prog := pass.Prog
	edges := map[string]map[string]lockEdge{} // from -> to -> first witness

	addEdge := func(from, to string, pos token.Pos, via string) {
		if from == "" || to == "" || from == to {
			return
		}
		m := edges[from]
		if m == nil {
			m = map[string]lockEdge{}
			edges[from] = m
		}
		if old, ok := m[to]; !ok || pos < old.pos {
			m[to] = lockEdge{from: from, to: to, pos: pos, via: via}
		}
	}

	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, fn := range functionsIn(f) {
				recv := funcRecvObj(pkg, fn)
				hooks := lockHooks{
					acquire: func(ref lockRef, held map[string]lockRef) {
						for _, h := range sortedHeld(held) {
							if h.key == ref.key || (h.class != "" && h.class == ref.class && classIsVar(ref.class)) {
								pass.Reportf(ref.pos,
									"%s acquired while already held (locked at line %d): guaranteed self-deadlock",
									ref.key, pass.Fset.Position(h.pos).Line)
								continue
							}
							addEdge(h.class, ref.class, ref.pos, "")
						}
					},
					call: func(call *ast.CallExpr, held map[string]lockRef) {
						callee := prog.FuncOf(pkg, call)
						if callee == nil {
							return
						}
						via := "via call to " + shortFuncID(callee.ID)
						// Instantiate receiver-rooted acquisitions against
						// this call's receiver: same expression text means
						// the same instance — a definite relock.
						recvText := ""
						if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
							recvText = exprText(sel.X)
						}
						for _, field := range sortedKeys(callee.Summary.RecvAcquires) {
							fpos := callee.Summary.RecvAcquires[field]
							instKey := recvText + "." + field
							if h, ok := held[instKey]; ok {
								pass.Reportf(call.Pos(),
									"calling %s while holding %s (locked at line %d): the callee locks %s again (at %s) — guaranteed self-deadlock",
									shortFuncID(callee.ID), instKey, pass.Fset.Position(h.pos).Line,
									instKey, shortPos(pass.Fset, fpos))
							}
						}
						for _, class := range sortedKeys(callee.Summary.Acquires) {
							cpos := callee.Summary.Acquires[class]
							for _, h := range sortedHeld(held) {
								if h.class == class && classIsVar(class) {
									pass.Reportf(call.Pos(),
										"calling %s while holding %s (locked at line %d): the callee locks the same package-level mutex again (at %s) — guaranteed self-deadlock",
										shortFuncID(callee.ID), h.key, pass.Fset.Position(h.pos).Line,
										shortPos(pass.Fset, cpos))
									continue
								}
								addEdge(h.class, class, call.Pos(), via)
							}
						}
					},
				}
				scanLockFlow(pkg, recv, fn.body.List, map[string]lockRef{}, hooks)
			}
		}
	}

	reportLockCycles(pass, edges)
}

// reportLockCycles finds strongly connected components of the lock-class
// digraph and reports one diagnostic per cyclic component, anchored at its
// earliest witness edge.
func reportLockCycles(pass *Pass, edges map[string]map[string]lockEdge) {
	nodes := map[string]bool{}
	for from, m := range edges {
		nodes[from] = true
		for to := range m {
			nodes[to] = true
		}
	}
	ids := make([]string, 0, len(nodes))
	for n := range nodes {
		ids = append(ids, n)
	}
	sort.Strings(ids)

	// Tarjan over lock classes.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var comps [][]string
	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(edges[v]))
		for to := range edges[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				comps = append(comps, comp)
			}
		}
	}
	for _, id := range ids {
		if _, seen := index[id]; !seen {
			strong(id)
		}
	}

	for _, comp := range comps {
		in := map[string]bool{}
		for _, c := range comp {
			in[c] = true
		}
		cycle := shortestCycle(edges, comp, in)
		if len(cycle) == 0 {
			continue
		}
		// Anchor at the earliest witness so the diagnostic is stable and
		// suppressible at one acquisition site.
		anchor := cycle[0]
		for _, e := range cycle {
			if e.pos < anchor.pos {
				anchor = e
			}
		}
		var parts []string
		for _, e := range cycle {
			step := fmt.Sprintf("%s -> %s (%s", shortClass(e.from), shortClass(e.to), shortPos(pass.Fset, e.pos))
			if e.via != "" {
				step += ", " + e.via
			}
			step += ")"
			parts = append(parts, step)
		}
		pass.Reportf(anchor.pos, "lock-order cycle: %s; acquisitions must follow one global order or two goroutines interleaving these paths deadlock",
			strings.Join(parts, "; "))
	}
}

// shortestCycle finds a minimal cycle inside one strongly connected
// component by BFS from its smallest node back to itself.
func shortestCycle(edges map[string]map[string]lockEdge, comp []string, in map[string]bool) []lockEdge {
	sort.Strings(comp)
	start := comp[0]
	type pathNode struct {
		at   string
		path []lockEdge
	}
	queue := []pathNode{{at: start}}
	seen := map[string]bool{}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		tos := make([]string, 0, len(edges[cur.at]))
		for to := range edges[cur.at] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if !in[to] {
				continue
			}
			e := edges[cur.at][to]
			path := append(append([]lockEdge{}, cur.path...), e)
			if to == start {
				return path
			}
			if !seen[to] {
				seen[to] = true
				queue = append(queue, pathNode{at: to, path: path})
			}
		}
	}
	return nil
}

// funcRecvObj resolves the receiver object of a funcNode's declaration,
// nil for plain functions and literals.
func funcRecvObj(pkg *Package, fn funcNode) types.Object {
	if fn.decl == nil {
		return nil
	}
	return recvObjOf(pkg, fn.decl)
}

// classIsVar reports whether a lock class names a package-level variable
// ("pkg/path.mu", one dot after the last slash) rather than a type field
// ("pkg/path.Type.mu", two). Package-level locks are singletons, so class
// identity is instance identity.
func classIsVar(class string) bool {
	tail := class
	if i := strings.LastIndex(class, "/"); i >= 0 {
		tail = class[i+1:]
	}
	return strings.Count(tail, ".") == 1
}

// shortClass trims the module path prefix for readable diagnostics:
// "lusail/internal/server.ResultCache.mu" -> "server.ResultCache.mu".
func shortClass(class string) string {
	if i := strings.LastIndex(class, "/"); i >= 0 {
		return class[i+1:]
	}
	return class
}

// shortFuncID trims the package path of a FuncID the same way.
func shortFuncID(id FuncID) string {
	s := string(id)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		return s[i+1:]
	}
	return s
}

// shortPos renders "file.go:line" with the bare file name, keeping
// diagnostics machine-independent for golden tests.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// sortedKeys returns a map's keys in order, for deterministic reports.
func sortedKeys(m map[string]token.Pos) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedHeld returns the held locks ordered by key for deterministic
// reports.
func sortedHeld(held map[string]lockRef) []lockRef {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]lockRef, 0, len(keys))
	for _, k := range keys {
		out = append(out, held[k])
	}
	return out
}
