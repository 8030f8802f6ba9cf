// Package analyzers holds the tivlint analyzer suite: six checkers,
// each encoding one invariant this codebase's concurrency and wire
// design rests on. See DESIGN.md "machine-checked invariants" for the
// invariant table and the sanctioned suppression mechanism.
package analyzers

import (
	"go/ast"
	"go/types"

	"tivaware/internal/lint/analysis"
)

// EpochImmutability flags writes to state reached through an
// atomic.Pointer Load: the copy-on-write epoch design (tivaware
// epochs, tivd cache entries) publishes immutable snapshots behind
// atomic pointers, and every lock-free reader depends on nobody
// mutating a published snapshot. The PR 6 prober bugs were exactly
// this shape — state loaded from an atomic pointer and then mutated
// in place.
var EpochImmutability = &analysis.Analyzer{
	Name: "epochimmutability",
	Doc: "flag mutation of state reached through atomic.Pointer.Load: " +
		"published copy-on-write snapshots are immutable; build a fresh value and Store it instead",
	Run: runEpochImmutability,
}

func runEpochImmutability(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFuncImmutability(pass, fn.Body)
				}
				return false
			case *ast.FuncLit:
				// Reached only for package-level var initializers;
				// function-body literals are walked by their
				// enclosing declaration below.
				checkFuncImmutability(pass, fn.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// checkFuncImmutability analyzes one function body (closures
// included: snapshot pointers regularly escape into goroutines).
//
// Tracking is by object, flow-insensitive: a variable is a snapshot
// alias when it is ever assigned from an atomic.Pointer Load — or
// from a pointer-shaped path (selector/index chain landing on a
// pointer, slice, or map) rooted at another snapshot alias — and
// never assigned from any other source. The mixed-provenance opt-out
// keeps the check sound against the load-or-allocate pattern
// (e := p.Load(); if e == nil { e = new(...) }) at the cost of
// missing mutations of such variables; single-origin flows, the
// PR 6 bug shape, are always caught.
func checkFuncImmutability(pass *analysis.Pass, body *ast.BlockStmt) {
	fromLoad := map[types.Object]bool{}  // ever assigned from Load / snapshot path
	fromOther := map[types.Object]bool{} // ever assigned from anything else
	var aliasEdges []aliasEdge

	classify := func(lhs, rhs ast.Expr) {
		obj := assignedObject(pass, lhs)
		if obj == nil {
			return
		}
		if isAtomicPointerLoad(pass, rhs) {
			fromLoad[obj] = true
			return
		}
		if root := pathRoot(rhs); root != nil && pointerShaped(obj.Type()) {
			// Alias of a (potential) snapshot interior pointer; the
			// root's classification decides, below, at fixpoint.
			aliasEdges = append(aliasEdges, aliasEdge{from: root, to: obj})
			return
		}
		fromOther[obj] = true
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					classify(s.Lhs[i], s.Rhs[i])
				}
			} else {
				for _, lhs := range s.Lhs {
					if obj := assignedObject(pass, lhs); obj != nil {
						fromOther[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) {
					classify(name, s.Values[i])
				}
			}
		case *ast.RangeStmt:
			// for _, v := range snapshot.slice: v aliases elements of
			// snapshot state when they are pointer-shaped.
			if s.Value != nil {
				classify(s.Value, s.X)
			}
		}
		return true
	})

	// Propagate snapshot provenance across alias edges to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, e := range aliasEdges {
			fromID, _ := e.from.(*ast.Ident)
			if fromID == nil {
				continue
			}
			obj := pass.Info.Uses[fromID]
			if obj == nil {
				continue
			}
			if fromLoad[obj] && !fromLoad[e.to] {
				fromLoad[e.to] = true
				changed = true
			}
		}
	}

	snapshot := func(obj types.Object) bool { return obj != nil && fromLoad[obj] && !fromOther[obj] }

	// A write is a violation when its left-hand side is a path with
	// at least one dereferencing step (selector, index, star) rooted
	// at a snapshot alias or directly at a Load call.
	flagWrite := func(lhs ast.Expr) {
		steps := 0
		e := lhs
	walk:
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				steps++
				e = x.X
			case *ast.IndexExpr:
				steps++
				e = x.X
			case *ast.StarExpr:
				steps++
				e = x.X
			default:
				break walk
			}
		}
		if steps == 0 {
			return // rebinding the variable itself is fine
		}
		switch root := e.(type) {
		case *ast.Ident:
			if snapshot(pass.Info.Uses[root]) {
				pass.Reportf(lhs.Pos(),
					"write to %s mutates state loaded from an atomic pointer; published snapshots are immutable — copy, modify, and Store a fresh value",
					types.ExprString(lhs))
			}
		case *ast.CallExpr:
			if isAtomicPointerLoad(pass, root) {
				pass.Reportf(lhs.Pos(),
					"write through %s mutates the published snapshot in place; copy, modify, and Store a fresh value",
					types.ExprString(lhs))
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				flagWrite(lhs)
			}
		case *ast.IncDecStmt:
			flagWrite(s.X)
		}
		return true
	})
}

type aliasEdge struct {
	from ast.Expr // root identifier of the RHS path
	to   types.Object
}

// assignedObject resolves a plain-identifier assignment target.
func assignedObject(pass *analysis.Pass, lhs ast.Expr) types.Object {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// isAtomicPointerLoad reports whether e is a call to
// (*sync/atomic.Pointer[T]).Load.
func isAtomicPointerLoad(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return false
	}
	s := pass.Info.Selections[sel]
	if s == nil {
		return false
	}
	return analysis.NamedFrom(s.Recv(), "sync/atomic", "Pointer")
}

// pathRoot returns the root identifier of a selector/index path, or
// nil when e is not such a path.
func pathRoot(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// pointerShaped reports whether a value of type t shares memory when
// copied: pointers, slices, and maps. Copying a struct value breaks
// aliasing, so only these propagate snapshot provenance (this is also
// why ranging over a snapshot slice of structs stays legal: the loop
// variable is a copy).
func pointerShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}
