package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"tivaware/internal/lint/analysis"
)

// lockOrders declares the established lock hierarchy per package
// (matched by import-path suffix): a mutex may only be acquired while
// holding mutexes that appear EARLIER in its package's list. These
// are the orders the deadlock-freedom arguments in DESIGN.md rest on:
//
//   - tivshard: ApplyBatch holds the update sequencer applyMu,
//     journals under journalMu inside that critical section, and
//     delivers the change set inside it too, which takes the
//     subscription registry subMu (applyMu < subMu); subMu is
//     leaf-level (never held across a callback or another acquisition).
//   - tivaware: the epoch-build mutex mu is released before fan-out
//     takes the registry lock subMu, so mu < subMu — subMu is a leaf.
//   - tivd: the query-cache mu and the SSE registry subMu are
//     independent today; declaring mu < subMu pins the direction any
//     future nesting must take.
var lockOrders = map[string][]string{
	"internal/tivshard": {"applyMu", "journalMu", "subMu"},
	"internal/tivaware": {"mu", "subMu"},
	"internal/tivd":     {"mu", "subMu"},
}

// LockOrder enforces the structural half of the deadlock-freedom
// argument: named mutexes nest only in the declared per-package order,
// and never re-enter. The analysis is per function, source order, with
// same-package call summaries: calling a function that (transitively)
// acquires a lock counts as acquiring it at the call site. Goroutine
// and deferred closures are analyzed with an empty held set — they do
// not run under the launcher's locks.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "enforce the declared mutex hierarchy (tivshard applyMu < journalMu < subMu; " +
		"tivaware/tivd mu < subMu)",
	Run: runLockOrder,
}

func runLockOrder(pass *analysis.Pass) error {
	var order []string
	for suffix, o := range lockOrders {
		if analysis.PathHasSuffix(strings.TrimSuffix(pass.Path, "_test"), suffix) {
			order = o
			break
		}
	}
	if order == nil {
		return nil
	}
	rank := map[string]int{}
	for i, name := range order {
		rank[name] = i
	}
	// Pass 1: per-function summaries — the set of declared locks a
	// function acquires anywhere in its body (closures included),
	// closed transitively over same-package calls.
	type funcInfo struct {
		decl     *ast.FuncDecl
		acquires map[string]bool
		calls    map[*types.Func]bool
	}
	infos := map[*types.Func]*funcInfo{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			fi := &funcInfo{decl: fd, acquires: map[string]bool{}, calls: map[*types.Func]bool{}}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if name, kind := lockCall(pass, call, rank); kind == lockAcquire {
						fi.acquires[name] = true
					} else if kind == lockNone {
						if callee := staticCallee(pass, call); callee != nil {
							fi.calls[callee] = true
						}
					}
				}
				return true
			})
			infos[obj] = fi
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			for callee := range fi.calls {
				ci := infos[callee]
				if ci == nil {
					continue
				}
				for name := range ci.acquires {
					if !fi.acquires[name] {
						fi.acquires[name] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: walk each function in source order tracking the held
	// set, flagging order-inverting acquisitions (direct, or through
	// a summarized callee).
	w := &lockWalker{
		pass: pass,
		rank: rank,
		summary: func(fn *types.Func) map[string]bool {
			if fi := infos[fn]; fi != nil {
				return fi.acquires
			}
			return nil
		},
	}
	for _, fi := range infos {
		held := []string{}
		w.walkStmts(fi.decl.Body.List, &held)
	}
	return nil
}

type lockKind int

const (
	lockNone lockKind = iota
	lockAcquire
	lockRelease
)

// lockCall classifies a call as Lock/Unlock on a declared mutex and
// returns the mutex's declared name. RLock/RUnlock count: read locks
// participate in deadlock cycles the same way.
func lockCall(pass *analysis.Pass, call *ast.CallExpr, rank map[string]int) (string, lockKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", lockNone
	}
	var kind lockKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return "", lockNone
	}
	if s := pass.Info.Selections[sel]; s == nil ||
		!(analysis.NamedFrom(s.Recv(), "sync", "Mutex") || analysis.NamedFrom(s.Recv(), "sync", "RWMutex")) {
		return "", lockNone
	}
	name := mutexName(sel.X)
	if _, declared := rank[name]; !declared {
		return "", lockNone
	}
	return name, kind
}

// staticCallee resolves a call to the function or method it statically
// targets when that target is declared in the package under analysis
// (generic instantiations resolve to their origin). It returns nil for
// other packages, builtins, conversions, interface dispatch and
// function values: call summaries are same-package only.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(x.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(x.X)
	}
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		if s := pass.Info.Selections[x]; s != nil && types.IsInterface(s.Recv()) {
			return nil
		}
		id = x.Sel
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	if fn == nil || fn.Pkg() != pass.Pkg {
		return nil
	}
	return fn.Origin()
}

// mutexName names the mutex a Lock/Unlock receiver path refers to:
// the final selector field (s.mu → "mu"), or the identifier itself for
// locals.
func mutexName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// lockWalker tracks the held set through one function body in source
// order — the standard cheap linearization: a lock acquired in a
// branch is considered held from its source position until its
// source-order release.
type lockWalker struct {
	pass    *analysis.Pass
	rank    map[string]int
	summary func(*types.Func) map[string]bool
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt, held *[]string) {
	for _, s := range stmts {
		w.walkNode(s, held)
	}
}

func (w *lockWalker) walkNode(n ast.Node, held *[]string) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.GoStmt:
			// Runs on another goroutine: empty held set; summaries do
			// not apply across the spawn.
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
				fresh := []string{}
				w.walkStmts(lit.Body.List, &fresh)
			}
			return false
		case *ast.DeferStmt:
			// Runs at return. A deferred Unlock keeps the lock held
			// for the remaining body (correct for nesting edges); a
			// deferred closure is analyzed with an empty held set.
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
				fresh := []string{}
				w.walkStmts(lit.Body.List, &fresh)
			}
			return false
		case *ast.IfStmt:
			// A branch whose every exit is a return/panic cannot leak
			// locks past the statement: the deferred-Unlock-then-return
			// idiom (lock in a fast-path branch, return inside it) is
			// not "still holding" on the fall-through path. Diagnostics
			// inside the branch still see the branch-local held set.
			if s.Init != nil {
				w.walkNode(s.Init, held)
			}
			w.walkNode(s.Cond, held)
			w.walkBranch(s.Body, held)
			if s.Else != nil {
				if blk, ok := s.Else.(*ast.BlockStmt); ok {
					w.walkBranch(blk, held)
				} else {
					w.walkNode(s.Else, held) // else-if chain
				}
			}
			return false
		case *ast.CallExpr:
			w.handleCall(s, held)
			return false // handleCall walks arguments itself
		case *ast.FuncLit:
			// A closure not launched by go/defer may run immediately
			// (inline invocation) — analyze under the current held set.
			heldCopy := append([]string(nil), *held...)
			w.walkStmts(s.Body.List, &heldCopy)
			return false
		}
		return true
	})
}

// walkBranch walks an if/else block; when the block terminates
// (return or panic as its final statement), held-set changes made
// inside stay inside.
func (w *lockWalker) walkBranch(blk *ast.BlockStmt, held *[]string) {
	if terminates(blk) {
		branch := append([]string(nil), *held...)
		w.walkStmts(blk.List, &branch)
		return
	}
	w.walkStmts(blk.List, held)
}

// terminates reports whether the block's final statement leaves the
// function (return, or an unconditional panic).
func terminates(blk *ast.BlockStmt) bool {
	if len(blk.List) == 0 {
		return false
	}
	switch last := blk.List[len(blk.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (w *lockWalker) handleCall(call *ast.CallExpr, held *[]string) {
	for _, arg := range call.Args {
		w.walkNode(arg, held) // nested calls in arguments evaluate first
	}
	name, kind := lockCall(w.pass, call, w.rank)
	switch kind {
	case lockAcquire:
		for _, h := range *held {
			if h == name {
				w.pass.Reportf(call.Pos(), "%s acquired while already held (self-deadlock)", name)
				continue
			}
			if w.rank[h] > w.rank[name] {
				w.pass.Reportf(call.Pos(),
					"lock order violation: %s acquired while holding %s — the declared order is %s before %s (see DESIGN.md machine-checked invariants)",
					name, h, name, h)
			}
		}
		*held = append(*held, name)
	case lockRelease:
		for i := len(*held) - 1; i >= 0; i-- {
			if (*held)[i] == name {
				*held = append((*held)[:i], (*held)[i+1:]...)
				break
			}
		}
	default:
		callee := staticCallee(w.pass, call)
		if callee == nil || len(*held) == 0 {
			return
		}
		for lockName := range w.summary(callee) {
			for _, h := range *held {
				if h == lockName {
					w.pass.Reportf(call.Pos(),
						"call to %s may re-acquire %s already held here (self-deadlock)", callee.Name(), lockName)
					continue
				}
				if w.rank[h] > w.rank[lockName] {
					w.pass.Reportf(call.Pos(),
						"lock order violation: call to %s acquires %s while holding %s — the declared order is %s before %s",
						callee.Name(), lockName, h, lockName, h)
				}
			}
		}
	}
}
