// Package flow is tivlint's interprocedural layer: a static callgraph
// over every loaded analysis unit, with per-function nodes for both
// declared functions and function literals, bottom-up SCC ordering for
// summary propagation, and the //tiv:hotpath / //tiv:coldpath
// annotation vocabulary the allocfree analyzer keys off.
//
// The loader (internal/lint/load) type-checks each unit against
// memoized, types-only import universes, so the same source function
// is represented by *different* go/types objects in the unit that
// declares it and the units that import it. The graph therefore never
// relies on object identity across units: functions are keyed by a
// stable string (package path | receiver type name | function name),
// and interface dispatch resolves by method name plus a
// package-path-qualified signature string rather than
// types.Implements.
//
// Call edges cover: direct calls to declared functions and methods,
// immediately-invoked and variable-bound function literals (a local
// `f := func(){...}` assigned exactly once), go/defer targets, and
// interface method calls resolved to every module type carrying a
// method of the same name and signature (class-hierarchy
// over-approximation — sound for "is everything reachable clean"
// questions). Calls the graph cannot resolve are kept as Dynamic
// edges so analyzers can stay conservative instead of silently
// optimistic.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tivaware/internal/lint/analysis"
	"tivaware/internal/lint/load"
)

// Graph is the module-wide callgraph for one lint run.
type Graph struct {
	Fset *token.FileSet
	// Funcs maps stable keys to nodes. Function literals use their
	// enclosing function's key plus a position-derived suffix.
	Funcs map[string]*Func

	byUnit map[string][]*Func
	byNode map[ast.Node]*Func // *ast.FuncDecl / *ast.FuncLit → node
	// methodIndex maps "name|signature-without-receiver" to every
	// concrete (non-interface-receiver) method in the module, for
	// class-hierarchy resolution of interface calls.
	methodIndex map[string][]*Func
	memo        map[string]any
	sccs        [][]*Func
}

// Func is one callgraph node.
type Func struct {
	// Key is the stable cross-unit identity:
	// "pkgpath|recvTypeName|name" for declared functions,
	// parent key + "|lit@file:line:col" for literals.
	Key string
	// Display is the human name used in diagnostics:
	// "tivwire.AppendBinary", "tiv.(*Monitor).ApplyUpdate",
	// "tivshard.(*Gateway).ApplyBatch.func@gateway.go:540".
	Display string
	// Unit is the analysis unit the function was parsed in.
	Unit *load.Package
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions
	Obj  *types.Func   // nil for literals
	// Test marks functions declared in _test.go files.
	Test bool
	// Hot and Cold carry //tiv:hotpath / //tiv:coldpath annotations
	// from the function's doc comment (nil when absent).
	Hot  *Annotation
	Cold *Annotation
	// InertAnnotations are //tiv: comments that parse but are missing
	// their required justification; analyzers surface them so a typo
	// never silently weakens the contract.
	InertAnnotations []token.Pos
	// Calls are the function's outgoing edges in source order.
	Calls []Call

	// Tarjan scratch + result.
	index, lowlink int
	onStack        bool
	scc            int
}

// Body returns the function body (nil for bodyless assembly stubs).
func (f *Func) Body() *ast.BlockStmt {
	if f.Lit != nil {
		return f.Lit.Body
	}
	if f.Decl != nil {
		return f.Decl.Body
	}
	return nil
}

// Pos returns the declaration position.
func (f *Func) Pos() token.Pos {
	if f.Lit != nil {
		return f.Lit.Pos()
	}
	if f.Decl != nil {
		return f.Decl.Pos()
	}
	return token.NoPos
}

// Call is one outgoing edge from a function.
type Call struct {
	// Site is the call expression (also set for go/defer targets).
	Site *ast.CallExpr
	// Callee is the resolved module-internal target, nil when the
	// target is external, dynamic, or a builtin/conversion.
	Callee *Func
	// External is the resolved non-module target (stdlib), nil
	// otherwise.
	External *types.Func
	// Dynamic marks calls through function values the graph could not
	// bind (stored callbacks, multiply-assigned variables, func
	// fields). Analyzers must treat these conservatively.
	Dynamic bool
	// Go and Defer mark spawn and defer sites.
	Go    bool
	Defer bool
	// Ref marks a named function passed as an argument at Site (the
	// codec-table idiom: encSlice(w, s, encSelection)). The callee may
	// invoke it, so reachability analyses should traverse the edge,
	// but it carries no call semantics of its own — nothing is called
	// at Site through it.
	Ref bool
}

// Pos returns the call position.
func (c Call) Pos() token.Pos {
	if c.Site != nil {
		return c.Site.Pos()
	}
	return token.NoPos
}

// Of extracts the graph a lint run attached to the pass; nil when the
// pass runs without the interprocedural layer (unit tests driving an
// analyzer directly).
func Of(pass *analysis.Pass) *Graph {
	g, _ := pass.Flow.(*Graph)
	return g
}

// Build constructs the callgraph over the loaded units.
func Build(units []*load.Package) *Graph {
	g := &Graph{
		Funcs:       map[string]*Func{},
		byUnit:      map[string][]*Func{},
		byNode:      map[ast.Node]*Func{},
		methodIndex: map[string][]*Func{},
		memo:        map[string]any{},
	}
	if len(units) > 0 {
		g.Fset = units[0].Fset
	}
	// Pass 1: nodes for every declared function (bodyless assembly
	// stubs included, so calls to them resolve and summarize as clean)
	// and every function literal.
	for _, u := range units {
		for _, file := range u.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				g.addDecl(u, file, fd)
			}
		}
	}
	// Pass 2: call edges (literal nodes are created on the fly while
	// walking their parents, depth first).
	for _, u := range units {
		for _, f := range g.byUnit[u.Path] {
			if f.Decl != nil {
				g.collectCalls(f)
			}
		}
	}
	g.condense()
	return g
}

func (g *Graph) addDecl(u *load.Package, file *ast.File, fd *ast.FuncDecl) {
	obj, _ := u.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	key := KeyOf(obj)
	// Multiple func init() decls share a key; uniquify — init is never
	// a call target, so resolution is unaffected.
	for i := 2; g.Funcs[key] != nil; i++ {
		key = fmt.Sprintf("%s#%d", KeyOf(obj), i)
	}
	f := &Func{
		Key:     key,
		Display: displayOf(obj),
		Unit:    u,
		Decl:    fd,
		Obj:     obj,
		Test:    u.IsTestFile(file),
	}
	parseFuncAnnotations(f, fd.Doc, u.Fset)
	g.Funcs[key] = f
	g.byUnit[u.Path] = append(g.byUnit[u.Path], f)
	g.byNode[fd] = f
	sig := obj.Type().(*types.Signature)
	if r := sig.Recv(); r != nil && !types.IsInterface(r.Type()) {
		mk := obj.Name() + "|" + sigKey(sig)
		g.methodIndex[mk] = append(g.methodIndex[mk], f)
	}
}

// addLit creates a node for a function literal inside parent.
func (g *Graph) addLit(parent *Func, lit *ast.FuncLit) *Func {
	if f, ok := g.byNode[lit]; ok {
		return f
	}
	pos := parent.Unit.Fset.Position(lit.Pos())
	suffix := fmt.Sprintf("lit@%s:%d:%d", shortFile(pos.Filename), pos.Line, pos.Column)
	f := &Func{
		Key:     parent.Key + "|" + suffix,
		Display: parent.Display + ".func@" + fmt.Sprintf("%s:%d", shortFile(pos.Filename), pos.Line),
		Unit:    parent.Unit,
		Lit:     lit,
		Test:    parent.Test,
	}
	g.Funcs[f.Key] = f
	g.byUnit[parent.Unit.Path] = append(g.byUnit[parent.Unit.Path], f)
	g.byNode[lit] = f
	g.collectCalls(f)
	return f
}

func shortFile(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// collectCalls walks f's body, resolving every call expression to
// edges. Nested function literals become their own nodes: the walk
// does not descend into them (their calls belong to the literal), but
// direct invocations, single-assignment variable bindings, and
// go/defer targets produce edges to the literal's node.
func (g *Graph) collectCalls(f *Func) {
	body := f.Body()
	if body == nil {
		return
	}
	info := f.Unit.Info
	bound := litBindings(body, info)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			g.addLit(f, n)
			return false
		case *ast.GoStmt:
			f.resolveCall(g, bound, n.Call, true, false)
			// The call's Fun (if a literal) was handled by resolveCall;
			// continue into the arguments only.
			for _, a := range n.Call.Args {
				g.walkExprForLits(f, a)
			}
			g.walkCallFun(f, bound, n.Call)
			return false
		case *ast.DeferStmt:
			f.resolveCall(g, bound, n.Call, false, true)
			for _, a := range n.Call.Args {
				g.walkExprForLits(f, a)
			}
			g.walkCallFun(f, bound, n.Call)
			return false
		case *ast.CallExpr:
			f.resolveCall(g, bound, n, false, false)
			return true
		}
		return true
	})
}

// walkExprForLits registers literal nodes appearing in an expression
// subtree without re-walking call structure (used for go/defer args).
func (g *Graph) walkExprForLits(f *Func, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			g.addLit(f, lit)
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			bound := map[*types.Var]*ast.FuncLit{}
			f.resolveCall(g, bound, call, false, false)
		}
		return true
	})
}

// walkCallFun registers literals in a go/defer call's Fun subtree when
// the Fun is not itself a literal (method values etc.).
func (g *Graph) walkCallFun(f *Func, bound map[*types.Var]*ast.FuncLit, call *ast.CallExpr) {
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return // already a node via resolveCall
	}
	g.walkExprForLits(f, call.Fun)
}

// litBindings finds local variables bound to a function literal by
// exactly one assignment in body; calls through them resolve to the
// literal. Multiply-assigned variables stay dynamic.
func litBindings(body ast.Node, info *types.Info) map[*types.Var]*ast.FuncLit {
	lits := map[*types.Var]*ast.FuncLit{}
	assigns := map[*types.Var]int{}
	record := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return
		}
		assigns[v]++
		if lit, ok := rhs.(*ast.FuncLit); ok {
			lits[v] = lit
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id, n.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				var rhs ast.Expr
				if i < len(n.Values) {
					rhs = n.Values[i]
				}
				record(id, rhs)
			}
		}
		return true
	})
	for v, n := range assigns {
		if n != 1 {
			delete(lits, v)
		}
	}
	return lits
}

// resolveCall appends the edge(s) for one call expression.
func (f *Func) resolveCall(g *Graph, bound map[*types.Var]*ast.FuncLit, call *ast.CallExpr, isGo, isDefer bool) {
	info := f.Unit.Info
	add := func(c Call) {
		c.Site, c.Go, c.Defer = call, isGo, isDefer
		f.Calls = append(f.Calls, c)
	}
	// A named module function passed as an argument may be invoked by
	// the callee; record a Ref edge so reachability analyses scan the
	// referenced body. Method values are skipped: binding the receiver
	// is its own operation and the graph cannot pick one body anyway.
	for _, a := range call.Args {
		var fn *types.Func
		switch arg := ast.Unparen(a).(type) {
		case *ast.Ident:
			fn, _ = info.Uses[arg].(*types.Func)
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[arg]; !ok || sel.Kind() != types.MethodVal {
				fn, _ = info.Uses[arg.Sel].(*types.Func)
			}
		}
		if fn == nil {
			continue
		}
		if c := g.staticEdge(fn); c.Callee != nil {
			f.Calls = append(f.Calls, Call{Site: call, Callee: c.Callee, Ref: true})
		}
	}
	fun := ast.Unparen(call.Fun)
	// Generic instantiation: strip the index to the underlying name.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if isFuncExpr(info, idx.X) {
			fun = ast.Unparen(idx.X)
		}
	case *ast.IndexListExpr:
		if isFuncExpr(info, idx.X) {
			fun = ast.Unparen(idx.X)
		}
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		add(Call{Callee: g.addLit(f, fun)})
		return
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			add(g.staticEdge(obj))
			return
		case *types.Builtin:
			return // builtins are handled by per-analyzer op scans
		case *types.TypeName:
			return // conversion
		case *types.Var:
			if lit, ok := bound[obj]; ok {
				add(Call{Callee: g.addLit(f, lit)})
				return
			}
			add(Call{Dynamic: true})
			return
		}
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return // conversion
		}
		add(Call{Dynamic: true})
		return
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			m, _ := sel.Obj().(*types.Func)
			if m == nil {
				add(Call{Dynamic: true})
				return
			}
			if types.IsInterface(sel.Recv()) {
				cands := g.methodIndex[m.Name()+"|"+sigKey(m.Type().(*types.Signature))]
				if len(cands) == 0 {
					add(Call{Dynamic: true})
					return
				}
				for _, cand := range cands {
					add(Call{Callee: cand})
				}
				return
			}
			add(g.staticEdge(m))
			return
		}
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			add(g.staticEdge(obj))
			return
		case *types.TypeName:
			return // conversion to a named type
		case *types.Var:
			add(Call{Dynamic: true}) // func-typed field or package var
			return
		}
		if tv, ok := info.Types[fun]; ok && tv.IsType() {
			return
		}
		add(Call{Dynamic: true})
		return
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion through a composite type expression
	}
	add(Call{Dynamic: true})
}

func isFuncExpr(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok {
		_, isSig := tv.Type.Underlying().(*types.Signature)
		return isSig
	}
	return false
}

// staticEdge resolves a *types.Func (possibly from a types-only import
// universe) to a module node by stable key, or records it as external.
func (g *Graph) staticEdge(obj *types.Func) Call {
	obj = obj.Origin()
	if f, ok := g.Funcs[KeyOf(obj)]; ok {
		return Call{Callee: f}
	}
	return Call{External: obj}
}

// KeyOf computes the stable cross-unit identity of a declared
// function: "pkgpath|recvTypeName|name". Generic instantiations
// resolve to their origin.
func KeyOf(fn *types.Func) string {
	fn = fn.Origin()
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok {
		if r := sig.Recv(); r != nil {
			recv = recvTypeName(r.Type())
		}
	}
	return pkgPath + "|" + recv + "|" + fn.Name()
}

func recvTypeName(t types.Type) string {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj().Name()
	}
	return types.TypeString(t, func(*types.Package) string { return "" })
}

func displayOf(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name()
	}
	sig := fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		star := ""
		if _, ok := r.Type().(*types.Pointer); ok {
			star = "*"
		}
		return fmt.Sprintf("%s.(%s%s).%s", pkg, star, recvTypeName(r.Type()), fn.Name())
	}
	return pkg + "." + fn.Name()
}

// sigKey renders a method signature without its receiver, qualified by
// package path, so signatures compare equal across the loader's
// separate type-check universes.
func sigKey(sig *types.Signature) string {
	s := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return types.TypeString(s, func(p *types.Package) string { return p.Path() })
}

// UnitFuncs returns the nodes declared in the unit with the given
// import path, in source order (literals follow their parent).
func (g *Graph) UnitFuncs(path string) []*Func { return g.byUnit[path] }

// FuncOf maps an *ast.FuncDecl or *ast.FuncLit back to its node.
func (g *Graph) FuncOf(n ast.Node) *Func { return g.byNode[n] }

// Memo computes build() once per graph under key and caches the
// result, so an analyzer's module-wide summary work runs once even
// though the analyzer itself is invoked per unit.
func (g *Graph) Memo(key string, build func() any) any {
	if v, ok := g.memo[key]; ok {
		return v
	}
	v := build()
	g.memo[key] = v
	return v
}

// SCCs returns the strongly connected components of the callgraph in
// bottom-up (callee-first) order, for summary propagation.
func (g *Graph) SCCs() [][]*Func { return g.sccs }

// InCycle reports whether f is mutually (or self-) recursive.
func (g *Graph) InCycle(f *Func) bool {
	if f.scc < 0 || f.scc >= len(g.sccs) {
		return false
	}
	if len(g.sccs[f.scc]) > 1 {
		return true
	}
	for _, c := range f.Calls {
		if c.Callee == f {
			return true
		}
	}
	return false
}

// condense runs Tarjan's algorithm; the pop order is callee-first.
func (g *Graph) condense() {
	keys := make([]string, 0, len(g.Funcs))
	for k := range g.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	next := 1
	var stack []*Func
	var strongconnect func(f *Func)
	strongconnect = func(f *Func) {
		f.index, f.lowlink = next, next
		next++
		stack = append(stack, f)
		f.onStack = true
		for _, c := range f.Calls {
			w := c.Callee
			if w == nil {
				continue
			}
			if w.index == 0 {
				strongconnect(w)
				f.lowlink = min(f.lowlink, w.lowlink)
			} else if w.onStack {
				f.lowlink = min(f.lowlink, w.index)
			}
		}
		if f.lowlink == f.index {
			var comp []*Func
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				w.scc = len(g.sccs)
				comp = append(comp, w)
				if w == f {
					break
				}
			}
			g.sccs = append(g.sccs, comp)
		}
	}
	for _, k := range keys {
		if f := g.Funcs[k]; f.index == 0 {
			strongconnect(f)
		}
	}
}

// WalkStack walks root in source order, passing each node and its
// ancestor stack (nearest last); returning false prunes the subtree.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// StaticCallee resolves a call expression to its declared-function
// target via the type info alone: package functions, methods (through
// embedding), and generic instantiations. It returns nil for builtins,
// conversions, interface dispatch, and function values. Shared by the
// intra-procedural analyzers that predate the flow layer.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if isFuncExpr(info, idx.X) {
			fun = ast.Unparen(idx.X)
		}
	case *ast.IndexListExpr:
		if isFuncExpr(info, idx.X) {
			fun = ast.Unparen(idx.X)
		}
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn.Origin()
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}
