package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tivaware/internal/lint/analysis"
	"tivaware/internal/lint/flow"
)

// WireErr enforces the wire error taxonomy interprocedurally: every
// error value that can flow to a tivd handler response, a gateway
// reply, or the tivclient API surface must be (or wrap, via a
// typed constructor) a WireCode-carrying type, so clients dispatch on
// structured codes instead of string-matching messages.
var WireErr = &analysis.Analyzer{
	Name: "wireerr",
	Doc: `errors reaching the wire must carry a WireCode.

Roots are the wire surfaces: methods implementing the tivd.Backend
interface, exported functions and methods of internal/tivclient, and
the error arguments of tivd's serviceError/errorEnvelope/resultEnvelope
sinks. The analyzer classifies each root's returned errors and chases
them backward through the callgraph: a function whose error result a
wire surface returns is itself wire-reachable. Flagged origins are
bare fmt.Errorf (no %w wrapping of an already-typed cause) and
errors.New, plus raw errors from external (stdlib) calls escaping
without a typed wrapper — each reported at the origin with the flow
path to the surface it reaches. Only origins inside internal/tivd,
internal/tivshard, and internal/tivclient are reported: layers below
the wire boundary (tivaware, tiv) return plain errors by design and
the serving plane owns their classification.

Fix by constructing the typed taxonomy instead (tivwire.CodedError
through tivd's badRequestf / internalErrorf or tivshard's err*
constructors, tivclient.Error) or wrapping the cause with a typed
constructor; suppress a deliberate site with
//lint:tiv wireerr <why>.`,
	Run: runWireErr,
}

// wireScopes are the packages whose untyped origins are reported.
var wireScopes = []string{"internal/tivd", "internal/tivshard", "internal/tivclient"}

type wireOrigin struct {
	pos  token.Pos
	desc string
}

// wireClass summarizes one function's (or sink argument's) error
// provenance: untyped origins plus the module functions whose error
// results flow through it.
type wireClass struct {
	origins []wireOrigin
	deps    []*flow.Func
}

// wireSink records why a function is wire-reachable, for diagnostics.
type wireSink struct {
	desc string     // root description, e.g. "the tivd.Backend surface (tivshard.(*Backend).QueryBatch)"
	via  *flow.Func // backward-BFS predecessor (the caller that returns our error), nil at roots
}

type wireFacts struct {
	reach   map[*flow.Func]wireSink
	classes map[*flow.Func]*wireClass
	// sinkArgs are origins classified directly from envelope-sink call
	// arguments, attributed to the function containing the call.
	sinkArgs map[*flow.Func][]wireOrigin
}

func runWireErr(pass *analysis.Pass) error {
	g := flow.Of(pass)
	if g == nil {
		return nil
	}
	facts := g.Memo("wireerr", func() any { return buildWireFacts(g) }).(*wireFacts)
	for _, f := range g.UnitFuncs(pass.Path) {
		if f.Test {
			continue
		}
		sink, ok := facts.reach[f]
		if ok && inWireScope(f.Unit.Path) {
			for _, o := range facts.classes[f].origins {
				pass.Reportf(o.pos, "untyped error reaches the wire: %s in %s (%s)", o.desc, f.Display, wireChain(facts, f, sink))
			}
		}
		for _, o := range facts.sinkArgs[f] {
			pass.Reportf(o.pos, "untyped error reaches the wire: %s passed directly to a tivd response envelope in %s", o.desc, f.Display)
		}
	}
	return nil
}

func inWireScope(path string) bool {
	for _, s := range wireScopes {
		if analysis.PathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// wireChain renders the origin-to-surface flow path.
func wireChain(facts *wireFacts, f *flow.Func, sink wireSink) string {
	var hops []string
	cur, s := f, sink
	for s.via != nil {
		hops = append(hops, s.via.Display)
		cur = s.via
		s = facts.reach[cur]
	}
	if len(hops) == 0 {
		return "returned by " + s.desc
	}
	return "flows via " + strings.Join(hops, " → ") + " to " + s.desc
}

func buildWireFacts(g *flow.Graph) *wireFacts {
	facts := &wireFacts{
		reach:    map[*flow.Func]wireSink{},
		classes:  map[*flow.Func]*wireClass{},
		sinkArgs: map[*flow.Func][]wireOrigin{},
	}
	var queue []*flow.Func
	enqueue := func(f *flow.Func, sink wireSink) {
		if f == nil || f.Test {
			return
		}
		if _, seen := facts.reach[f]; seen {
			return
		}
		facts.reach[f] = sink
		queue = append(queue, f)
	}
	// Root set 1: methods of module types implementing tivd.Backend.
	for _, m := range backendSurface(g) {
		enqueue(m.fn, wireSink{desc: m.desc})
	}
	// Root set 2: the exported API of internal/tivclient.
	for _, f := range clientSurface(g) {
		enqueue(f, wireSink{desc: "the tivclient API surface (" + f.Display + ")"})
	}
	// Root set 3: error arguments handed to tivd's envelope sinks.
	sinkArgs := envelopeSinkArgs(g)
	owners := make([]*flow.Func, 0, len(sinkArgs))
	for owner := range sinkArgs {
		owners = append(owners, owner)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i].Key < owners[j].Key })
	for _, owner := range owners {
		cls := sinkArgs[owner]
		dedupeOrigins(cls)
		facts.sinkArgs[owner] = append(facts.sinkArgs[owner], cls.origins...)
		for _, dep := range cls.deps {
			enqueue(dep, wireSink{desc: "a tivd response envelope (via " + owner.Display + ")"})
		}
	}
	// Backward closure: a function whose error a wire-reachable
	// function returns is itself wire-reachable.
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		cls := facts.classOf(f)
		for _, dep := range cls.deps {
			enqueue(dep, wireSink{desc: facts.reach[f].desc, via: f})
		}
	}
	return facts
}

func (facts *wireFacts) classOf(f *flow.Func) *wireClass {
	if cls, ok := facts.classes[f]; ok {
		return cls
	}
	cls := classifyFuncErrors(f)
	dedupeOrigins(cls)
	facts.classes[f] = cls
	return cls
}

// dedupeOrigins drops repeat classifications of one origin site — the
// same error variable returned at several return statements resolves
// to the same source expression each time.
func dedupeOrigins(cls *wireClass) {
	seen := map[token.Pos]bool{}
	kept := cls.origins[:0]
	for _, o := range cls.origins {
		if seen[o.pos] {
			continue
		}
		seen[o.pos] = true
		kept = append(kept, o)
	}
	cls.origins = kept
}

// sortedFuncs iterates the graph deterministically (diagnostic chains
// depend on BFS discovery order).
func sortedFuncs(g *flow.Graph) []*flow.Func {
	keys := make([]string, 0, len(g.Funcs))
	for k := range g.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*flow.Func, 0, len(keys))
	for _, k := range keys {
		out = append(out, g.Funcs[k])
	}
	return out
}

// backendMethod is one wire-surface method root.
type backendMethod struct {
	fn   *flow.Func
	desc string
}

// ifaceMethod identifies one interface method by name plus
// path-qualified signature.
type ifaceMethod struct{ name, sig string }

// backendSurface finds every module method implementing the Backend
// interface declared in a package ending internal/tivd. Implementation
// is decided by method-name + path-qualified-signature matching, never
// types.Implements, because the loader type-checks each unit in its
// own universe.
func backendSurface(g *flow.Graph) []backendMethod {
	var want []ifaceMethod
	seen := map[*types.Package]bool{}
	for _, f := range sortedFuncs(g) {
		p := f.Unit.Types
		if seen[p] || !analysis.PathHasSuffix(p.Path(), "internal/tivd") {
			continue
		}
		seen[p] = true
		obj, _ := p.Scope().Lookup("Backend").(*types.TypeName)
		if obj == nil {
			continue
		}
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			want = append(want, ifaceMethod{m.Name(), wireSigKey(m)})
		}
	}
	if len(want) == 0 {
		return nil
	}
	var out []backendMethod
	seenType := map[string]bool{}
	for _, f := range sortedFuncs(g) {
		if f.Obj == nil || f.Decl == nil || f.Decl.Recv == nil {
			continue
		}
		sig := f.Obj.Type().(*types.Signature)
		r := sig.Recv()
		if r == nil || types.IsInterface(r.Type()) {
			continue
		}
		named := namedOf(r.Type())
		if named == nil {
			continue
		}
		tkey := named.Obj().Pkg().Path() + "." + named.Obj().Name()
		if seenType[tkey] {
			continue
		}
		seenType[tkey] = true
		ms := types.NewMethodSet(types.NewPointer(named))
		if !coversIface(ms, want) {
			continue
		}
		// The type implements Backend: every matching method with an
		// error result is a wire surface.
		for _, w := range want {
			sel := ms.Lookup(nil, w.name)
			if sel == nil {
				continue
			}
			m, _ := sel.Obj().(*types.Func)
			if m == nil || !returnsError(m) {
				continue
			}
			node := g.ByKey(flow.KeyOf(m))
			if node == nil {
				continue
			}
			out = append(out, backendMethod{fn: node, desc: "the tivd.Backend surface (" + node.Display + ")"})
		}
	}
	return out
}

func coversIface(ms *types.MethodSet, want []ifaceMethod) bool {
	for _, w := range want {
		sel := ms.Lookup(nil, w.name)
		if sel == nil {
			return false
		}
		m, ok := sel.Obj().(*types.Func)
		if !ok || wireSigKey(m) != w.sig {
			return false
		}
	}
	return true
}

func namedOf(t types.Type) *types.Named {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

// wireSigKey renders a method signature without receiver, qualified by
// package path (stable across type-check universes).
func wireSigKey(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	s := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return types.TypeString(s, func(p *types.Package) string { return p.Path() })
}

func returnsError(m *types.Func) bool {
	sig := m.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// clientSurface returns the exported error-returning functions and
// methods declared in internal/tivclient production files.
func clientSurface(g *flow.Graph) []*flow.Func {
	var out []*flow.Func
	for _, f := range sortedFuncs(g) {
		if f.Obj == nil || f.Test || f.Decl == nil {
			continue
		}
		if !analysis.PathHasSuffix(f.Unit.Path, "internal/tivclient") {
			continue
		}
		if !f.Obj.Exported() || !returnsError(f.Obj) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// envelopeSinkArgs classifies the error arguments of every call to
// tivd's serviceError/errorEnvelope/resultEnvelope, keyed by the
// function containing the call. Callers that pass an explicit wire
// code (writeError) are not sinks: the code is already chosen there.
func envelopeSinkArgs(g *flow.Graph) map[*flow.Func]*wireClass {
	out := map[*flow.Func]*wireClass{}
	sinkNames := map[string]bool{"serviceError": true, "errorEnvelope": true, "resultEnvelope": true}
	for _, f := range sortedFuncs(g) {
		if f.Test || f.Body() == nil {
			continue
		}
		if !analysis.PathHasSuffix(f.Unit.Path, "internal/tivd") {
			continue
		}
		info := f.Unit.Info
		for _, c := range f.Calls {
			if c.Site == nil {
				continue
			}
			callee := flow.StaticCallee(info, c.Site)
			if callee == nil || !sinkNames[callee.Name()] || callee.Pkg() == nil {
				continue
			}
			if !analysis.PathHasSuffix(callee.Pkg().Path(), "internal/tivd") {
				continue
			}
			for _, arg := range c.Site.Args {
				t := info.Types[arg].Type
				if t == nil || !isErrorType(t) {
					continue
				}
				cls := out[f]
				if cls == nil {
					cls = &wireClass{}
					out[f] = cls
				}
				classifyErrExpr(f, arg, cls, map[ast.Node]bool{}, 0)
			}
		}
	}
	return out
}

// classifyFuncErrors classifies every error a function can return.
func classifyFuncErrors(f *flow.Func) *wireClass {
	cls := &wireClass{}
	body := f.Body()
	if body == nil || f.Decl == nil {
		return cls
	}
	info := f.Unit.Info
	sig, _ := info.Defs[f.Decl.Name].(*types.Func)
	if sig == nil {
		return cls
	}
	ftype := sig.Type().(*types.Signature)
	errIdx := map[int]bool{}
	for i := 0; i < ftype.Results().Len(); i++ {
		if isErrorType(ftype.Results().At(i).Type()) {
			errIdx[i] = true
		}
	}
	if len(errIdx) == 0 {
		return cls
	}
	// Named error results, for naked returns.
	var namedErr []*ast.Ident
	if f.Decl.Type.Results != nil {
		i := 0
		for _, fld := range f.Decl.Type.Results.List {
			n := max(1, len(fld.Names))
			for j := 0; j < n; j++ {
				if errIdx[i+j] && j < len(fld.Names) {
					namedErr = append(namedErr, fld.Names[j])
				}
			}
			i += n
		}
	}
	flow.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		switch {
		case len(ret.Results) == 0:
			for _, id := range namedErr {
				classifyErrExpr(f, id, cls, map[ast.Node]bool{}, 0)
			}
		case len(ret.Results) == 1 && len(errIdx) >= 1:
			// Either the single error result or a tuple-returning call.
			classifyErrExpr(f, ret.Results[0], cls, map[ast.Node]bool{}, 0)
		default:
			for i, res := range ret.Results {
				if errIdx[i] {
					classifyErrExpr(f, res, cls, map[ast.Node]bool{}, 0)
				}
			}
		}
		return true
	})
	return cls
}

// classifyErrExpr resolves the provenance of one error-valued
// expression: typed (WireCode in the static type's method set), an
// untyped origin, or a dependency on a module callee's error result.
// Unrecognized shapes (struct fields, map loads) classify as unknown
// and are not flagged — the analyzer under-approximates rather than
// guessing.
func classifyErrExpr(f *flow.Func, e ast.Expr, cls *wireClass, visited map[ast.Node]bool, depth int) {
	if depth > 12 || e == nil || visited[e] {
		return
	}
	visited[e] = true
	info := f.Unit.Info
	e = ast.Unparen(e)
	if t := info.Types[e].Type; t != nil {
		if isUntypedNil(t) || hasWireCode(t) {
			return
		}
	}
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "nil" {
			return
		}
		v, _ := info.Uses[e].(*types.Var)
		if v == nil {
			v, _ = info.Defs[e].(*types.Var)
		}
		if v == nil {
			return
		}
		for _, src := range varErrSources(f, v) {
			classifyErrExpr(f, src, cls, visited, depth+1)
		}
	case *ast.CallExpr:
		classifyErrCall(f, e, cls, visited, depth)
	}
}

func classifyErrCall(f *flow.Func, call *ast.CallExpr, cls *wireClass, visited map[ast.Node]bool, depth int) {
	info := f.Unit.Info
	callee := flow.StaticCallee(info, call)
	if callee != nil && callee.Pkg() != nil {
		pkg, name := callee.Pkg().Path(), callee.Name()
		switch {
		case pkg == "fmt" && name == "Errorf":
			if wrapped := errorfWrappedArgs(call, info); len(wrapped) > 0 {
				for _, w := range wrapped {
					classifyErrExpr(f, w, cls, visited, depth+1)
				}
				return
			}
			cls.origins = append(cls.origins, wireOrigin{pos: call.Pos(), desc: "bare fmt.Errorf (no typed cause wrapped with %w)"})
			return
		case pkg == "errors" && name == "New":
			cls.origins = append(cls.origins, wireOrigin{pos: call.Pos(), desc: "errors.New"})
			return
		case pkg == "errors" && (name == "Join" || name == "Unwrap"):
			for _, a := range call.Args {
				classifyErrExpr(f, a, cls, visited, depth+1)
			}
			return
		}
	}
	// Resolve through the graph: module callees become deps, external
	// callees are origins (their errors carry no WireCode), dynamic
	// calls stay unknown.
	for _, c := range f.Calls {
		if c.Site != call || c.Ref {
			continue // Ref edges share the Site but nothing returns through them
		}
		switch {
		case c.Callee != nil:
			if c.Callee.Body() != nil {
				cls.deps = append(cls.deps, c.Callee)
			}
		case c.External != nil:
			if retTypeHasWireCode(c.External) {
				continue
			}
			pkg := ""
			if c.External.Pkg() != nil {
				pkg = c.External.Pkg().Name()
			}
			cls.origins = append(cls.origins, wireOrigin{
				pos:  call.Pos(),
				desc: "raw error from " + pkg + "." + c.External.Name() + " escapes without a typed wrapper",
			})
		}
	}
}

func retTypeHasWireCode(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if hasWireCode(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// errorfWrappedArgs returns the error-typed arguments covered by %w
// verbs in a constant fmt.Errorf format (nil when the call does not
// wrap).
func errorfWrappedArgs(call *ast.CallExpr, info *types.Info) []ast.Expr {
	if len(call.Args) < 2 {
		return nil
	}
	tv := info.Types[call.Args[0]]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		return nil
	}
	if !strings.Contains(constant.StringVal(tv.Value), "%w") {
		return nil
	}
	var out []ast.Expr
	for _, a := range call.Args[1:] {
		if t := info.Types[a].Type; t != nil && isErrorType(t) {
			out = append(out, a)
		}
	}
	return out
}

// varErrSources collects the expressions assigned to v anywhere in f's
// body (flow-insensitive: each is a possible provenance).
func varErrSources(f *flow.Func, v *types.Var) []ast.Expr {
	info := f.Unit.Info
	var out []ast.Expr
	record := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == v && rhs != nil {
			out = append(out, rhs)
		}
	}
	flow.WalkStack(f.Body(), func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id, n.Rhs[i])
					}
				}
			} else if len(n.Rhs) == 1 {
				// v1, err := call(): the call's error component.
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id, n.Rhs[0])
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if i < len(n.Values) {
					record(id, n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// hasWireCode reports whether t (or *t) has a WireCode() string method.
func hasWireCode(t types.Type) bool {
	if t == nil {
		return false
	}
	check := func(tt types.Type) bool {
		ms := types.NewMethodSet(tt)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			if m.Name() != "WireCode" {
				continue
			}
			sig, ok := m.Type().(*types.Signature)
			if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
				continue
			}
			if b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				return true
			}
		}
		return false
	}
	if check(t) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr && !types.IsInterface(t) {
		return check(types.NewPointer(t))
	}
	return false
}
