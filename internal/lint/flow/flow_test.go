package flow_test

import (
	"path/filepath"
	"strings"
	"testing"

	"tivaware/internal/lint/flow"
	"tivaware/internal/lint/load"
)

// buildFixture loads the fixture module at dir and builds its graph.
func buildFixture(t *testing.T, dir string) *flow.Graph {
	t.Helper()
	root, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := load.New(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range l.Warnings {
		t.Fatalf("fixture should load cleanly: %s", w)
	}
	return flow.Build(pkgs)
}

// TestDiamondCallgraph pins the graph shape for a diamond with a
// closure on one arm: Top → each → (closure) → left → base and
// Top → right → base, plus a Ref edge for a named function passed as
// a call argument.
func TestDiamondCallgraph(t *testing.T) {
	g := buildFixture(t, "testdata/diamond")
	const pkg = "fixture/diamond"
	byName := func(name string) *flow.Func {
		t.Helper()
		f := g.Funcs[pkg+"||"+name]
		if f == nil {
			t.Fatalf("no node for %s", name)
		}
		return f
	}

	top := byName("Top")
	var topCallees []string
	var lit *flow.Func
	for _, c := range top.Calls {
		if c.Callee != nil {
			topCallees = append(topCallees, c.Callee.Key)
		}
	}
	// The closure is a child node of Top, keyed under Top's key.
	for k, f := range g.Funcs {
		if strings.HasPrefix(k, top.Key+"|lit@") {
			lit = f
		}
	}
	if lit == nil {
		t.Fatalf("closure argument did not become a node; keys with Top prefix: %v", topCallees)
	}

	wantEdge := func(from *flow.Func, to string, check func(flow.Call) bool, desc string) {
		t.Helper()
		for _, c := range from.Calls {
			if c.Callee != nil && c.Callee.Key == pkg+"||"+to && check(c) {
				return
			}
		}
		t.Errorf("%s: no %s edge to %s (edges: %+v)", from.Display, desc, to, from.Calls)
	}
	plain := func(c flow.Call) bool { return !c.Ref && !c.Dynamic && !c.Go && !c.Defer }

	// Both arms of the diamond converge on base.
	wantEdge(top, "each", plain, "static")
	wantEdge(top, "right", plain, "static")
	wantEdge(lit, "left", plain, "closure-body static")
	wantEdge(byName("left"), "base", plain, "static")
	wantEdge(byName("right"), "base", plain, "static")

	// each calls through its parameter: a dynamic edge, not a callee.
	var dynamic bool
	for _, c := range byName("each").Calls {
		dynamic = dynamic || c.Dynamic
	}
	if !dynamic {
		t.Errorf("each's call through its parameter should be dynamic: %+v", byName("each").Calls)
	}

	// A named function passed as an argument becomes a Ref edge at the
	// call site: reachability traverses it, call semantics do not.
	wantEdge(byName("Tabled"), "handler", func(c flow.Call) bool { return c.Ref }, "ref")
	wantEdge(byName("Tabled"), "each2", plain, "static")
}
