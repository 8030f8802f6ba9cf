package analyzers

import (
	"go/ast"
	"strings"

	"tivaware/internal/lint/analysis"
)

// engineBlessed are the packages (by import-path suffix) allowed to
// construct the TIV detection substrate: the substrate itself and the
// service layer that wraps it. Everyone else goes through
// tivaware.Service, so TIV analysis has exactly one application-facing
// surface.
var engineBlessed = []string{"internal/tiv", "internal/tivaware"}

// servingPlane are the packages (by import-path suffix or path
// segment) that serve queries over published delay data and must
// never mutate a delayspace.Matrix: matrices reach the serving plane
// only as published epoch snapshots, and an in-place Set there is the
// same bug family epochimmutability catches on the atomic-pointer
// side. Generators and experiment drivers (synth, nsim, netprobe,
// experiments, and the substrate itself) stay free to build matrices.
var servingPlane = []string{
	"internal/tivd", "internal/tivshard", "internal/tivclient",
	"internal/tivfault", "internal/tivwire",
}

// servingPlaneSegments fences whole subtrees: binaries and examples
// consume the service API, they do not edit delay data.
var servingPlaneSegments = []string{"cmd", "examples"}

// LayerBoundary resolves tiv.Engine and tiv.Monitor construction
// through go/types (no false hits on comments or same-named locals,
// no misses through aliased imports) and additionally fences
// delayspace.Matrix.Set out of the serving plane.
var LayerBoundary = &analysis.Analyzer{
	Name: "layerboundary",
	Doc: "tiv.NewEngine/tiv.NewMonitor calls and tiv.Engine/tiv.Monitor composite literals " +
		"only in internal/tiv and internal/tivaware; delayspace.Matrix.Set not in serving-plane packages",
	Run: runLayerBoundary,
}

func runLayerBoundary(pass *analysis.Pass) error {
	unitPath := strings.TrimSuffix(pass.Path, "_test")

	blessed := false
	for _, suffix := range engineBlessed {
		if analysis.PathHasSuffix(unitPath, suffix) {
			blessed = true
			break
		}
	}

	serving := false
	for _, suffix := range servingPlane {
		if analysis.PathHasSuffix(unitPath, suffix) {
			serving = true
			break
		}
	}
	if !serving {
		for _, seg := range servingPlaneSegments {
			if pathHasSegment(unitPath, seg) {
				serving = true
				break
			}
		}
	}

	if blessed && !serving {
		return nil
	}

	for _, f := range pass.Files {
		testFile := pass.TestFile(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				// Engine construction binds every file, tests included
				// (the grep test it replaces had the same reach).
				if !blessed {
					if fn, ok := x.Fun.(*ast.SelectorExpr); ok {
						obj := pass.Info.Uses[fn.Sel]
						for _, ctor := range [2]string{"NewEngine", "NewMonitor"} {
							if analysis.FuncFrom(obj, "internal/tiv", ctor) {
								pass.Reportf(x.Pos(),
									"tiv.%s called outside internal/tiv and internal/tivaware; route through tivaware.Service so TIV analysis keeps one application-facing surface", ctor)
							}
						}
					}
				}
				// Matrix mutation binds serving-plane production code.
				if serving && !testFile {
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Set" {
						if s := pass.Info.Selections[sel]; s != nil &&
							analysis.NamedFrom(s.Recv(), "internal/delayspace", "Matrix") {
							pass.Reportf(x.Pos(),
								"delayspace.Matrix.Set in a serving-plane package; serving code reads published snapshots — build matrices in the measurement/generation layer")
						}
					}
				}
			case *ast.CompositeLit:
				if blessed {
					return true
				}
				t := pass.Info.Types[x].Type
				for _, name := range [2]string{"Engine", "Monitor"} {
					if analysis.NamedFrom(t, "internal/tiv", name) {
						pass.Reportf(x.Pos(),
							"tiv.%s composite literal outside internal/tiv and internal/tivaware; route through tivaware.Service so TIV analysis keeps one application-facing surface", name)
					}
				}
			}
			return true
		})
	}
	return nil
}

// pathHasSegment reports whether the slash-separated import path
// contains seg as a whole segment ("tivaware/cmd/tivd" has "cmd").
func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}
