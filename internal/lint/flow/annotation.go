// Annotation parsing for the //tiv: vocabulary the allocfree
// analyzer consumes. Annotations live in a function's doc comment:
//
//	//tiv:hotpath <optional note>
//	    marks a zero-allocation root: the function and everything it
//	    transitively calls must be allocation-free (analyzer
//	    allocfree).
//	//tiv:coldpath <required justification>
//	    exempts a function from a hot caller's transitive
//	    allocation-free requirement: error latches, growth/rebuild
//	    fallbacks, consumer callbacks. The justification is mandatory —
//	    a coldpath annotation without one is inert and reported.
package flow

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotation is one parsed //tiv: doc-comment directive.
type Annotation struct {
	Kind string // "hotpath" or "coldpath"
	Note string // optional for hotpath, required for coldpath
	Pos  token.Pos
}

// AnnotationPrefix introduces a flow annotation. The kind follows the
// colon with no space (mirroring //go: directives); the note follows
// the kind after whitespace.
const AnnotationPrefix = "//tiv:"

// AnnotationHot and AnnotationCold are the recognized kinds.
const (
	AnnotationHot  = "hotpath"
	AnnotationCold = "coldpath"
)

// ParseAnnotation parses one comment line. ok reports whether the line
// is a well-formed //tiv: directive with a recognized kind; the note
// may be empty. Unrecognized kinds, missing kinds, and prefix lookalikes
// ("//tiv :x", "// tiv:x") are not annotations.
func ParseAnnotation(text string) (kind, note string, ok bool) {
	rest, found := strings.CutPrefix(text, AnnotationPrefix)
	if !found {
		return "", "", false
	}
	// The kind must hug the colon: "//tiv: hotpath" is prose, not a
	// directive, exactly like //go: directives.
	if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
		return "", "", false
	}
	kind, note, _ = strings.Cut(rest, " ")
	if k, n, tabbed := strings.Cut(kind, "\t"); tabbed {
		kind = k
		note = n + " " + note
	}
	if kind != AnnotationHot && kind != AnnotationCold {
		return "", "", false
	}
	return kind, strings.Join(strings.Fields(note), " "), true
}

// parseFuncAnnotations scans a declaration's doc comment and attaches
// hot/cold annotations to the node. A coldpath directive without a
// justification is recorded as inert rather than honored: the stated
// reason is the point, exactly as with //lint:tiv suppressions.
func parseFuncAnnotations(f *Func, doc *ast.CommentGroup, fset *token.FileSet) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		kind, note, ok := ParseAnnotation(c.Text)
		if !ok {
			continue
		}
		a := &Annotation{Kind: kind, Note: note, Pos: c.Pos()}
		switch kind {
		case AnnotationHot:
			f.Hot = a
		case AnnotationCold:
			if note == "" {
				f.InertAnnotations = append(f.InertAnnotations, c.Pos())
				continue
			}
			f.Cold = a
		}
	}
}
