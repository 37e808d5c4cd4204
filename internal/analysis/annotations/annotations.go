// Package annotations defines the "lmfao:" comment directives through which
// the engine's source code declares the invariants that cmd/lmfao-vet
// machine-checks (see internal/analysis). A directive is one comment line of
// the form
//
//	// lmfao:<name> [args...]
//
// inside the doc comment of the declaration it governs (the space after //
// is optional: both "// lmfao:x" and the pragma-style "//lmfao:x" parse).
// Builders of new subsystems annotate their contracts instead of re-proving
// them with randomized oracles; the analyzer suite turns every annotation
// into a vet-time check.
//
// # Grammar
//
// On a type declaration:
//
//	// lmfao:immutable-after-publish
//	    The type's values are frozen once they become reachable from a
//	    published snapshot. The publishedmut analyzer flags every field
//	    write through the type unless the writing function is annotated
//	    lmfao:pre-publish (the builder/writer side).
//
// On a function or method declaration:
//
//	// lmfao:pre-publish
//	    The function runs on the writer side, before publication: it may
//	    mutate values of immutable-after-publish types it is constructing
//	    or maintaining. Exempts the function from publishedmut.
//
//	// lmfao:requires <mutexField>
//	    Callers must hold recv.<mutexField> (e.g. "writerMu"). The
//	    lockheld analyzer flags call sites that are not lexically
//	    dominated by a Lock/RLock of that mutex on the same receiver and
//	    whose enclosing function is not itself annotated with the same
//	    requirement.
//
//	// lmfao:acquires <mutexField>[.R]
//	    The function's body must acquire the named mutex itself —
//	    <mutexField>.Lock() (or .RLock() with the .R suffix) must appear
//	    in the body, paired with a matching Unlock/RUnlock. Encodes
//	    "this entry point is the lock's owner": deleting the lock
//	    acquisition without deleting the contract fails vet (the PR 8
//	    Run-vs-Close regression guard).
//
// On any source line (trailing or leading comment):
//
//	//lmfao:ignore <analyzer> [<analyzer>...] [— reason]
//	    Suppresses the named analyzers' diagnostics for that line. Use
//	    sparingly and give a reason; an ignore without one reads as a
//	    suppressed bug.
package annotations

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive names understood by the analyzer suite.
const (
	ImmutableAfterPublish = "immutable-after-publish"
	PrePublish            = "pre-publish"
	Requires              = "requires"
	Acquires              = "acquires"
	Ignore                = "ignore"
)

// prefix is what every directive line starts with after comment markers.
const prefix = "lmfao:"

// Directive is one parsed "lmfao:" comment line.
type Directive struct {
	// Name is the directive keyword after "lmfao:" (e.g. "requires").
	Name string
	// Args is the remainder of the line after the name, space-trimmed.
	Args string
	// Pos locates the directive's comment line.
	Pos token.Pos
}

// parseLine parses one comment's text into a directive, or ok=false.
func parseLine(c *ast.Comment) (Directive, bool) {
	text := c.Text
	switch {
	case strings.HasPrefix(text, "//"):
		text = text[2:]
	case strings.HasPrefix(text, "/*"):
		// Block comments never carry directives.
		return Directive{}, false
	}
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, prefix) {
		return Directive{}, false
	}
	rest := text[len(prefix):]
	name := rest
	args := ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, args = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Args: args, Pos: c.Pos()}, true
}

// Parse returns every directive in a doc comment group (nil-safe).
func Parse(doc *ast.CommentGroup) []Directive {
	if doc == nil {
		return nil
	}
	var out []Directive
	for _, c := range doc.List {
		if d, ok := parseLine(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// Has reports whether the doc comment carries the named directive.
func Has(doc *ast.CommentGroup, name string) bool {
	_, ok := Arg(doc, name)
	return ok
}

// Arg returns the first occurrence's args of the named directive and
// whether it is present at all.
func Arg(doc *ast.CommentGroup, name string) (string, bool) {
	for _, d := range Parse(doc) {
		if d.Name == name {
			return d.Args, true
		}
	}
	return "", false
}

// IgnoredLines scans a parsed file's comments for "lmfao:ignore" directives
// and returns, per file line, the set of analyzer names suppressed on that
// line. The ignore applies to the line the comment sits on, so both
// trailing comments and dedicated comment lines work.
func IgnoredLines(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	var out map[int]map[string]bool
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := parseLine(c)
			if !ok || d.Name != Ignore {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if out == nil {
				out = make(map[int]map[string]bool)
			}
			set := out[line]
			if set == nil {
				set = make(map[string]bool)
				out[line] = set
			}
			for _, name := range strings.Fields(d.Args) {
				// Stop at a reason separator: anything after "—" or "--"
				// is prose, not an analyzer name.
				if name == "—" || name == "--" || name == "-" {
					break
				}
				set[name] = true
			}
		}
	}
	return out
}
