// Package analysis is the engine's static-analysis suite: a minimal,
// dependency-free reimplementation of the go/analysis driver pattern plus
// the custom analyzers that machine-check this codebase's layer contracts
// (snapshot publication, lock protocols, atomic fields, checkpoint
// durability, sentinel errors, godoc coverage). cmd/lmfao-vet exposes the
// suite through the `go vet -vettool` protocol; the per-analyzer contracts
// live in the analyzer subpackages and the comment-directive grammar they
// consume in internal/analysis/annotations.
//
// The framework mirrors golang.org/x/tools/go/analysis — Analyzer, Pass,
// Diagnostic — but is built on the standard library only: the module
// vendors nothing and adds no dependencies, so the vet tool builds from a
// bare checkout with the Go toolchain alone. Cross-package facts are
// deliberately unsupported; every invariant here is checkable one package
// at a time (annotations travel in source, not in fact files).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/annotations"
)

// An Analyzer describes one analysis: a named, documented check over a
// single type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, test expectations and
	// lmfao:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is the analyzer's contract: the invariant it enforces and the
	// bug class that motivated it.
	Doc string
	// Run executes the check, reporting findings through pass.Report.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run with a single type-checked package and
// a sink for diagnostics.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// ImportPath is the package's import path as the build system named
	// it — test variants keep their go list spelling, e.g.
	// "repro [repro.test]".
	ImportPath string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files is the package's parsed syntax, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo carries the type-checker's facts about Files.
	TypesInfo *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding: a position and a message describing the
// violated invariant.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a diagnostic tagged with the analyzer that produced it,
// as returned by RunPackage.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// A Package is one loaded, type-checked compilation unit, ready for
// analyzer runs. Both the standalone loader (Load) and the vet-protocol
// unit runner (RunUnit) produce it.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// RunPackage executes the analyzers over one package, applies the
// lmfao:ignore suppressions and returns the surviving findings in source
// order (analyzer order breaks position ties). Analyzer run errors are
// returned after the findings collected so far.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	ignored := make(map[int]map[string]bool)
	for _, f := range pkg.Files {
		for line, names := range annotations.IgnoredLines(pkg.Fset, f) {
			if ignored[line] == nil {
				ignored[line] = names
				continue
			}
			for n := range names {
				ignored[line][n] = true
			}
		}
	}
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			ImportPath: pkg.ImportPath,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.TypesInfo,
		}
		pass.Report = func(d Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if names := ignored[pos.Line]; names != nil && names[a.Name] {
				return
			}
			out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return out, fmt.Errorf("%s: analyzer %s: %w", pkg.ImportPath, a.Name, err)
		}
	}
	sortFindings(out)
	return out, nil
}

func sortFindings(fs []Finding) {
	// Insertion sort keeps the dependency surface nil; finding lists are
	// tiny (they gate CI at zero).
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && lessFinding(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func lessFinding(a, b Finding) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	return a.Analyzer < b.Analyzer
}
