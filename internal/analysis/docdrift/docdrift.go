// Package docdrift is the godoc coverage gate. It runs with the rest of the
// lmfao-vet suite (go vet -vettool in CI's lint job, and
// TestSuiteCleanOnHead under go test). Three phases:
//
//  1. every package (commands included) must have a package comment;
//  2. every exported top-level symbol of the packages listed in
//     CoveragePaths — the public lmfao package and internal/monoid, the
//     contract new aggregate instances are written against — must carry a
//     doc comment: its own, or for grouped declarations either a comment
//     on the group or one on the member;
//  3. exported interfaces of the public package must embed their full
//     method list in their doc comment (the serving-API contract types
//     document their method sets; a method added or renamed without
//     updating the documented contract is drift).
//
// The analyzer sees resolved declarations instead of regex-matched lines,
// so grouped declarations, build-tagged files, and factored receivers are
// handled by the parser rather than awk heuristics. Test files are
// ignored throughout, and external test packages (no non-test files) are
// skipped entirely.
package docdrift

import (
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the docdrift analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "docdrift",
	Doc:  "godoc coverage: package comments, exported-symbol docs, interface doc drift",
	Run:  run,
}

// CoveragePaths are the import paths held to phases 2 and 3 (full
// exported-symbol coverage and interface method-list drift). Phase 1
// applies everywhere. Tests may override this to point at fixtures.
var CoveragePaths = map[string]bool{
	"repro":                 true,
	"repro/internal/monoid": true,
}

// InterfacePaths are the import paths held to phase 3. Only the public
// package documents method sets in prose today.
var InterfacePaths = map[string]bool{
	"repro": true,
}

func run(pass *analysis.Pass) error {
	var files []*ast.File
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if !strings.HasSuffix(name, "_test.go") {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil // external test package: nothing to document
	}

	checkPackageComment(pass, files)

	path := pass.ImportPath
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i] // test variant of the base package
	}
	if CoveragePaths[path] {
		for _, f := range files {
			checkSymbolDocs(pass, f)
		}
	}
	if InterfacePaths[path] {
		for _, f := range files {
			checkInterfaceDocs(pass, f)
		}
	}
	return nil
}

// checkPackageComment is phase 1: some non-test file must carry a package
// comment.
func checkPackageComment(pass *analysis.Pass, files []*ast.File) {
	for _, f := range files {
		if f.Doc != nil {
			return
		}
	}
	pass.Reportf(files[0].Name.Pos(), "package %s has no package comment; add a godoc comment above the package clause of one file", files[0].Name.Name)
}

// checkSymbolDocs is phase 2: exported top-level symbols need doc
// comments.
func checkSymbolDocs(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				pass.Reportf(d.Name.Pos(), "exported %s %s has no doc comment", funcKind(d), d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Tok == token.IMPORT {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
						pass.Reportf(s.Name.Pos(), "exported type %s has no doc comment", s.Name.Name)
					}
				case *ast.ValueSpec:
					if s.Doc != nil || d.Doc != nil {
						continue
					}
					for _, name := range s.Names {
						if name.IsExported() {
							pass.Reportf(name.Pos(), "exported %s %s has no doc comment", d.Tok, name.Name)
						}
					}
				}
			}
		}
	}
}

func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// checkInterfaceDocs is phase 3: an exported interface's doc comment must
// mention every explicit exported method as "Name(".
func checkInterfaceDocs(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		d, ok := decl.(*ast.GenDecl)
		if !ok || d.Tok != token.TYPE {
			continue
		}
		for _, spec := range d.Specs {
			s, ok := spec.(*ast.TypeSpec)
			if !ok || !s.Name.IsExported() {
				continue
			}
			iface, ok := s.Type.(*ast.InterfaceType)
			if !ok {
				continue
			}
			doc := s.Doc
			if doc == nil {
				doc = d.Doc
			}
			text := doc.Text() // empty for nil doc; phase 2 already flags that
			for _, m := range iface.Methods.List {
				for _, name := range m.Names {
					if !name.IsExported() {
						continue
					}
					if !strings.Contains(text, name.Name+"(") {
						pass.Reportf(name.Pos(), "interface doc drift: %s documents no method %s; embed the full method list in the doc comment", s.Name.Name, name.Name)
					}
				}
			}
		}
	}
}
