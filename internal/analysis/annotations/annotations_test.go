package annotations

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func TestParseDirectives(t *testing.T) {
	const src = `package x

// doSomething frobs.
//
// lmfao:requires writerMu
// lmfao:acquires closeMu.R
//lmfao:pre-publish
func doSomething() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Decls[0].(*ast.FuncDecl).Doc

	ds := Parse(doc)
	if len(ds) != 3 {
		t.Fatalf("Parse returned %d directives, want 3: %+v", len(ds), ds)
	}
	if ds[0].Name != Requires || ds[0].Args != "writerMu" {
		t.Errorf("directive 0 = %+v, want requires writerMu", ds[0])
	}
	if ds[1].Name != Acquires || ds[1].Args != "closeMu.R" {
		t.Errorf("directive 1 = %+v, want acquires closeMu.R", ds[1])
	}
	if ds[2].Name != PrePublish || ds[2].Args != "" {
		t.Errorf("directive 2 = %+v, want pre-publish (pragma style)", ds[2])
	}

	if !Has(doc, Requires) || Has(doc, ImmutableAfterPublish) {
		t.Errorf("Has: requires=%v immutable-after-publish=%v, want true/false", Has(doc, Requires), Has(doc, ImmutableAfterPublish))
	}
	if arg, ok := Arg(doc, Acquires); !ok || arg != "closeMu.R" {
		t.Errorf("Arg(acquires) = %q, %v; want closeMu.R, true", arg, ok)
	}
}

func TestParseRejectsNonDirectives(t *testing.T) {
	const src = `package x

/* lmfao:requires writerMu */
// the word lmfao: mid-sentence is prose, not a directive prefix match
// almost-lmfao:requires writerMu
func f() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if ds := Parse(f.Decls[0].(*ast.FuncDecl).Doc); len(ds) != 0 {
		t.Fatalf("Parse accepted %d bogus directives: %+v", len(ds), ds)
	}
}

func TestIgnoredLines(t *testing.T) {
	const src = `package x

func f() {
	a := 1 //lmfao:ignore lockheld atomicfield — reason words here
	_ = a
	// lmfao:ignore senterr
	b := 2
	_ = b
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ig := IgnoredLines(fset, f)
	if !ig[4]["lockheld"] || !ig[4]["atomicfield"] {
		t.Errorf("line 4 ignores = %v, want lockheld and atomicfield", ig[4])
	}
	if ig[4]["reason"] || ig[4]["—"] {
		t.Errorf("line 4 parsed prose after the reason separator as analyzer names: %v", ig[4])
	}
	if !ig[6]["senterr"] {
		t.Errorf("line 6 ignores = %v, want senterr", ig[6])
	}
	if len(ig[5]) != 0 {
		t.Errorf("line 5 unexpectedly ignores %v", ig[5])
	}
}
