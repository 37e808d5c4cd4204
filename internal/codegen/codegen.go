// Package codegen turns optimized LMFAO plans into specialized Go source
// code — the repository's rendition of the paper's Compilation layer, which
// emits C++ per view group and compiles it out of process. The emitted file
// is self-contained (stdlib only), gofmt-formatted and compilable; custom
// UDAFs become stub functions to be supplied at link time, mirroring the
// paper's dynamically compiled function file.
package codegen

import (
	"bytes"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"

	"repro/internal/core"
	"repro/internal/jointree"
	"repro/internal/moo"
	"repro/internal/query"
)

// Options mirror the engine's logical plan options.
type Options struct {
	MultiRoot   bool
	MultiOutput bool
}

// DefaultOptions enables all logical optimizations.
func DefaultOptions() Options { return Options{MultiRoot: true, MultiOutput: true} }

// Generate plans the batch over the tree and emits formatted Go source
// implementing every view group as a specialized multi-output scan.
func Generate(tree *jointree.Tree, queries []*query.Query, opts Options) ([]byte, error) {
	plan, err := core.BuildPlan(tree, queries, core.PlanOptions{
		MultiRoot:   opts.MultiRoot,
		MultiOutput: opts.MultiOutput,
	})
	if err != nil {
		return nil, err
	}
	return GenerateFromPlan(plan)
}

// GenerateFromPlan emits formatted Go source for an existing plan.
func GenerateFromPlan(plan *core.Plan) ([]byte, error) {
	var buf bytes.Buffer
	if err := moo.GenerateSource(plan, &buf); err != nil {
		return nil, err
	}
	return finish(buf.Bytes())
}

// GenerateMaintenance plans the batch with hidden tuple counts (deletion
// support) and emits formatted Go source covering both evaluation and
// incremental maintenance: the computeGroup scans plus, per join-tree
// relation, the specialized maintenance kernels and a maintain_<Rel> driver —
// the source form of the compiled maintenance kernels moo.Engine.Apply runs.
func GenerateMaintenance(tree *jointree.Tree, queries []*query.Query, opts Options) ([]byte, error) {
	plan, err := core.BuildPlan(tree, queries, core.PlanOptions{
		MultiRoot:   opts.MultiRoot,
		MultiOutput: opts.MultiOutput,
		TrackCounts: true,
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := moo.GenerateMaintenanceSource(plan, &buf); err != nil {
		return nil, err
	}
	return finish(buf.Bytes())
}

// finish formats and validates emitted source, returning the raw bytes in
// the error path to aid debugging.
func finish(raw []byte) ([]byte, error) {
	src, err := format.Source(raw)
	if err != nil {
		return raw, fmt.Errorf("codegen: emitted source does not format: %w", err)
	}
	if err := Validate(src); err != nil {
		return src, err
	}
	return src, nil
}

// Validate parses the generated source, rejecting syntactically invalid
// output.
func Validate(src []byte) error {
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "generated.go", src, parser.AllErrors); err != nil {
		return fmt.Errorf("codegen: generated source does not parse: %w", err)
	}
	return nil
}
