// Package suite registers the full lmfao-vet analyzer set. It exists as
// its own package (rather than a list in internal/analysis) so the
// framework does not import the analyzers it runs; the multichecker, the
// clean-tree test, and any future tool share this one registry.
package suite

import (
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/docdrift"
	"repro/internal/analysis/fsyncrename"
	"repro/internal/analysis/lockheld"
	"repro/internal/analysis/publishedmut"
	"repro/internal/analysis/senterr"
)

// All is every analyzer lmfao-vet runs, in report order.
var All = []*analysis.Analyzer{
	atomicfield.Analyzer,
	docdrift.Analyzer,
	fsyncrename.Analyzer,
	lockheld.Analyzer,
	publishedmut.Analyzer,
	senterr.Analyzer,
}

// Select returns the analyzers named in the comma-separated list, or All
// when the list is empty. Unknown names return nil and the name.
func Select(list string) ([]*analysis.Analyzer, string) {
	if list == "" {
		return All, ""
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range All {
		byName[a.Name] = a
	}
	var picked []*analysis.Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, name
		}
		picked = append(picked, a)
	}
	return picked, ""
}
