package main

import (
	"math/rand"
	"strings"

	"repro/internal/data"
)

// randomDelta builds an update batch of about frac × rel.Len() rows: half
// fresh inserts cloned from random existing tuples (numeric attributes
// perturbed), half deletions of random existing tuples.
func randomDelta(rng *rand.Rand, rel *data.Relation, frac float64) data.Delta {
	n := int(frac * float64(rel.Len()))
	if n < 2 {
		n = 2
	}
	nIns, nDel := n/2, n-n/2
	if nDel > rel.Len() {
		nDel = rel.Len()
	}

	ins := make([]data.Column, len(rel.Cols))
	rows := make([]int, nIns)
	for i := range rows {
		rows[i] = rng.Intn(rel.Len())
	}
	for ci, c := range rel.Cols {
		if c.IsInt() {
			vals := make([]int64, nIns)
			for i, r := range rows {
				vals[i] = c.Ints[r]
			}
			ins[ci] = data.NewIntColumn(vals)
		} else {
			vals := make([]float64, nIns)
			for i, r := range rows {
				vals[i] = c.Floats[r] * (1 + 0.125*float64(rng.Intn(3)-1))
			}
			ins[ci] = data.NewFloatColumn(vals)
		}
	}

	del := make([]data.Column, len(rel.Cols))
	idx := rng.Perm(rel.Len())[:nDel]
	for ci, c := range rel.Cols {
		if c.IsInt() {
			vals := make([]int64, nDel)
			for i, r := range idx {
				vals[i] = c.Ints[r]
			}
			del[ci] = data.NewIntColumn(vals)
		} else {
			vals := make([]float64, nDel)
			for i, r := range idx {
				vals[i] = c.Floats[r]
			}
			del[ci] = data.NewFloatColumn(vals)
		}
	}
	return data.Delta{Relation: rel.Name, Inserts: ins, Deletes: del}
}

// updateDatasets defaults the maintenance benchmarks to the retailer
// workload when the user did not restrict datasets (the full sweep is slow).
func updateDatasets(explicit string) []string {
	if explicit != "" {
		return strings.Split(explicit, ",")
	}
	return []string{"retailer"}
}
