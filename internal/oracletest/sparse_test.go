package oracletest

import (
	"fmt"
	"math/rand"
	"testing"

	lmfao "repro"
	"repro/internal/data"
	"repro/internal/moo"
	"repro/internal/query"
)

// genSparseStar is genStar with holes: every dimension table loses between
// one and half of its keys, so a known share of fact keys joins no
// dimension row.
func genSparseStar(rng *rand.Rand) (*Schema, error) {
	s, err := genStar(rng, false)
	if err != nil {
		return nil, err
	}
	for _, rel := range s.DB.Relations() {
		if rel.Name == "F" {
			continue
		}
		drop := rng.Perm(rel.Len())[:1+rng.Intn(rel.Len()/2)]
		cols := make([]data.Column, len(rel.Cols))
		for ci, c := range rel.Cols {
			if c.IsInt() {
				vals := make([]int64, len(drop))
				for i, r := range drop {
					vals[i] = c.Ints[r]
				}
				cols[ci] = data.NewIntColumn(vals)
			} else {
				vals := make([]float64, len(drop))
				for i, r := range drop {
					vals[i] = c.Floats[r]
				}
				cols[ci] = data.NewFloatColumn(vals)
			}
		}
		if err := rel.DeleteRows(cols); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// sparseCoverage reports whether some fact row joins every dimension and
// some fact row misses a dimension row.
func sparseCoverage(db *data.Database) (joined, missing bool) {
	fact := db.Relation("F")
	for r := 0; r < fact.Len(); r++ {
		all := true
		for _, dim := range db.Relations() {
			if dim.Name == "F" {
				continue
			}
			key := dim.Attrs[0]
			col := fact.MustCol(key).Ints
			found := false
			for _, v := range dim.MustCol(key).Ints {
				found = found || v == col[r]
			}
			all = all && found
		}
		joined = joined || all
		missing = missing || !all
	}
	return joined, missing
}

// TestSparseStarBothWalks drives Run and Apply over star schemas whose
// dimensions miss a share of the fact keys, bit-exact against the baseline
// on dyadic data. The scan has two walks over one set of slot tables, and
// this data forces both:
//
//   - At the fact node, a key that joins its dimension binds the dimension
//     view, so the lookup slots at that depth are bound and the running sums
//     and emissions there take the check-free loops; a key missing from the
//     dimension leaves them unbound, and the same depth takes the checked
//     walk, which must skip exactly the unmatched contributions.
//   - A level whose last child key was unmatched is not fully present, so
//     chains and emissions reading it take the checked walk even when their
//     own slots are bound.
//   - Queries grouped by attributes of two dimensions carry one dimension's
//     attribute through the other view or the fact scan: carried emission
//     runs under both walks as their keys match or miss.
//   - Dimension deletes in the update stream empty more keys mid-stream and
//     fact inserts bring fresh keys (up to 8, past every dimension), so
//     Apply's delta and restricted scans meet unbound lookups too.
//
// sparseCoverage asserts every generated database has both matched and
// unmatched fact rows.
func TestSparseStarBothWalks(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(700 + seed))
			s, err := genSparseStar(rng)
			if err != nil {
				t.Fatal(err)
			}
			if joined, missing := sparseCoverage(s.DB); !joined || !missing {
				t.Fatalf("vacuous data: fact rows joined=%v missing=%v", joined, missing)
			}
			queries := append(GenQueries(rng, s),
				query.NewQuery("cross", []data.AttrID{s.Discrete[len(s.Discrete)-2], s.Discrete[len(s.Discrete)-1]},
					query.CountAgg(), query.SumAgg(s.Numeric[0]), query.SumProdAgg(s.Numeric[1], s.Numeric[2])))
			if err := CheckBatch(s.DB, queries, Exact); err != nil {
				t.Fatal(err)
			}
			opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 1}
			sess, err := lmfao.NewSession(s.DB, queries, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(); err != nil {
				t.Fatal(err)
			}
			rels := s.DB.Relations()
			for step := 0; step < 8; step++ {
				d := GenDeltaOn(rng, rels[rng.Intn(len(rels))], 6)
				if _, err := sess.Apply(d); err != nil {
					t.Fatalf("step %d (%s): %v", step, d.Relation, err)
				}
				if err := CheckMaintained(sess.Engine(), sess.Result(), queries, Exact); err != nil {
					t.Fatalf("step %d (%s +%d -%d): %v", step, d.Relation, d.InsertRows(), d.DeleteRows(), err)
				}
			}
		})
	}
}
