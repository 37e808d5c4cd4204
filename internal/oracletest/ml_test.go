package oracletest

import (
	"fmt"
	"math/rand"
	"testing"

	lmfao "repro"
	"repro/internal/ml/chowliu"
	"repro/internal/ml/linreg"
	"repro/internal/moo"
)

// Differential coverage for the ML applications over maintained sessions:
// the application-layer statistics (linreg's covar matrix, chowliu's
// mutual-information matrix) assembled from an incrementally maintained
// session must match the same statistics recomputed from scratch on the
// mutated database. Comparison is tolerance-based (Tolerance.Approx):
// the assembly and MI evaluation reorder float sums and apply logs, so
// bit-exactness is not guaranteed even on dyadic base data.

// freshOpts is the recompute engine configuration: single-threaded, so the
// from-scratch reference is deterministic.
var freshOpts = moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true, Threads: 1}

// covarByName flattens a covar matrix into feature-name-keyed entries; the
// maintained and fresh assemblies may discover one-hot categories in
// different row orders, so positional comparison would be spurious.
func covarByName(cm *linreg.CovarMatrix) map[string]float64 {
	out := make(map[string]float64, len(cm.Features)*len(cm.Features))
	for i, fi := range cm.Features {
		for j, fj := range cm.Features {
			out[fi.Name+"|"+fj.Name] = cm.Sigma.At(i, j)
		}
	}
	return out
}

func diffCovar(label string, got, want *linreg.CovarMatrix, tol Tolerance) error {
	if !tol.equal(got.Count, want.Count) {
		return fmt.Errorf("%s: count %v, want %v", label, got.Count, want.Count)
	}
	g, w := covarByName(got), covarByName(want)
	if len(g) != len(w) {
		return fmt.Errorf("%s: %d sigma entries, want %d (feature sets differ)", label, len(g), len(w))
	}
	for k, wv := range w {
		gv, ok := g[k]
		if !ok {
			return fmt.Errorf("%s: feature pair %s missing from maintained covar", label, k)
		}
		if !tol.equal(gv, wv) {
			return fmt.Errorf("%s: sigma[%s] = %v, want %v", label, k, gv, wv)
		}
	}
	return nil
}

// TestMLLinRegMaintained streams updates through a session serving the
// covar-matrix batch and checks the assembled matrix against a from-scratch
// recompute after every round.
func TestMLLinRegMaintained(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(900 + seed))
			s, err := GenSchema(rng)
			if err != nil {
				t.Fatal(err)
			}
			spec := linreg.FeatureSpec{
				Continuous:  s.Numeric[:1],
				Categorical: s.Discrete[:1],
				Label:       s.Numeric[len(s.Numeric)-1],
				Lambda:      0.5,
			}
			batch := linreg.CovarBatch(spec)
			opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true,
				Threads: 1 + int(seed%2)}
			sess, err := lmfao.NewSession(s.DB, batch, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 4; step++ {
				d := GenDelta(rng, s.DB, 10)
				if _, err := sess.Apply(d); err != nil {
					t.Fatalf("step %d (%s): %v", step, d.Relation, err)
				}
				maintained, err := linreg.AssembleCovar(s.DB, spec, batch, sess.Result().Results)
				if err != nil {
					t.Fatalf("step %d: assembling maintained covar: %v", step, err)
				}
				eng, err := moo.NewEngine(s.DB, freshOpts)
				if err != nil {
					t.Fatal(err)
				}
				fresh, _, err := linreg.BuildCovar(eng, spec)
				if err != nil {
					t.Fatalf("step %d: recomputing covar: %v", step, err)
				}
				if err := diffCovar(fmt.Sprintf("step %d", step), maintained, fresh, Approx); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestMLChowLiuMaintained does the same for the mutual-information batch:
// the MI matrix over a maintained session must track the recomputed one.
func TestMLChowLiuMaintained(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(950 + seed))
			s, err := GenSchema(rng)
			if err != nil {
				t.Fatal(err)
			}
			nAttrs := 2 + int(seed%2)
			if nAttrs > len(s.Discrete) {
				nAttrs = len(s.Discrete)
			}
			attrs := s.Discrete[:nAttrs]
			batch := chowliu.MIBatch(attrs)
			opts := moo.Options{MultiRoot: true, MultiOutput: true, Compiled: true,
				Threads: 1 + int(seed%3)}
			sess, err := lmfao.NewSession(s.DB, batch, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 4; step++ {
				d := GenDelta(rng, s.DB, 10)
				if _, err := sess.Apply(d); err != nil {
					t.Fatalf("step %d (%s): %v", step, d.Relation, err)
				}
				maintained, err := chowliu.Assemble(attrs, sess.Result().Results)
				if err != nil {
					t.Fatalf("step %d: assembling maintained MI: %v", step, err)
				}
				eng, err := moo.NewEngine(s.DB, freshOpts)
				if err != nil {
					t.Fatal(err)
				}
				fresh, _, err := chowliu.Compute(eng, attrs)
				if err != nil {
					t.Fatalf("step %d: recomputing MI: %v", step, err)
				}
				if !Approx.equal(maintained.Total, fresh.Total) {
					t.Fatalf("step %d: total %v, want %v", step, maintained.Total, fresh.Total)
				}
				for i := range attrs {
					for j := range attrs {
						if g, w := maintained.MI.At(i, j), fresh.MI.At(i, j); !Approx.equal(g, w) {
							t.Fatalf("step %d: MI[%d][%d] = %v, want %v", step, i, j, g, w)
						}
					}
				}
			}
		})
	}
}
