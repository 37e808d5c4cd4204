// Retail forecasting (paper §4.2): learn a ridge linear regression model
// predicting unit sales over the Favorita star schema — without ever
// materializing the training dataset. The covar matrix is one aggregate
// batch; preconditioned conjugate gradient then converges over it, and the
// result is checked against the closed-form solution (the MADlib proxy). Run
// with:
//
//	go run ./examples/retailforecast
package main

import (
	"fmt"
	"log"
	"time"

	lmfao "repro"
	"repro/internal/baseline"
	"repro/internal/datagen"
	"repro/internal/moo"
	"repro/internal/workloads"
)

func main() {
	ds, err := datagen.Favorita(datagen.Config{Scale: 0.001, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Favorita: %d relations, %d tuples\n",
		len(ds.DB.Relations()), ds.DB.TotalTuples())

	eng := moo.NewEngineWithTree(ds.DB, ds.Tree, moo.DefaultOptions())
	spec := workloads.LinRegSpec(ds)
	fmt.Printf("features: %d continuous, %d categorical (one-hot), label %q\n",
		len(spec.Continuous), len(spec.Categorical), ds.DB.Attribute(spec.Label).Name)

	// Step 1: the covar matrix as one aggregate batch.
	start := time.Now()
	cm, batchRes, err := lmfao.BuildCovarMatrix(eng, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncovar matrix: %d×%d over %0.f training tuples in %v\n",
		len(cm.Features), len(cm.Features), cm.Count, time.Since(start))
	s := batchRes.Plan.Stats
	fmt.Printf("  batch: %d aggregates (+%d intermediates) in %d views, %d groups\n",
		s.AppAggregates, s.IntermediateAggs, s.Views, s.Groups)

	// Step 2: Jacobi-preconditioned conjugate gradient over the covar matrix.
	start = time.Now()
	model, err := lmfao.LearnLinearRegression(eng, spec)
	if err != nil {
		log.Fatal(err)
	}
	outcome := "converged"
	if !model.Converged {
		outcome = "stopped at the iteration cap"
	}
	// LearnLinearRegression runs the covar batch again before it fits.
	fmt.Printf("\nconjugate gradient %s after %d iterations (batch + fit %v), J(θ) = %.6g\n",
		outcome, model.Iterations, time.Since(start), model.FinalLoss)

	closed, err := lmfao.LearnLinearRegressionClosedForm(eng, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closed form (MADlib proxy) J(θ) = %.6g\n", closed.FinalLoss)

	// Step 3: accuracy check over the materialized join (built only for
	// evaluation — training never touched it).
	base := baseline.NewWithTree(ds.DB, ds.Tree)
	flat, err := base.Materialize()
	if err != nil {
		log.Fatal(err)
	}
	rmse, err := model.RMSE(flat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntraining dataset: %d tuples (%.1fx the database, never materialized for training)\n",
		flat.Len(), float64(flat.Len())/float64(ds.DB.TotalTuples()))
	fmt.Printf("RMSE over the join: %.4f\n", rmse)

	fmt.Println("\ntop-weighted features:")
	printed := 0
	for i, f := range model.Features {
		if f.Intercept || f.Attr == spec.Label {
			continue
		}
		if model.Theta[i] > 0.5 || model.Theta[i] < -0.5 {
			fmt.Printf("  %-24s % .4f\n", f.Name, model.Theta[i])
			printed++
			if printed == 8 {
				break
			}
		}
	}
}
