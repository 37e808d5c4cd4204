package linreg

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/linalg"
)

// Model is a trained ridge linear regression model over the expanded feature
// space of a CovarMatrix.
type Model struct {
	Spec     FeatureSpec
	Features []Feature
	// Theta holds one parameter per feature (the label position carries the
	// fixed −1 and is not part of the optimized parameters).
	Theta []float64
	// Iterations is the number of conjugate-gradient steps taken (0 for
	// closed form, the epoch count for a materialized fit).
	Iterations int
	// Converged reports that Theta is the optimum: the solver met its
	// tolerance before MaxIters, or the normal equations were solved
	// directly. A fit stopped at the cap is still usable and reports false.
	Converged bool
	// FinalLoss is J(θ) at the returned parameters.
	FinalLoss float64
}

// OptimOptions configures the conjugate-gradient solver. A field left zero
// takes its DefaultOptim value.
type OptimOptions struct {
	MaxIters  int
	Tolerance float64 // stop when ‖r‖ ≤ Tolerance·‖r₀‖ in the scaled system
}

// DefaultOptim reaches the closed-form loss to within 10⁻¹³ relative on the
// generated retailer and favorita datasets in 148–858 steps.
func DefaultOptim() OptimOptions {
	return OptimOptions{MaxIters: 2000, Tolerance: 1e-12}
}

// loss evaluates J(θ) purely from the covar matrix: the data is never
// touched again after the single aggregate batch (paper: "the computation of
// the covar matrix does not depend on the parameters θ").
func (cm *CovarMatrix) loss(theta []float64, lambda float64) float64 {
	d := len(cm.Features)
	n := cm.Count
	if n == 0 {
		n = 1
	}
	// θ̃ is θ with −1 at the label position.
	full := make([]float64, d)
	copy(full, theta)
	full[cm.LabelIdx] = -1

	loss := 0.0
	for i := 0; i < d; i++ {
		loss += full[i] * dotInOrder(cm.Sigma.Data[i*d:(i+1)*d], full)
	}
	loss /= 2 * n
	for i, t := range theta {
		if i != cm.LabelIdx && !cm.Features[i].Intercept {
			loss += lambda / 2 * t * t
		}
	}
	return loss
}

// dotInOrder returns Σ a[j]·b[j] accumulated left to right. The loop is
// unrolled by four without reassociating, so the sum is bit-identical to a
// plain loop's, and the chain of dependent adds, not instruction fetch, bounds
// its speed: as a plain loop it ran at half speed whenever the code layout
// put its few instructions across a 64-byte line.
func dotInOrder(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	j := 0
	for ; j+4 <= len(a); j += 4 {
		s += a[j] * b[j]
		s += a[j+1] * b[j+1]
		s += a[j+2] * b[j+2]
		s += a[j+3] * b[j+3]
	}
	for ; j < len(a); j++ {
		s += a[j] * b[j]
	}
	return s
}

// normalEquations builds the ridge normal equations with the label removed,
// (Σ_ff + nλI′)θ = Σ_fy, where I′ leaves the intercept unpenalized, and
// returns the full feature index of each reduced position.
func (cm *CovarMatrix) normalEquations(lambda float64) (*linalg.Matrix, []float64, []int) {
	d := len(cm.Features)
	red := make([]int, 0, d-1)
	for i := 0; i < d; i++ {
		if i != cm.LabelIdx {
			red = append(red, i)
		}
	}
	a := linalg.NewMatrix(d-1, d-1)
	b := make([]float64, d-1)
	for ri, i := range red {
		for rj, j := range red {
			v := cm.Sigma.At(i, j)
			if ri == rj && !cm.Features[i].Intercept {
				v += cm.Count * lambda
			}
			a.Set(ri, rj, v)
		}
		b[ri] = cm.Sigma.At(i, cm.LabelIdx)
	}
	return a, b, red
}

// LearnCG minimizes J(θ) over the covar matrix by Jacobi-preconditioned
// conjugate gradient on the normal equations: with S_ii = A_ii^−½ it runs
// plain CG on SASx = Sb and returns θ = Sx. J is an exact quadratic, so each
// step costs one mat-vec and needs no line search. The scaling also cancels
// the 1/n of J, and the stopping rule ‖r‖ ≤ Tolerance·‖r₀‖ is scale-free.
func LearnCG(cm *CovarMatrix, spec FeatureSpec, opt OptimOptions) (*Model, error) {
	def := DefaultOptim()
	if opt.MaxIters <= 0 {
		opt.MaxIters = def.MaxIters
	}
	if opt.Tolerance <= 0 {
		opt.Tolerance = def.Tolerance
	}
	a, r, red := cm.normalEquations(spec.Lambda)
	m := len(red)
	s := make([]float64, m)
	for i := range s {
		s[i] = 1 // an unpenalized feature that is 0 on every row: its row is all zero
		if v := a.At(i, i); v > 0 {
			s[i] = 1 / math.Sqrt(v)
		}
	}
	for i := 0; i < m; i++ {
		row := a.Data[i*m : (i+1)*m]
		for j := range row {
			row[j] *= s[i] * s[j]
		}
		r[i] *= s[i]
	}

	// r is the residual Sb − SASx, starting from x = 0.
	x := make([]float64, m)
	p := append([]float64(nil), r...)
	ap := make([]float64, m)
	rr := dotInOrder(r, r)
	stop := opt.Tolerance * opt.Tolerance * rr
	converged := rr <= stop
	iters := 0
	for ; !converged && iters < opt.MaxIters; iters++ {
		for i := range ap {
			ap[i] = dotInOrder(a.Data[i*m:(i+1)*m], p)
		}
		pap := dotInOrder(p, ap)
		if !(pap > 0) {
			break // p is in the null space: nothing left to descend
		}
		alpha := rr / pap
		linalg.AXPY(alpha, p, x)
		linalg.AXPY(-alpha, ap, r)
		next := dotInOrder(r, r)
		converged = next <= stop
		for i := range p {
			p[i] = r[i] + next/rr*p[i]
		}
		rr = next
	}
	theta := make([]float64, len(cm.Features))
	for ri, i := range red {
		theta[i] = s[ri] * x[ri]
	}
	return &Model{Spec: spec, Features: cm.Features, Theta: theta, Iterations: iters,
		Converged: converged, FinalLoss: cm.loss(theta, spec.Lambda)}, nil
}

// LearnClosedForm solves the ridge normal equations directly (the MADlib OLS
// proxy): (Σ_ff + nλI′)θ = Σ_fy with the intercept unpenalized.
func LearnClosedForm(cm *CovarMatrix, spec FeatureSpec) (*Model, error) {
	if cm.Count == 0 {
		return nil, fmt.Errorf("linreg: empty training set")
	}
	a, b, red := cm.normalEquations(spec.Lambda)
	x, err := linalg.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("linreg: normal equations: %w (try a larger Lambda)", err)
	}
	theta := make([]float64, len(cm.Features))
	for ri, i := range red {
		theta[i] = x[ri]
	}
	return &Model{Spec: spec, Features: cm.Features, Theta: theta, Converged: true,
		FinalLoss: cm.loss(theta, spec.Lambda)}, nil
}

// PredictRow evaluates the model on row i of a materialized join result.
func (m *Model) PredictRow(flat *data.Relation, i int) (float64, error) {
	pred := 0.0
	for fi, f := range m.Features {
		if f.Intercept {
			pred += m.Theta[fi]
			continue
		}
		if f.Attr == m.Spec.Label {
			continue
		}
		c, ok := flat.Col(f.Attr)
		if !ok {
			return 0, fmt.Errorf("linreg: attribute %d missing from data", f.Attr)
		}
		if f.Cat >= 0 {
			if c.Int(i) == f.Cat {
				pred += m.Theta[fi]
			}
		} else {
			pred += m.Theta[fi] * c.Float(i)
		}
	}
	return pred, nil
}

// RMSE computes the root-mean-square error of the model over a materialized
// join result.
func (m *Model) RMSE(flat *data.Relation) (float64, error) {
	label, ok := flat.Col(m.Spec.Label)
	if !ok {
		return 0, fmt.Errorf("linreg: label missing from data")
	}
	if flat.Len() == 0 {
		return 0, nil
	}
	var sse float64
	for i := 0; i < flat.Len(); i++ {
		p, err := m.PredictRow(flat, i)
		if err != nil {
			return 0, err
		}
		d := p - label.Float(i)
		sse += d * d
	}
	return math.Sqrt(sse / float64(flat.Len())), nil
}
