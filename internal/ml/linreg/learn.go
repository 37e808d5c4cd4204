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
	// Iterations is the number of BGD steps taken (0 for closed form).
	Iterations int
	// FinalLoss is J(θ) at the returned parameters.
	FinalLoss float64
}

// OptimOptions configures batch gradient descent.
type OptimOptions struct {
	MaxIters  int
	Tolerance float64 // stop when ‖∇J‖ ≤ Tolerance
	// Step0 is the initial step size before Barzilai-Borwein kicks in.
	Step0 float64
}

// DefaultOptim matches the AC/DC setup: BGD with Armijo backtracking and
// Barzilai-Borwein step sizes.
func DefaultOptim() OptimOptions {
	return OptimOptions{MaxIters: 2000, Tolerance: 1e-8, Step0: 1}
}

// lossAndGrad evaluates J(θ) and ∇J(θ) purely from the covar matrix: the
// data is never touched again after the single aggregate batch (paper: "the
// computation of the covar matrix does not depend on the parameters θ, and
// can be done once for all BGD iterations").
func (cm *CovarMatrix) lossAndGrad(theta []float64, lambda float64, grad []float64) float64 {
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
		si := dotInOrder(cm.Sigma.Data[i*d:(i+1)*d], full)
		loss += full[i] * si
		if i != cm.LabelIdx && grad != nil {
			g := si / n
			if !cm.Features[i].Intercept {
				g += lambda * theta[i]
			}
			grad[i] = g
		}
	}
	if grad != nil {
		grad[cm.LabelIdx] = 0
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

// LearnBGD optimizes the model by batch gradient descent over the covar
// matrix with Armijo backtracking line search and Barzilai-Borwein steps.
func LearnBGD(cm *CovarMatrix, spec FeatureSpec, opt OptimOptions) (*Model, error) {
	if opt.MaxIters <= 0 {
		opt = DefaultOptim()
	}
	d := len(cm.Features)
	theta := make([]float64, d)
	grad := make([]float64, d)
	prevTheta := make([]float64, d)
	prevGrad := make([]float64, d)
	trial := make([]float64, d)

	loss := cm.lossAndGrad(theta, spec.Lambda, grad)
	step := opt.Step0
	iters := 0
	for ; iters < opt.MaxIters; iters++ {
		gnorm := linalg.Norm2(grad)
		if gnorm <= opt.Tolerance {
			break
		}
		// Barzilai-Borwein step from the previous iterate.
		if iters > 0 {
			var sy, yy float64
			for i := range theta {
				s := theta[i] - prevTheta[i]
				y := grad[i] - prevGrad[i]
				sy += s * y
				yy += y * y
			}
			if yy > 0 && sy > 0 {
				step = sy / yy
			}
		}
		copy(prevTheta, theta)
		copy(prevGrad, grad)

		// Armijo backtracking: halve the step until sufficient decrease.
		accepted := false
		for bt := 0; bt < 60; bt++ {
			copy(trial, theta)
			linalg.AXPY(-step, grad, trial)
			trial[cm.LabelIdx] = 0
			newLoss := cm.lossAndGrad(trial, spec.Lambda, nil)
			if newLoss <= loss-1e-4*step*gnorm*gnorm {
				copy(theta, trial)
				loss = newLoss
				accepted = true
				break
			}
			step /= 2
		}
		if !accepted {
			break // no further progress at machine precision
		}
		loss = cm.lossAndGrad(theta, spec.Lambda, grad)
	}
	return &Model{Spec: spec, Features: cm.Features, Theta: theta,
		Iterations: iters, FinalLoss: loss}, nil
}

// LearnClosedForm solves the ridge normal equations directly (the MADlib OLS
// proxy): (Σ_ff + nλI)θ = Σ_fy with the intercept unpenalized.
func LearnClosedForm(cm *CovarMatrix, spec FeatureSpec) (*Model, error) {
	d := len(cm.Features)
	n := cm.Count
	if n == 0 {
		return nil, fmt.Errorf("linreg: empty training set")
	}
	a := linalg.NewMatrix(d-1, d-1)
	b := make([]float64, d-1)
	// Map full index → reduced (label removed).
	red := make([]int, 0, d-1)
	for i := 0; i < d; i++ {
		if i != cm.LabelIdx {
			red = append(red, i)
		}
	}
	for ri, i := range red {
		for rj, j := range red {
			v := cm.Sigma.At(i, j)
			if ri == rj && !cm.Features[i].Intercept {
				v += n * spec.Lambda
			}
			a.Set(ri, rj, v)
		}
		b[ri] = cm.Sigma.At(i, cm.LabelIdx)
	}
	x, err := linalg.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("linreg: normal equations: %w (try a larger Lambda)", err)
	}
	theta := make([]float64, d)
	for ri, i := range red {
		theta[i] = x[ri]
	}
	m := &Model{Spec: spec, Features: cm.Features, Theta: theta}
	m.FinalLoss = cm.lossAndGrad(theta, spec.Lambda, nil)
	return m, nil
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
