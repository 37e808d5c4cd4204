// Package linalg provides the small dense linear-algebra substrate used by
// the learning applications: symmetric linear solves for ridge normal
// equations and an in-place AXPY. Only the stdlib is used.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major square-or-rectangular matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set sets m[i,j].
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v into m[i,j].
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Solve solves A·x = b by Gaussian elimination with partial pivoting,
// destroying neither input. A must be square.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: Solve requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d != %d", len(b), n)
	}
	m := a.Clone()
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-12 {
			return nil, fmt.Errorf("linalg: singular matrix at column %d", col)
		}
		if piv != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[piv*n+j] = m.Data[piv*n+j], m.Data[col*n+j]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Add(r, j, -f*m.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// AXPY computes y += alpha·x in place.
func AXPY(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}
