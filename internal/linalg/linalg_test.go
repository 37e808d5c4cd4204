package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func TestSolveIdentity(t *testing.T) {
	a := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		a.Set(i, i, 1)
	}
	x, err := Solve(a, []float64{3, -1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -1, 2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular matrix accepted")
	}
}

func TestSolveDimensionErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("non-square accepted")
	}
	b := NewMatrix(2, 2)
	if _, err := Solve(b, []float64{1}); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
}

// Property: for random well-conditioned systems, A·Solve(A,b) ≈ b and the
// inputs are untouched.
func TestSolveRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		aCopy := a.Clone()
		bCopy := append([]float64(nil), b...)
		x, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			ax := 0.0
			for j, v := range x {
				ax += a.At(i, j) * v
			}
			if math.Abs(ax-b[i]) > 1e-8 {
				t.Fatalf("residual %g at %d", ax-b[i], i)
			}
			if a.At(i, 0) != aCopy.At(i, 0) || b[i] != bCopy[i] {
				t.Fatal("Solve mutated its inputs")
			}
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	y := []float64{1, 1, 1}
	AXPY(2, a, y)
	if y[2] != 7 {
		t.Fatalf("AXPY = %v", y)
	}
}
