package moo

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/data"
)

func buildView(t *testing.T, groupBy []data.AttrID, stride int, rows map[[2]int64][]float64) *ViewData {
	t.Helper()
	b := newViewBuilder(groupBy, stride, false, nil)
	for key, vals := range rows {
		r := b.row(key[:len(groupBy)])
		for c, v := range vals {
			b.add(r, c, v)
		}
	}
	return b.finalize(nil)
}

func TestCombineViewsUnionAndSum(t *testing.T) {
	gb := []data.AttrID{0, 1}
	a := buildView(t, gb, 2, map[[2]int64][]float64{
		{1, 1}: {10, 1},
		{2, 1}: {5, 2},
	})
	b := buildView(t, gb, 2, map[[2]int64][]float64{
		{2, 1}: {7, 3}, // shared group: adds
		{3, 9}: {1, 1}, // only in b: unions in
	})
	merged, err := CombineViews([]*ViewData{a, nil, b})
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumRows() != 3 {
		t.Fatalf("merged has %d rows, want 3", merged.NumRows())
	}
	want := map[[2]int64][]float64{
		{1, 1}: {10, 1},
		{2, 1}: {12, 5},
		{3, 9}: {1, 1},
	}
	for i := 0; i < merged.NumRows(); i++ {
		key := [2]int64{merged.KeyAt(i, 0), merged.KeyAt(i, 1)}
		w, ok := want[key]
		if !ok {
			t.Fatalf("unexpected merged group %v", key)
		}
		for c := range w {
			if got := merged.Val(i, c); got != w[c] {
				t.Fatalf("group %v col %d: got %v want %v", key, c, got, w[c])
			}
		}
		delete(want, key)
	}
	if len(want) != 0 {
		t.Fatalf("groups missing from merge: %v", want)
	}
	// Inputs untouched.
	if a.NumRows() != 2 || b.NumRows() != 2 {
		t.Fatal("CombineViews mutated an input")
	}
}

// TestCombineViewsRandomParts merges random sorted parts and checks the
// result against a map sum in part order: same groups, bit-identical sums,
// rows strictly increasing.
func TestCombineViewsRandomParts(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	gb := []data.AttrID{0, 1}
	for trial := 0; trial < 100; trial++ {
		parts := make([]*ViewData, 1+rng.IntN(4))
		want := map[[2]int64][]float64{}
		for i := range parts {
			rows := map[[2]int64][]float64{}
			for n := rng.IntN(30); n > 0; n-- {
				rows[[2]int64{rng.Int64N(5) - 2, rng.Int64N(5)}] = []float64{rng.Float64(), rng.NormFloat64()}
			}
			parts[i] = buildView(t, gb, 2, rows)
			for r := 0; r < parts[i].NumRows(); r++ {
				key := [2]int64{parts[i].KeyAt(r, 0), parts[i].KeyAt(r, 1)}
				if want[key] == nil {
					want[key] = make([]float64, 2)
				}
				for c := range want[key] {
					want[key][c] += parts[i].Val(r, c)
				}
			}
		}
		merged, err := CombineViews(parts)
		if err != nil {
			t.Fatal(err)
		}
		if merged.NumRows() != len(want) {
			t.Fatalf("trial %d: %d rows, want %d", trial, merged.NumRows(), len(want))
		}
		for r := 0; r < merged.NumRows(); r++ {
			if r > 0 && cmpRows(merged, r-1, merged, r) >= 0 {
				t.Fatalf("trial %d: rows %d and %d out of order", trial, r-1, r)
			}
			key := [2]int64{merged.KeyAt(r, 0), merged.KeyAt(r, 1)}
			for c, w := range want[key] {
				if got := merged.Val(r, c); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("trial %d: group %v col %d: got %v want %v", trial, key, c, got, w)
				}
			}
		}
	}
}

func TestCombineViewsScalar(t *testing.T) {
	a := buildView(t, nil, 1, map[[2]int64][]float64{{}: {4}})
	b := buildView(t, nil, 1, map[[2]int64][]float64{{}: {-1.5}})
	merged, err := CombineViews([]*ViewData{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumRows() != 1 || merged.Val(0, 0) != 2.5 {
		t.Fatalf("scalar merge = %d rows, val %v", merged.NumRows(), merged.Val(0, 0))
	}
}

func TestCombineViewsErrors(t *testing.T) {
	if _, err := CombineViews(nil); err == nil {
		t.Fatal("no views must error")
	}
	if _, err := CombineViews([]*ViewData{nil, nil}); err == nil {
		t.Fatal("all-nil views must error")
	}
	a := buildView(t, []data.AttrID{0}, 1, map[[2]int64][]float64{{1}: {1}})
	b := buildView(t, []data.AttrID{1}, 1, map[[2]int64][]float64{{1}: {1}})
	if _, err := CombineViews([]*ViewData{a, b}); err == nil {
		t.Fatal("group-by mismatch must error")
	}
	c := buildView(t, []data.AttrID{0}, 2, map[[2]int64][]float64{{1}: {1, 2}})
	if _, err := CombineViews([]*ViewData{a, c}); err == nil {
		t.Fatal("stride mismatch must error")
	}
	gb := []data.AttrID{0, 1}
	out := buildView(t, gb, 1, map[[2]int64][]float64{{1, 2}: {1}})
	inner := newViewBuilder(gb, 1, false, nil).finalize([]data.AttrID{1})
	if _, err := CombineViews([]*ViewData{out, inner}); err == nil {
		t.Fatal("sort layout mismatch must error")
	}
}
