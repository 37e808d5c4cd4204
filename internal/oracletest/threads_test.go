package oracletest

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/moo"
	"repro/internal/workloads"
)

// TestThreadsBitIdentical runs every dataset's workload batches at scale
// 0.002 with DefaultOptions and Threads 1 to 4. Every scan is cut into the
// same morsels, whose partial views fold in morsel order whatever Threads
// is, so every output and internal view must carry the same bits. Scans of
// any size are cut, so -short runs at a tenth of the scale.
func TestThreadsBitIdentical(t *testing.T) {
	scale := 0.002
	if testing.Short() {
		scale = 0.0002
	}
	for _, name := range datagen.All() {
		build, err := datagen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := build(datagen.Config{Scale: scale, Seed: 2019})
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range workloads.Names() {
			batch, err := workloads.ByName(wl, ds)
			if err != nil {
				t.Fatal(err)
			}
			var want *moo.BatchResult
			for threads := 1; threads <= 4; threads++ {
				opts := moo.DefaultOptions()
				opts.Threads = threads
				got, err := moo.NewEngineWithTree(ds.DB, ds.Tree, opts).Run(batch)
				if err != nil {
					t.Fatalf("%s/%s Threads %d: %v", name, wl, threads, err)
				}
				if want == nil {
					want = got
					continue
				}
				for qi, v := range got.Results {
					requireSameBits(t, fmt.Sprintf("%s/%s Threads %d query %s", name, wl, threads, batch[qi].Name), v, want.Results[qi])
				}
				for vid, v := range got.Materialized {
					requireSameBits(t, fmt.Sprintf("%s/%s Threads %d view %d", name, wl, threads, vid), v, want.Materialized[vid])
				}
			}
		}
	}
}

// requireSameBits fails unless got and want hold the same keys in the same
// row order and every value with the same float64 bits.
func requireSameBits(t *testing.T, label string, got, want *moo.ViewData) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.Stride != want.Stride {
		t.Fatalf("%s: %d rows × %d, want %d × %d", label, got.NumRows(), got.Stride, want.NumRows(), want.Stride)
	}
	diffs := 0
	for i := 0; i < want.NumRows(); i++ {
		if !slices.Equal(got.Key(i), want.Key(i)) {
			t.Fatalf("%s: row %d key %v, want %v", label, i, got.Key(i), want.Key(i))
		}
		for c := 0; c < want.Stride; c++ {
			if math.Float64bits(got.Val(i, c)) != math.Float64bits(want.Val(i, c)) {
				diffs++
			}
		}
	}
	if diffs > 0 {
		t.Fatalf("%s: %d values differ in their bits", label, diffs)
	}
}
