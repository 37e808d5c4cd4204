package datagen

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/query"
)

var tinyCfg = Config{Scale: 0.0002, Seed: 7}

func allTiny(t *testing.T) []*Dataset {
	t.Helper()
	var out []*Dataset
	for _, name := range All() {
		build, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := build(tinyCfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, ds)
	}
	return out
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRejectsBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		for _, name := range All() {
			build, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			_, err = build(Config{Scale: scale, Seed: 7})
			if err == nil {
				t.Errorf("%s accepted scale %v", name, scale)
			} else if want := fmt.Sprint(scale); !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name scale %s", name, err, want)
			}
		}
	}
}

func TestAllNames(t *testing.T) {
	names := All()
	if len(names) != 4 {
		t.Fatalf("All() = %v", names)
	}
}

func TestDatasetsWellFormed(t *testing.T) {
	for _, ds := range allTiny(t) {
		t.Run(ds.Name, func(t *testing.T) {
			if ds.DB == nil || ds.Tree == nil {
				t.Fatal("missing DB or Tree")
			}
			if err := ds.Tree.VerifyRunningIntersection(); err != nil {
				t.Fatalf("join tree invalid: %v", err)
			}
			if len(ds.Continuous) == 0 {
				t.Fatal("no continuous features")
			}
			if len(ds.Categorical) == 0 {
				t.Fatal("no categorical features")
			}
			if len(ds.MIAttrs) < 5 {
				t.Fatalf("MI attrs = %d", len(ds.MIAttrs))
			}
			if len(ds.CubeDims) != 3 || len(ds.CubeMeasures) != 5 {
				t.Fatalf("cube config %d dims %d measures",
					len(ds.CubeDims), len(ds.CubeMeasures))
			}
			// Feature attrs must exist in some relation with the right kind.
			for _, a := range ds.Continuous {
				if ds.DB.Attribute(a).Kind != data.Numeric {
					t.Errorf("continuous attr %q is %v",
						ds.DB.Attribute(a).Name, ds.DB.Attribute(a).Kind)
				}
			}
			for _, a := range ds.Categorical {
				if !ds.DB.Attribute(a).Kind.Discrete() {
					t.Errorf("categorical attr %q is numeric", ds.DB.Attribute(a).Name)
				}
			}
			for _, a := range ds.MIAttrs {
				if !ds.DB.Attribute(a).Kind.Discrete() {
					t.Errorf("MI attr %q is numeric", ds.DB.Attribute(a).Name)
				}
			}
		})
	}
}

func TestDatasetsDeterministic(t *testing.T) {
	a, err := Favorita(tinyCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Favorita(tinyCfg)
	if err != nil {
		t.Fatal(err)
	}
	ra := a.DB.Relation("Sales")
	rb := b.DB.Relation("Sales")
	if ra.Len() != rb.Len() {
		t.Fatalf("non-deterministic sizes: %d vs %d", ra.Len(), rb.Len())
	}
	for c := range ra.Cols {
		for i := 0; i < ra.Len(); i++ {
			if ra.Cols[c].Float(i) != rb.Cols[c].Float(i) {
				t.Fatalf("non-deterministic value at col %d row %d", c, i)
			}
		}
	}
}

func TestForeignKeyIntegrity(t *testing.T) {
	ds, err := Retailer(tinyCfg)
	if err != nil {
		t.Fatal(err)
	}
	inv := ds.DB.Relation("Inventory")
	items := ds.DB.Relation("Items")
	ksn, _ := ds.DB.AttrByName("ksn")
	domain := map[int64]bool{}
	for _, v := range items.MustCol(ksn).Ints {
		domain[v] = true
	}
	for _, v := range inv.MustCol(ksn).Ints {
		if !domain[v] {
			t.Fatalf("dangling ksn %d", v)
		}
	}
}

func TestScaleGrowsFacts(t *testing.T) {
	small, err := Favorita(Config{Scale: 0.0002, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Favorita(Config{Scale: 0.001, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if big.DB.Relation("Sales").Len() <= small.DB.Relation("Sales").Len() {
		t.Fatal("scale did not grow the fact table")
	}
}

// The generated datasets must be consumable by the query layer: a count
// query over each validates schema wiring end to end.
func TestDatasetsValidateQueries(t *testing.T) {
	for _, ds := range allTiny(t) {
		q := query.NewQuery("count", nil, query.CountAgg())
		if err := q.Validate(ds.DB); err != nil {
			t.Errorf("%s: %v", ds.Name, err)
		}
		ql := query.NewQuery("label", nil, query.SumAgg(ds.Label))
		if ds.DB.Attribute(ds.Label).Kind == data.Numeric {
			if err := ql.Validate(ds.DB); err != nil {
				t.Errorf("%s label: %v", ds.Name, err)
			}
		}
	}
}

func TestYelpManyToManyBlowup(t *testing.T) {
	// Yelp's Category/Attribute many-to-many joins must blow up the join
	// result relative to the database (Table 1: 360M join vs 8.7M input).
	ds, err := Yelp(tinyCfg)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := ds.Tree.MaterializeAll("flat")
	if err != nil {
		t.Fatal(err)
	}
	if flat.Len() <= ds.DB.TotalTuples() {
		t.Fatalf("join result %d not larger than database %d",
			flat.Len(), ds.DB.TotalTuples())
	}
}
