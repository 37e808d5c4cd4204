package data

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// FuzzLoadTSV feeds arbitrary bytes to the TSV loader: it must never panic,
// and accepted inputs must produce a relation that validates against its
// database and reloads deterministically.
func FuzzLoadTSV(f *testing.F) {
	f.Add([]byte("id\tcat\tval\n1\t2\t3.5\n2\tred\t-1\n"))
	f.Add([]byte("id\tcat\tval\n"))
	f.Add([]byte(""))
	f.Add([]byte("id\tcat\tval\n1\t2\n"))
	f.Add([]byte("id\tcat\tval\nx\t2\t3\n"))
	f.Add([]byte("id\tcat\tval\n9\t2\t3.5\n\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		specs := []ColumnSpec{
			{Name: "id", Kind: Key},
			{Name: "cat", Kind: Categorical},
			{Name: "val", Kind: Numeric},
		}
		db := NewDatabase()
		rel, err := LoadTSV(db, "fuzz", bytes.NewReader(raw), specs)
		if err != nil {
			return
		}
		if got := db.Relation("fuzz"); got != rel {
			t.Fatal("loaded relation not registered")
		}
		if len(rel.Attrs) != len(specs) || len(rel.Cols) != len(specs) {
			t.Fatalf("loaded %d attrs / %d cols, want %d", len(rel.Attrs), len(rel.Cols), len(specs))
		}
		for i, c := range rel.Cols {
			if c.Len() != rel.Len() {
				t.Fatalf("column %d has %d rows, relation has %d", i, c.Len(), rel.Len())
			}
		}
		// Reload into a fresh database: same shape, same values.
		db2 := NewDatabase()
		rel2, err := LoadTSV(db2, "fuzz", bytes.NewReader(raw), specs)
		if err != nil {
			t.Fatalf("reload of accepted input failed: %v", err)
		}
		if rel2.Len() != rel.Len() {
			t.Fatalf("reload changed row count %d to %d", rel.Len(), rel2.Len())
		}
		for i := range rel.Cols {
			a, b := rel.Cols[i], rel2.Cols[i]
			for r := 0; r < rel.Len(); r++ {
				if a.Float(r) != b.Float(r) && !(a.Float(r) != a.Float(r) && b.Float(r) != b.Float(r)) {
					t.Fatalf("reload changed row %d col %d: %v vs %v", r, i, a.Float(r), b.Float(r))
				}
			}
		}
	})
}

// FuzzTSVDict fuzzes the categorical dictionary path of the TSV loader: a
// one-column Categorical load where every non-integer value is dictionary-
// encoded. For accepted inputs the dictionary must round-trip every value
// (Code/Lookup/Value inverses, dense codes in first-seen order), integers
// must pass through verbatim, and a reload must assign identical codes.
func FuzzTSVDict(f *testing.F) {
	f.Add([]byte("red\ngreen\nred\nblue"))
	f.Add([]byte("7\n007\n-3\nseven\n7"))
	f.Add([]byte("a\n\nb\r\nc\r"))
	f.Add([]byte("só\n☃\n\x00weird\n "))
	f.Add([]byte(""))
	f.Add([]byte("has\ttab"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		specs := []ColumnSpec{{Name: "c", Kind: Categorical}}
		db := NewDatabase()
		rel, err := LoadTSV(db, "t", strings.NewReader("c\n"+string(raw)), specs)
		if err != nil {
			return
		}
		attr, ok := db.AttrByName("c")
		if !ok {
			t.Fatal("attribute not registered")
		}
		dict := db.Dict(attr)
		if dict == nil {
			t.Fatal("categorical attribute has no dictionary")
		}

		// Mirror the loader's line handling: newline-separated, trailing
		// \r stripped, blank lines skipped. Lines containing tabs split
		// into 2 fields and were rejected, so err == nil rules them out.
		var fields []string
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSuffix(line, "\r")
			if line == "" {
				continue
			}
			fields = append(fields, line)
		}
		if rel.Len() != len(fields) {
			t.Fatalf("loaded %d rows, want %d", rel.Len(), len(fields))
		}

		col := rel.Cols[0]
		distinct := make(map[string]bool)
		for i, v := range fields {
			code := col.Ints[i]
			if iv, perr := strconv.ParseInt(v, 10, 64); perr == nil {
				// Integer passthrough: never dictionary-encoded.
				if code != iv {
					t.Fatalf("row %d: integer %q stored as %d", i, v, code)
				}
				continue
			}
			distinct[v] = true
			got, ok := dict.Lookup(v)
			if !ok {
				t.Fatalf("row %d: value %q missing from dictionary", i, v)
			}
			if got != code {
				t.Fatalf("row %d: column code %d, dictionary code %d for %q", i, code, got, v)
			}
			if back := dict.Value(code); back != v {
				t.Fatalf("row %d: code %d decodes to %q, want %q", i, code, back, v)
			}
		}
		if dict.Len() != len(distinct) {
			t.Fatalf("dictionary has %d entries, want %d distinct non-integer values", dict.Len(), len(distinct))
		}
		// Codes are dense and invertible.
		for c := int64(0); c < int64(dict.Len()); c++ {
			v := dict.Value(c)
			rc, ok := dict.Lookup(v)
			if !ok || rc != c {
				t.Fatalf("code %d (%q) not invertible: lookup %d %v", c, v, rc, ok)
			}
		}
		// First-seen order is deterministic: a reload assigns identical
		// codes row for row.
		db2 := NewDatabase()
		rel2, err := LoadTSV(db2, "t", strings.NewReader("c\n"+string(raw)), specs)
		if err != nil {
			t.Fatalf("reload of accepted input failed: %v", err)
		}
		for i := 0; i < rel.Len(); i++ {
			if rel2.Cols[0].Ints[i] != col.Ints[i] {
				t.Fatalf("reload changed row %d code: %d vs %d", i, rel2.Cols[0].Ints[i], col.Ints[i])
			}
		}
	})
}

// FuzzSplitRelation checks that splitting by an arbitrary predicate-driven
// tape always partitions the rows: no panic, train+test = whole, schema
// preserved.
func FuzzSplitRelation(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, byte(2))
	f.Add([]byte{}, byte(1))
	f.Add([]byte{0, 0, 0}, byte(0))
	f.Fuzz(func(t *testing.T, vals []byte, mod byte) {
		db := NewDatabase()
		k := db.Attr("k", Key)
		m := db.Attr("m", Numeric)
		ints := make([]int64, len(vals))
		floats := make([]float64, len(vals))
		for i, v := range vals {
			ints[i] = int64(v)
			floats[i] = float64(v) / 2
		}
		rel := NewRelation("r", []AttrID{k, m},
			[]Column{NewIntColumn(ints), NewFloatColumn(floats)})
		if err := db.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
		div := int64(mod)%5 + 1
		train, test, err := SplitRelation(rel, k, func(v int64) bool { return v%div == 0 })
		if err != nil {
			t.Fatal(err)
		}
		if train.Len()+test.Len() != rel.Len() {
			t.Fatalf("split lost rows: %d + %d != %d", train.Len(), test.Len(), rel.Len())
		}
		if len(train.Attrs) != len(rel.Attrs) || len(test.Attrs) != len(rel.Attrs) {
			t.Fatal("split changed schema")
		}
		for _, half := range []*Relation{train, test} {
			kc, _ := half.Col(k)
			held := half == test
			for i := 0; i < half.Len(); i++ {
				if (kc.Ints[i]%div == 0) != held {
					t.Fatalf("row %d landed in the wrong half", i)
				}
			}
		}
		// Splitting the database must keep the other relation count intact
		// and hand back the held-out rows.
		trainDB, heldOut, err := SplitDatabase(db, "r", k, func(v int64) bool { return v%div == 0 })
		if err != nil {
			t.Fatal(err)
		}
		if got := trainDB.Relation("r").Len() + heldOut.Len(); got != rel.Len() {
			t.Fatalf("database split lost rows: %d != %d", got, rel.Len())
		}
	})
}

// FuzzRelationDelta drives a relation with arbitrary delta tapes: append and
// delete batches must keep the relation consistent (length bookkeeping,
// version monotonicity) and failed deletes must leave it untouched.
func FuzzRelationDelta(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{1, 9})
	f.Add([]byte{}, []byte{4})
	f.Add([]byte{7, 7, 7}, []byte{7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, ins []byte, del []byte) {
		db := NewDatabase()
		k := db.Attr("k", Key)
		m := db.Attr("m", Numeric)
		rel := NewRelation("r", []AttrID{k, m},
			[]Column{NewIntColumn([]int64{1, 2, 3}), NewFloatColumn([]float64{0.5, 1, 1.5})})
		if err := db.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
		insInts := make([]int64, len(ins))
		insFloats := make([]float64, len(ins))
		for i, v := range ins {
			insInts[i] = int64(v % 8)
			insFloats[i] = float64(v%4) / 2
		}
		before := rel.Len()
		v0 := rel.Version()
		if err := rel.Append([]Column{NewIntColumn(insInts), NewFloatColumn(insFloats)}); err != nil {
			t.Fatal(err)
		}
		if rel.Len() != before+len(ins) {
			t.Fatalf("append: len %d, want %d", rel.Len(), before+len(ins))
		}
		if len(ins) > 0 && rel.Version() <= v0 {
			t.Fatal("append did not bump version")
		}

		delInts := make([]int64, len(del))
		delFloats := make([]float64, len(del))
		for i, v := range del {
			delInts[i] = int64(v % 8)
			delFloats[i] = float64(v%4) / 2
		}
		before = rel.Len()
		err := rel.DeleteRows([]Column{NewIntColumn(delInts), NewFloatColumn(delFloats)})
		if err != nil {
			if rel.Len() != before {
				t.Fatalf("failed delete mutated the relation: %d -> %d", before, rel.Len())
			}
			return
		}
		if rel.Len() != before-len(del) {
			t.Fatalf("delete: len %d, want %d", rel.Len(), before-len(del))
		}
		for _, c := range rel.Cols {
			if c.Len() != rel.Len() {
				t.Fatal("delete left ragged columns")
			}
		}
	})
}
