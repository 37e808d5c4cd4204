package moo

import (
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/query"
)

// codecViews runs a grouped batch and returns every materialized view: the
// mix includes internal views (consumer key plus carried extras) and
// application outputs (keyed by their whole group-by).
func codecViews(t testing.TB) []*ViewData {
	t.Helper()
	db, keys, nums := chainDB(t, 60, 11, 4)
	queries := []*query.Query{
		query.NewQuery("span", []data.AttrID{keys[1], keys[4]},
			query.CountAgg(), query.SumAgg(nums[1])),
		query.NewQuery("local", []data.AttrID{keys[2]}, query.SumAgg(nums[0])),
		query.NewQuery("scalar", nil, query.CountAgg()),
	}
	eng, err := NewEngine(db, Options{Compiled: true, MultiOutput: true, MultiRoot: true, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Materialized) == 0 {
		t.Fatal("no materialized views")
	}
	return res.Materialized
}

func viewLabel(i int) string { return "view#" + string(rune('0'+i)) }

// posEqual treats nil and empty position lists as the same layout.
func posEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameView(t *testing.T, label string, got, want *ViewData) {
	t.Helper()
	if got.rows != want.rows || got.Stride != want.Stride {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.rows, got.Stride, want.rows, want.Stride)
	}
	if len(got.GroupBy) != len(want.GroupBy) {
		t.Fatalf("%s: GroupBy %v, want %v", label, got.GroupBy, want.GroupBy)
	}
	for i := range want.GroupBy {
		if got.GroupBy[i] != want.GroupBy[i] {
			t.Fatalf("%s: GroupBy %v, want %v", label, got.GroupBy, want.GroupBy)
		}
	}
	if !posEqual(got.order, want.order) || got.nskey != want.nskey {
		t.Fatalf("%s: layout (%v,%d), want (%v,%d)", label, got.order, got.nskey, want.order, want.nskey)
	}
	if len(got.Keys) != len(want.Keys) {
		t.Fatalf("%s: %d key columns, want %d", label, len(got.Keys), len(want.Keys))
	}
	for c := range want.Keys {
		if !reflect.DeepEqual(got.Keys[c][:got.rows], want.Keys[c][:want.rows]) {
			t.Fatalf("%s: key column %d differs", label, c)
		}
	}
	for i := 0; i < want.rows*want.Stride; i++ {
		if got.Vals[i] != want.Vals[i] {
			t.Fatalf("%s: value %d differs: %g vs %g", label, i, got.Vals[i], want.Vals[i])
		}
	}
}

func TestViewCodecRoundTrip(t *testing.T) {
	for i, v := range codecViews(t) {
		buf := v.AppendBinary(nil)
		got, n, err := DecodeViewData(buf)
		if err != nil {
			t.Fatalf("view %d: decode: %v", i, err)
		}
		if n != len(buf) {
			t.Fatalf("view %d: consumed %d of %d bytes", i, n, len(buf))
		}
		sameView(t, viewLabel(i), got, v)
		// Lookup must work on the decoded copy (a binary search in its
		// decoded sort order).
		for r := 0; r < v.NumRows(); r++ {
			if got.Lookup(v.Key(r)...) != r {
				t.Fatalf("view %d (%s): decoded copy cannot find row %d", i, viewLabel(i), r)
			}
		}
	}
}

func TestViewCodecAppendsInPlace(t *testing.T) {
	views := codecViews(t)
	// Concatenated frames decode back one at a time.
	var buf []byte
	for _, v := range views {
		buf = v.AppendBinary(buf)
	}
	rest := buf
	for i, v := range views {
		got, n, err := DecodeViewData(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		sameView(t, viewLabel(i), got, v)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestViewCodecRejectsCorrupt(t *testing.T) {
	v := codecViews(t)[0]
	buf := v.AppendBinary(nil)
	if _, _, err := DecodeViewData(nil); err == nil {
		t.Fatal("decoded empty input")
	}
	for cut := 1; cut < len(buf); cut += 1 + len(buf)/23 {
		if _, _, err := DecodeViewData(buf[:cut]); err == nil {
			t.Fatalf("decoded %d-byte prefix", cut)
		}
	}
	// Absurd row counts must be rejected by the byte-bound check rather than
	// attempting the allocation.
	huge := append([]byte(nil), buf...)
	for i := 0; i < len(huge) && i < 12; i++ {
		huge[i] = 0xff
	}
	if _, _, err := DecodeViewData(huge); err == nil {
		t.Fatal("decoded frame with corrupted header")
	}
}

// rawView builds a view from explicit columns and sort layout, unchecked,
// so a test can hand the codec any row order.
//
// lmfao:pre-publish
func rawView(order []int, nskey int, keys ...[]int64) *ViewData {
	v := &ViewData{Keys: keys, Stride: 1, order: order, nskey: nskey}
	for c := range keys {
		v.GroupBy = append(v.GroupBy, data.AttrID(c+1))
	}
	v.rows = len(keys[0])
	v.Vals = make([]float64, v.rows)
	return v
}

// TestViewCodecRejectsUnsorted: binary-search reads over a view whose rows
// are out of order, or repeat a key, would silently miss rows, so decode
// refuses both — and a layout that is not a permutation of the group-by.
func TestViewCodecRejectsUnsorted(t *testing.T) {
	// Consumer key is group-by position 1, the carried extra position 0:
	// rows sort by column 1, then column 0.
	sorted := rawView([]int{1, 0}, 1, []int64{5, 7, 3}, []int64{1, 1, 2})
	got, _, err := DecodeViewData(sorted.AppendBinary(nil))
	if err != nil {
		t.Fatalf("sorted view rejected: %v", err)
	}
	if r := got.Lookup(7, 1); r != 1 {
		t.Fatalf("Lookup(7, 1) = %d, want 1", r)
	}
	for name, v := range map[string]*ViewData{
		"extras out of order":       rawView([]int{1, 0}, 1, []int64{7, 5, 3}, []int64{1, 1, 2}),
		"consumer key out of order": rawView([]int{1, 0}, 1, []int64{3, 5, 7}, []int64{2, 1, 1}),
		"duplicate key":             rawView([]int{1, 0}, 1, []int64{5, 5, 3}, []int64{1, 1, 2}),
		"sorted by the wrong order": rawView([]int{0, 1}, 2, []int64{5, 7, 3}, []int64{1, 1, 2}),
		"repeated layout position":  rawView([]int{1, 1}, 1, []int64{5, 7, 3}, []int64{1, 1, 2}),
	} {
		if _, _, err := DecodeViewData(v.AppendBinary(nil)); !errors.Is(err, ErrViewCorrupt) {
			t.Errorf("%s: decode err = %v, want ErrViewCorrupt", name, err)
		}
	}
}

// legacyOutput encodes an application output the way checkpoints did before
// every view was sorted: layout byte 0, no position lists, rows in the
// order given.
func legacyOutput(keys [][]int64, vals []float64) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(keys)))
	for c := range keys {
		buf = binary.AppendUvarint(buf, uint64(c+1))
	}
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	buf = binary.AppendUvarint(buf, 1)
	for _, col := range keys {
		for _, k := range col {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
		}
	}
	for _, x := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// TestViewCodecSortsLegacyOutputs: an unsorted application output from an
// older checkpoint decodes sorted by its whole group-by, each row keeping
// its values; a repeated key or an unknown layout byte is still corrupt.
func TestViewCodecSortsLegacyOutputs(t *testing.T) {
	buf := legacyOutput([][]int64{{3, 1, 2, 1}, {0, 9, 5, -4}}, []float64{30, 19, 25, 14})
	v, n, err := DecodeViewData(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	want := rawView([]int{0, 1}, 2, []int64{1, 1, 2, 3}, []int64{-4, 9, 5, 0})
	copy(want.Vals, []float64{14, 19, 25, 30})
	sameView(t, "legacy", v, want)
	if r := v.Lookup(2, 5); r != 2 {
		t.Fatalf("Lookup(2, 5) = %d, want 2", r)
	}

	dup := legacyOutput([][]int64{{1, 2, 1}}, []float64{1, 2, 3})
	if _, _, err := DecodeViewData(dup); !errors.Is(err, ErrViewCorrupt) {
		t.Fatalf("duplicate key: decode err = %v, want ErrViewCorrupt", err)
	}
	bad := append([]byte(nil), buf...)
	bad[3] = 2 // layout byte: after ncols and two attribute ids
	if _, _, err := DecodeViewData(bad); !errors.Is(err, ErrViewCorrupt) {
		t.Fatalf("layout byte 2: decode err = %v, want ErrViewCorrupt", err)
	}
}
