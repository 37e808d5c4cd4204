package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/ivm"
	"repro/internal/moo"
	"repro/internal/query"
)

// encodeCheckpointV1 mirrors the LMFAOCK1 encoder, the layout before sort
// orders were recorded: magic, u32le payload length, u32le CRC-32C, and a
// payload with no orders.
func encodeCheckpointV1(ck *Checkpoint) []byte {
	var p []byte
	p = binary.AppendUvarint(p, ck.LSN)
	names := make([]string, 0, len(ck.Versions))
	for name := range ck.Versions {
		names = append(names, name)
	}
	sort.Strings(names)
	p = binary.AppendUvarint(p, uint64(len(names)))
	for _, name := range names {
		p = appendString(p, name)
		p = binary.AppendUvarint(p, uint64(ck.Versions[name]))
	}
	p = binary.AppendUvarint(p, uint64(len(ck.Relations)))
	for _, rs := range ck.Relations {
		p = appendString(p, rs.Name)
		p = binary.AppendUvarint(p, uint64(rs.Version))
		p = appendBlock(p, rs.Cols)
	}
	p = binary.AppendUvarint(p, uint64(len(ck.Views)))
	for _, v := range ck.Views {
		if v == nil {
			p = append(p, 0)
			continue
		}
		p = v.AppendBinary(append(p, 1))
	}
	b := []byte(ckptMagicV1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(p, castagnoli))
	return append(b, p...)
}

// testViews returns the materialized views of a small engine run: a
// group-by output and its scalar companion.
func testViews(t testing.TB) []*moo.ViewData {
	t.Helper()
	db := data.NewDatabase()
	a := db.Attr("a", data.Key)
	x := db.Attr("x", data.Numeric)
	rel := data.NewRelation("r", []data.AttrID{a, x}, []data.Column{
		data.NewIntColumn([]int64{3, 1, 3, 2}),
		data.NewFloatColumn([]float64{0.5, 1.25, -2, 4}),
	})
	if err := db.AddRelation(rel); err != nil {
		t.Fatal(err)
	}
	eng, err := moo.NewEngine(db, moo.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run([]*query.Query{
		query.NewQuery("by a", []data.AttrID{a}, query.CountAgg(), query.SumAgg(x)),
		query.NewQuery("all", nil, query.SumAgg(x)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Materialized
}

// testCheckpoints returns checkpoints covering the payload's shapes: empty,
// relations with and without a sort order, an empty relation, and views.
func testCheckpoints(t testing.TB) []*Checkpoint {
	return []*Checkpoint{
		{},
		{LSN: 1 << 40, Versions: ivm.VersionVector{"r": 3}},
		{
			LSN:      7,
			Versions: ivm.VersionVector{"sales": 7, "stores": 2},
			Relations: []RelationState{
				{Name: "sales", Version: 7, Order: []data.AttrID{2, 0}, Cols: []data.Column{
					data.NewIntColumn([]int64{1, 2, 3}),
					data.NewFloatColumn([]float64{0.5, math.Inf(-1), 2.5}),
					data.NewIntColumn([]int64{-4, -4, 9}),
				}},
				{Name: "stores", Version: 2, Cols: []data.Column{data.NewIntColumn([]int64{5})}},
				{Name: "empty", Version: 0, Order: []data.AttrID{math.MaxInt32}, Cols: []data.Column{
					data.NewIntColumn([]int64{}),
				}},
			},
			Views: append([]*moo.ViewData{nil}, testViews(t)...),
		},
	}
}

// checkpointsEqual compares two checkpoints field by field: floats by their
// bits, views by their encodings.
func checkpointsEqual(a, b *Checkpoint) bool {
	if a.LSN != b.LSN || len(a.Versions) != len(b.Versions) || !a.Versions.Equal(b.Versions) ||
		len(a.Relations) != len(b.Relations) || len(a.Views) != len(b.Views) {
		return false
	}
	for i, ra := range a.Relations {
		rb := b.Relations[i]
		if ra.Name != rb.Name || ra.Version != rb.Version || !slices.Equal(ra.Order, rb.Order) ||
			!bytes.Equal(appendBlock(nil, ra.Cols), appendBlock(nil, rb.Cols)) {
			return false
		}
	}
	for i, va := range a.Views {
		vb := b.Views[i]
		if (va == nil) != (vb == nil) || va != nil && !bytes.Equal(va.AppendBinary(nil), vb.AppendBinary(nil)) {
			return false
		}
	}
	return true
}

func TestCheckpointRoundTripKeepsOrders(t *testing.T) {
	for i, ck := range testCheckpoints(t) {
		got, err := decodeCheckpointFile(encodeCheckpointFile(ck))
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		if !checkpointsEqual(got, ck) {
			t.Fatalf("checkpoint %d: round trip mismatch\ngot  %+v\nwant %+v", i, got, ck)
		}
	}
}

// TestCheckpointV1StillDecodes: a checkpoint in the LMFAOCK1 layout decodes
// to the same state, with no orders.
func TestCheckpointV1StillDecodes(t *testing.T) {
	for i, ck := range testCheckpoints(t) {
		got, err := decodeCheckpointFile(encodeCheckpointV1(ck))
		if err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		want := *ck
		want.Relations = slices.Clone(ck.Relations)
		for j := range want.Relations {
			want.Relations[j].Order = nil
		}
		if !checkpointsEqual(got, &want) {
			t.Fatalf("checkpoint %d: LMFAOCK1 decode mismatch\ngot  %+v\nwant %+v", i, got, &want)
		}
	}
}

// TestCheckpointLengthIsU64: the header stores the payload length in 64
// bits, so a length past 4 GiB cannot wrap onto a short payload.
func TestCheckpointLengthIsU64(t *testing.T) {
	b := encodeCheckpointFile(testCheckpoints(t)[2])
	if n := binary.LittleEndian.Uint64(b[len(ckptMagic):]); n != uint64(len(b)-ckptHeader) {
		t.Fatalf("header length %d, payload %d bytes", n, len(b)-ckptHeader)
	}
	wrapped := slices.Clone(b)
	binary.LittleEndian.PutUint64(wrapped[len(ckptMagic):], uint64(len(b)-ckptHeader)+1<<32)
	if _, err := decodeCheckpointFile(wrapped); !errors.Is(err, ErrTruncated) {
		t.Fatalf("length 4 GiB past the payload: err %v, want ErrTruncated", err)
	}
	for cut := 0; cut < ckptHeader; cut++ {
		if _, err := decodeCheckpointFile(b[:cut]); err == nil {
			t.Fatalf("header cut at %d decoded", cut)
		}
	}
}

// TestBlockFitsBound checks the bound that replaced the record cap of 2^25
// rows on a block, without allocating a block of that size: a relation
// block fits exactly when its bytes are present.
func TestBlockFitsBound(t *testing.T) {
	size := func(ncols, nrows uint64) uint64 { return ncols * (1 + 8*nrows) }
	cases := []struct {
		ncols, nrows, avail uint64
		fits                bool
	}{
		{1, 0, 1, true},
		{1, 0, 0, false},
		{3, 2, size(3, 2), true},
		{3, 2, size(3, 2) - 1, false},
		// Past the old cap of MaxRecordBytes/8 rows.
		{1, MaxRecordBytes/8 + 1, size(1, MaxRecordBytes/8+1), true},
		// The paper's retailer Inventory: 84 M rows of five columns.
		{5, 84_055_817, size(5, 84_055_817), true},
		{5, 84_055_817, size(5, 84_055_817) - 1, false},
		// Row counts whose byte size overflows 64 bits never fit.
		{2, math.MaxUint64, math.MaxUint64, false},
		{maxBlockCols, 1 << 61, math.MaxUint64, false},
		{0, math.MaxUint64, 0, true},
	}
	for _, c := range cases {
		if got := blockFits(c.ncols, c.nrows, c.avail); got != c.fits {
			t.Errorf("blockFits(%d cols, %d rows, %d bytes) = %v, want %v", c.ncols, c.nrows, c.avail, got, c.fits)
		}
	}
	// The decoder applies it: a block claiming one row more than its bytes
	// hold is corrupt, not an allocation.
	blk := appendBlock(nil, []data.Column{data.NewIntColumn([]int64{1, 2})})
	bad := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 3)
	bad = append(bad, blk[2:]...)
	if _, _, err := decodeBlock(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short block: err %v, want ErrCorrupt", err)
	}
	if cols, rest, err := decodeBlock(blk); err != nil || len(rest) != 0 || cols[0].Len() != 2 {
		t.Fatalf("block: %v %v %v", cols, rest, err)
	}
}
