package moo

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/data"
	"repro/internal/wire"
)

// Binary codec for ViewData, used by the WAL checkpoint format
// (internal/wal). The encoding captures everything a recovered session
// needs to resume maintenance bit-exactly: group-by schema, the sort layout
// established by finalize (consumer-key and extra positions), and the
// sorted keys and aggregates verbatim (float64 bits, so no value is
// perturbed). Every read of a view is a directory probe, a binary search or
// a merge over its sort order, so decode verifies the order instead of
// trusting it. Neither the key box nor the row directory is encoded: decode
// rebuilds both from the rows, and the directory is never larger than them.
//
// The layout byte is 1. Encodings from before views were all sorted carry 0
// for an application output, with no position lists and the rows in
// insertion order; decode sorts those by the whole group-by, so checkpoints
// written then still recover.

// ErrViewCorrupt is returned by DecodeViewData for structurally invalid
// encodings.
var ErrViewCorrupt = errors.New("moo: corrupt view encoding")

// maxViewDim bounds decoded column counts so a corrupt header cannot drive
// a huge allocation.
const maxViewDim = 1 << 16

// AppendBinary appends a self-delimiting binary encoding of the view to buf
// and returns the extended slice: Encode into a memory Writer.
func (v *ViewData) AppendBinary(buf []byte) []byte {
	w := wire.NewBuffer(buf)
	v.Encode(w)
	return w.Bytes()
}

// Encode writes the view's self-delimiting binary encoding to w.
func (v *ViewData) Encode(w *wire.Writer) {
	w.Uvarint(uint64(len(v.GroupBy)))
	for _, a := range v.GroupBy {
		w.Uvarint(uint64(uint32(a)))
	}
	// Sort layout: format byte 1, consumer-key positions, extra positions.
	w.Byte(1)
	for _, pos := range [][]int{v.order[:v.nskey], v.order[v.nskey:]} {
		w.Uvarint(uint64(len(pos)))
		for _, p := range pos {
			w.Uvarint(uint64(p))
		}
	}
	w.Uvarint(uint64(v.rows))
	w.Uvarint(uint64(v.Stride))
	for _, col := range v.Keys {
		w.Int64s(col[:v.rows])
	}
	w.Float64s(v.Vals[:v.rows*v.Stride])
}

// DecodeViewData decodes one AppendBinary encoding from the front of b,
// returning the view and the number of bytes consumed. A view whose layout
// is not a permutation of its group-by positions, or whose rows are not
// strictly increasing in its sort order (after sorting, for layout 0), is
// rejected with ErrViewCorrupt: binary-search reads would silently miss rows
// of it.
//
// lmfao:pre-publish — recovery-side construction of a view no reader holds
// yet.
func DecodeViewData(b []byte) (*ViewData, int, error) {
	d := viewDecoder{b: b}
	ncols := d.uvarint()
	if ncols > maxViewDim {
		return nil, 0, ErrViewCorrupt
	}
	v := &ViewData{GroupBy: make([]data.AttrID, ncols)}
	for i := range v.GroupBy {
		v.GroupBy[i] = data.AttrID(int32(d.uvarint()))
	}
	layout := d.byte()
	switch layout {
	case 0:
		v.order = make([]int, ncols)
		for p := range v.order {
			v.order[p] = p
		}
		v.nskey = int(ncols)
	case 1:
		v.order = d.posList(int(ncols))
		v.nskey = len(v.order)
		v.order = append(v.order, d.posList(int(ncols))...)
	default:
		d.err = ErrViewCorrupt
	}
	rows := d.uvarint()
	stride := d.uvarint()
	if rows > math.MaxInt32 || stride > maxViewDim || d.err != nil {
		return nil, 0, ErrViewCorrupt
	}
	v.rows = int(rows)
	v.Stride = int(stride)
	need := (ncols*rows + rows*stride) * 8
	if uint64(len(d.b)) < need {
		return nil, 0, ErrViewCorrupt
	}
	v.Keys = make([][]int64, ncols)
	v.box = make([]keySpan, ncols) // not encoded: the format is unchanged
	for c := range v.Keys {
		col := make([]int64, rows)
		for i := range col {
			col[i] = int64(d.u64())
		}
		v.Keys[c], v.box[c] = col, spanOf(col, nil)
	}
	v.Vals = make([]float64, rows*stride)
	for i := range v.Vals {
		v.Vals[i] = math.Float64frombits(d.u64())
	}
	if d.err != nil {
		return nil, 0, ErrViewCorrupt
	}
	seen := make([]bool, ncols)
	for _, p := range v.order {
		if seen[p] {
			return nil, 0, ErrViewCorrupt
		}
		seen[p] = true
	}
	if len(v.order) != int(ncols) {
		return nil, 0, ErrViewCorrupt
	}
	if layout == 0 {
		v.sortRows()
	}
	for i := 1; i < v.rows; i++ {
		if cmpRows(v, i-1, v, i) >= 0 {
			return nil, 0, ErrViewCorrupt
		}
	}
	v.index() // not encoded either: rebuilt from the verified rows
	return v, len(b) - len(d.b), nil
}

// viewDecoder is a cursor over an encoded view; the first malformed read
// sets err and poisons all later reads.
type viewDecoder struct {
	b   []byte
	err error
}

func (d *viewDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = ErrViewCorrupt
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *viewDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.err = ErrViewCorrupt
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *viewDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = ErrViewCorrupt
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *viewDecoder) posList(ncols int) []int {
	n := d.uvarint()
	if d.err != nil || n > uint64(ncols) {
		d.err = ErrViewCorrupt
		return nil
	}
	out := make([]int, n)
	for i := range out {
		p := d.uvarint()
		if d.err != nil || p >= uint64(ncols) {
			d.err = ErrViewCorrupt
			return nil
		}
		out[i] = int(p)
	}
	return out
}
