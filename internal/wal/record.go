package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/data"
	"repro/internal/wire"
)

// Record is one committed log entry: a global, monotonically increasing log
// sequence number plus the base-relation delta it carries. LSNs are strictly
// ascending across the whole log but need not be contiguous — a crash can
// lose an unsynced tail whose LSNs a later checkpoint still covers, and the
// writer then resumes past them (Log.AdvanceLSN).
type Record struct {
	LSN   uint64
	Delta data.Delta
}

// Frame layout: [u32le payload length][u32le CRC-32C of payload][payload].
// Payload: [uvarint LSN][uvarint len(name)][name][insert block][delete
// block]. Block: [uvarint ncols]; if ncols > 0, [uvarint nrows] then per
// column one kind byte (0 = int, 1 = float) followed by nrows little-endian
// 64-bit values (int64, or float64 IEEE-754 bits).
const (
	frameHeaderLen = 8

	// MaxRecordBytes bounds a single record payload. Decode rejects larger
	// length prefixes outright so a corrupt length cannot drive a huge
	// allocation.
	MaxRecordBytes = 1 << 28

	maxBlockCols = 1 << 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends rec's framed encoding to buf and returns the extended
// slice. The delta must be well-formed (equal-length columns within each
// block); Log.Append validates this before encoding.
func AppendRecord(buf []byte, rec Record) []byte {
	start := len(buf)
	w := wire.NewBuffer(append(buf, 0, 0, 0, 0, 0, 0, 0, 0))
	w.Uvarint(rec.LSN)
	w.String(rec.Delta.Relation)
	writeBlock(w, rec.Delta.Inserts)
	writeBlock(w, rec.Delta.Deletes)
	buf = w.Bytes()
	payload := buf[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf
}

// writeBlock writes a block of equal-length columns: the column count, then
// (for a non-empty block) the row count and each column's kind byte and
// values.
func writeBlock(w *wire.Writer, cols []data.Column) {
	w.Uvarint(uint64(len(cols)))
	if len(cols) == 0 {
		return
	}
	n := cols[0].Len()
	w.Uvarint(uint64(n))
	for _, c := range cols {
		if c.IsInt() {
			w.Byte(0)
			w.Int64s(c.Ints[:n])
		} else {
			w.Byte(1)
			w.Float64s(c.Floats[:n])
		}
	}
}

// validDelta rejects deltas AppendRecord cannot frame losslessly: within
// each block every column must have the block's row count.
func validDelta(d data.Delta) error {
	for _, block := range [2][]data.Column{d.Inserts, d.Deletes} {
		if len(block) == 0 {
			continue
		}
		n := block[0].Len()
		for _, c := range block[1:] {
			if c.Len() != n {
				return fmt.Errorf("wal: malformed delta for %q: ragged column lengths", d.Relation)
			}
		}
	}
	return nil
}

// DecodeRecord decodes the first framed record in b, returning the record
// and the number of bytes consumed. ErrTruncated means b ends before the
// frame does (a torn tail); ErrChecksum and ErrCorrupt mean the frame is
// complete but invalid. All three mark the end of a log's committed prefix.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < frameHeaderLen {
		return Record{}, 0, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint32(b))
	sum := binary.LittleEndian.Uint32(b[4:])
	if n == 0 || n > MaxRecordBytes {
		return Record{}, 0, ErrCorrupt
	}
	if len(b) < frameHeaderLen+n {
		return Record{}, 0, ErrTruncated
	}
	payload := b[frameHeaderLen : frameHeaderLen+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return Record{}, 0, ErrChecksum
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, frameHeaderLen + n, nil
}

func decodePayload(p []byte) (Record, error) {
	lsn, n := binary.Uvarint(p)
	if n <= 0 {
		return Record{}, ErrCorrupt
	}
	d, rest, err := decodeDelta(p[n:])
	if err != nil {
		return Record{}, err
	}
	if len(rest) != 0 {
		return Record{}, ErrCorrupt
	}
	return Record{LSN: lsn, Delta: d}, nil
}

func decodeDelta(b []byte) (data.Delta, []byte, error) {
	var d data.Delta
	nameLen, n := binary.Uvarint(b)
	if n <= 0 || nameLen > uint64(len(b)-n) {
		return d, nil, ErrCorrupt
	}
	b = b[n:]
	d.Relation = string(b[:nameLen])
	b = b[nameLen:]
	var err error
	if d.Inserts, b, err = decodeBlock(b); err != nil {
		return d, nil, err
	}
	if d.Deletes, b, err = decodeBlock(b); err != nil {
		return d, nil, err
	}
	return d, b, nil
}

// blockFits reports whether ncols columns of nrows rows — a kind byte plus
// 8 bytes per row each — fit in the avail bytes left to decode. The bytes
// present are the only bound: a checkpoint's relation block may hold any
// number of rows, and the division form cannot overflow.
func blockFits(ncols, nrows, avail uint64) bool {
	if ncols == 0 {
		return true
	}
	per := avail / ncols
	return per >= 1 && nrows <= (per-1)/8
}

func decodeBlock(b []byte) ([]data.Column, []byte, error) {
	ncols, n := binary.Uvarint(b)
	if n <= 0 || ncols > maxBlockCols {
		return nil, nil, ErrCorrupt
	}
	b = b[n:]
	if ncols == 0 {
		return nil, b, nil
	}
	nrows, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, ErrCorrupt
	}
	b = b[n:]
	if !blockFits(ncols, nrows, uint64(len(b))) {
		return nil, nil, ErrCorrupt
	}
	cols := make([]data.Column, ncols)
	for i := range cols {
		kind := b[0]
		b = b[1:]
		switch kind {
		case 0:
			vals := make([]int64, nrows)
			for j := range vals {
				vals[j] = int64(binary.LittleEndian.Uint64(b[8*j:]))
			}
			cols[i] = data.NewIntColumn(vals)
		case 1:
			vals := make([]float64, nrows)
			for j := range vals {
				vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
			}
			cols[i] = data.NewFloatColumn(vals)
		default:
			return nil, nil, ErrCorrupt
		}
		b = b[8*nrows:]
	}
	return cols, b, nil
}
