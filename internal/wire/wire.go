// Package wire is the one binary encoder of the durable formats: log
// records, checkpoints and the views inside them all write through a
// Writer. A Writer encodes uvarints, length-prefixed strings and
// little-endian 64-bit words either into a growing slice (a memory Writer)
// or through one fixed buffer of ChunkBytes that it hands to a sink each
// time it fills (a streaming Writer), so a streamed encoding of any size
// holds at most one chunk. The bytes are the same either way: a format is
// the sequence of calls, not the sink.
//
// Word arrays — relation columns, view keys and aggregates — are encoded
// in bulk: each chunk reserves a span of whole words and fills it with
// PutUint64, rather than appending (and possibly regrowing) per value.
package wire

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
)

// ChunkBytes is the size of a streaming Writer's buffer, the most it
// holds before handing bytes to its sink.
const ChunkBytes = 1 << 20

// Writer encodes into a memory buffer (NewBuffer) or through a chunk
// buffer into a sink (NewStream).
type Writer struct {
	buf []byte
	// sink receives each full chunk; nil for a memory Writer, whose buf
	// grows instead.
	sink io.Writer
	// err is the sink's first error. Later chunks are dropped, not
	// written, and Flush reports it.
	err error
}

// NewBuffer returns a memory Writer that appends to buf; Bytes returns
// the result.
func NewBuffer(buf []byte) *Writer { return &Writer{buf: buf} }

// NewStream returns a Writer that passes what it encodes to sink, in
// chunks of at most ChunkBytes. Call Flush after the last write.
func NewStream(sink io.Writer) *Writer {
	return &Writer{buf: make([]byte, 0, ChunkBytes), sink: sink}
}

// Bytes returns a memory Writer's buffer: the slice it was made with,
// extended by everything written since.
func (w *Writer) Bytes() []byte { return w.buf }

// Flush hands a streaming Writer's buffered bytes to its sink and returns
// the sink's first error. It is a no-op on a memory Writer.
func (w *Writer) Flush() error {
	if w.sink != nil && len(w.buf) > 0 {
		if w.err == nil {
			_, w.err = w.sink.Write(w.buf)
		}
		w.buf = w.buf[:0]
	}
	return w.err
}

// reserve makes room for n more bytes (n ≤ ChunkBytes): a memory Writer
// grows, a streaming one flushes when fewer than n bytes of its chunk are
// left.
func (w *Writer) reserve(n int) {
	if w.sink == nil {
		w.buf = slices.Grow(w.buf, n)
	} else if cap(w.buf)-len(w.buf) < n {
		w.Flush()
	}
}

// Byte writes one byte.
func (w *Writer) Byte(b byte) {
	w.reserve(1)
	w.buf = append(w.buf, b)
}

// Uvarint writes u as an unsigned varint.
func (w *Writer) Uvarint(u uint64) {
	w.reserve(binary.MaxVarintLen64)
	w.buf = binary.AppendUvarint(w.buf, u)
}

// String writes len(s) as a uvarint, then the bytes of s.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	if w.sink == nil {
		w.buf = append(w.buf, s...)
		return
	}
	for len(s) > 0 {
		w.reserve(1)
		n := copy(w.buf[len(w.buf):cap(w.buf)], s)
		w.buf, s = w.buf[:len(w.buf)+n], s[n:]
	}
}

// Int64s writes each value as 8 little-endian bytes.
func (w *Writer) Int64s(vals []int64) {
	for len(vals) > 0 {
		span := w.words(len(vals))
		n := len(span) / 8
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(span[8*i:], uint64(v))
		}
		vals = vals[n:]
	}
}

// Float64s writes each value's IEEE-754 bits as 8 little-endian bytes.
func (w *Writer) Float64s(vals []float64) {
	for len(vals) > 0 {
		span := w.words(len(vals))
		n := len(span) / 8
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(span[8*i:], math.Float64bits(v))
		}
		vals = vals[n:]
	}
}

// words appends a span of up to n 64-bit words for the caller to fill and
// returns it: all n in a memory Writer, as many as the chunk has room for
// (at least one) in a streaming one.
func (w *Writer) words(n int) []byte {
	if w.sink == nil {
		w.buf = slices.Grow(w.buf, 8*n)
	} else {
		w.reserve(8)
		n = min(n, (cap(w.buf)-len(w.buf))/8)
	}
	at := len(w.buf)
	w.buf = w.buf[:at+8*n]
	return w.buf[at:]
}
