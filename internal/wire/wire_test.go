package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// encode writes a mix of every call, with word arrays longer than a chunk
// and odd offsets before them, so words straddle chunk boundaries.
func encode(w *Writer) {
	ints := make([]int64, ChunkBytes/8+3)
	floats := make([]float64, ChunkBytes/4+1)
	for i := range ints {
		ints[i] = int64(i) * -7919
	}
	for i := range floats {
		floats[i] = float64(i) * math.Pi
	}
	w.Uvarint(math.MaxUint64)
	w.Byte(7)
	w.Int64s(ints)
	w.String("relation")
	w.Float64s(floats)
	w.String(string(bytes.Repeat([]byte("x"), ChunkBytes+5)))
	w.Uvarint(1)
}

// chunks records what a streaming Writer hands its sink.
type chunks struct {
	all   []byte
	sizes []int
}

func (c *chunks) Write(p []byte) (int, error) {
	c.all = append(c.all, p...)
	c.sizes = append(c.sizes, len(p))
	return len(p), nil
}

func TestStreamMatchesBuffer(t *testing.T) {
	mem := NewBuffer([]byte("head"))
	encode(mem)
	var sink chunks
	w := NewStream(&sink)
	encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append([]byte("head"), sink.all...), mem.Bytes()) {
		t.Fatal("streamed bytes differ from the memory encoding")
	}
	for i, n := range sink.sizes {
		if n == 0 || n > ChunkBytes {
			t.Fatalf("chunk %d is %d bytes, want 1..%d", i, n, ChunkBytes)
		}
	}
}

type failing struct{ calls int }

func (f *failing) Write(p []byte) (int, error) {
	f.calls++
	return 0, errors.New("disk full")
}

func TestStreamReportsFirstSinkError(t *testing.T) {
	var sink failing
	w := NewStream(&sink)
	encode(w)
	if err := w.Flush(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Flush = %v, want the sink's error", err)
	}
	if sink.calls != 1 {
		t.Fatalf("sink called %d times, want once: chunks after an error are dropped", sink.calls)
	}
}
