package moo

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeViewData feeds arbitrary bytes to the checkpoint view decoder.
// It must never panic; a view it accepts carries a row directory no larger
// than its decoded payload, survives a re-encode round trip byte for byte,
// and binds every row's consumer key, and the keys one step beside it in
// each column, as the binary search does.
func FuzzDecodeViewData(f *testing.F) {
	for _, v := range codecViews(f) {
		f.Add(v.AppendBinary(nil))
	}
	f.Add(rawView([]int{0}, 1, []int64{0, math.MaxInt64}).AppendBinary(nil))
	f.Add(benchView(64).AppendBinary(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := DecodeViewData(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("decoded %d bytes of %d", n, len(b))
		}
		if v.dir != nil && 4*int64(len(v.dir.start)) > v.SizeBytes() {
			t.Fatalf("directory of %d slots over a %d-byte payload", len(v.dir.start), v.SizeBytes())
		}
		re := v.AppendBinary(nil)
		v2, n2, err := DecodeViewData(re)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-encode failed: n=%d of %d, err=%v", n2, len(re), err)
		}
		if again := v2.AppendBinary(nil); !bytes.Equal(again, re) {
			t.Fatalf("re-encode is not byte-identical: %x vs %x", again, re)
		}
		ref := searchRef(v)
		key := make([]int64, v.nskey)
		for r := 0; r < v.rows; r++ {
			// Step 0 binds the row's own key; 1 + 2j and 2 + 2j step column
			// j down and up.
			for step := 0; step <= 2*v.nskey; step++ {
				for i, p := range v.order[:v.nskey] {
					key[i] = v.Keys[p][r]
				}
				if step > 0 {
					key[(step-1)/2] += int64(step%2*2 - 1)
				}
				lo, hi, ok := v.bind(key)
				wlo, whi, wok := ref.bind(key)
				if ok != wok || ok && (lo != wlo || hi != whi) {
					t.Fatalf("bind(%v) = [%d,%d) %v, search [%d,%d) %v", key, lo, hi, ok, wlo, whi, wok)
				}
			}
			if got := v.Lookup(v.Key(r)...); got != r {
				t.Fatalf("Lookup(%v) = %d, want %d", v.Key(r), got, r)
			}
		}
	})
}
