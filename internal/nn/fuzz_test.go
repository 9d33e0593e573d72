package nn

import (
	"math"
	"testing"
)

// FuzzDecodeWeights exercises the weight codec against arbitrary byte
// strings: it must never panic, anything it accepts must re-encode to an
// equivalent buffer, and ViewWeights must agree with the weight-by-weight
// decode on every path (checkView: aligned and misaligned bodies, the
// scalar scan and the AVX2 kernel, the view and the copying fallback).
func FuzzDecodeWeights(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeWeights(nil))
	f.Add(EncodeWeights([]float64{1, -2, math.Pi}))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(EncodeWeights([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, math.Inf(-1), 17}))
	f.Add([]byte{1, 0, 0x1F, 0x7F, 0, 0, 0, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		simd, le := useSIMD, littleEndian
		defer func() { useSIMD, littleEndian = simd, le }()
		for _, s := range []bool{false, simd} {
			for _, l := range []bool{false, le} {
				useSIMD, littleEndian = s, l
				checkView(t, data)
			}
		}
		w, err := DecodeWeights(data)
		if err != nil {
			return
		}
		re := EncodeWeights(w)
		if len(re) != len(data) {
			t.Fatalf("re-encode length %d != %d", len(re), len(data))
		}
		back, err := DecodeWeights(re)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		for i := range w {
			if math.Float64bits(back[i]) != math.Float64bits(w[i]) {
				t.Fatalf("round trip diverged at %d", i)
			}
		}
	})
}
