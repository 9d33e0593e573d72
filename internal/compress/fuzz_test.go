package compress

import (
	"fmt"
	"hash/crc32"
	"math"
	"testing"
)

// Codec fuzzing mirrors internal/nn/fuzz_test.go: Decode must never panic
// on arbitrary bytes (truncations, corruptions, hostile headers), and any
// payload it accepts must describe a vector whose re-encoding decodes to
// the same values — decode∘encode is idempotent on the codec's image.

func fuzzSeeds(f *testing.F, c Codec) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(c.Encode(nil))
	f.Add(c.Encode([]float64{1, -2, math.Pi}))
	f.Add(c.Encode(testVector(200, 1)))
	long := c.Encode(testVector(2000, 2))
	f.Add(long)
	f.Add(long[:len(long)-3]) // truncated
	corrupt := append([]byte(nil), long...)
	corrupt[9] ^= 0x40 // damaged header
	f.Add(corrupt)
}

// fuzzRoundTrip is the shared property check for one accepted payload.
// re is the codec used for re-encoding: usually c itself, but top-k
// payloads can carry more nonzeros than c would keep (a peer with a larger
// fraction), so their re-encode uses fraction 1.
func fuzzRoundTrip(t *testing.T, c, reCodec Codec, data []byte, n int) {
	w, err := c.Decode(data, n)
	if err != nil {
		return // rejected input: the only requirement is "no panic"
	}
	if len(w) != n {
		t.Fatalf("accepted payload decoded to %d weights, want %d", len(w), n)
	}
	re := reCodec.Encode(w)
	back, err := reCodec.Decode(re, n)
	if err != nil {
		t.Fatalf("re-encoding of accepted payload rejected: %v", err)
	}
	for i := range w {
		if math.Abs(back[i]-w[i]) > quantizationSlack(c, w, i) {
			t.Fatalf("round trip diverged at %d: %v -> %v", i, w[i], back[i])
		}
	}
}

// quantizationSlack bounds how far one re-encode may move a coordinate:
// zero for lossless and top-k (already on the float32 grid with ≤k
// nonzeros), one quantization step for int8 (the decoded q·s values
// re-quantize against a slightly different scale).
func quantizationSlack(c Codec, w []float64, i int) float64 {
	if c.ID() != IDInt8 {
		return 0
	}
	maxAbs := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs/127 + maxAbs*1e-6
}

func FuzzNoneDecode(f *testing.F) {
	c := None{}
	fuzzSeeds(f, c)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) >= 8 {
			n = (len(data) - 8) / 8
		}
		fuzzRoundTrip(t, c, c, data, n)
	})
}

func FuzzInt8Decode(f *testing.F) {
	c := NewInt8(0)
	fuzzSeeds(f, c)
	f.Add(NewInt8(7).Encode(testVector(100, 3))) // odd chunk from a differently-configured peer
	f.Fuzz(func(t *testing.T, data []byte) {
		// A range [lo, hi) of the vector, drawn from the input's checksum.
		h := crc32.ChecksumIEEE(data)
		for _, n := range []int{0, 1, 100, 2000} {
			var scalar []float64
			bothPaths(func(simd bool) {
				fuzzRoundTrip(t, c, c, data, n)
				w, _ := c.Decode(data, n)
				if w != nil {
					v, err := CheckInt8(data, n)
					if err != nil {
						t.Fatalf("a decoded payload fails its check: %v", err)
					}
					lo := int(h % uint32(n+1))
					hi := lo + int((h>>12)%uint32(n-lo+1))
					part := make([]float64, hi-lo)
					v.DecodeRange(part, nil, lo)
					sameBits(t, fmt.Sprintf("DecodeRange [%d, %d)", lo, hi), part, w[lo:hi])
				}
				if !simd {
					scalar = w
					return
				}
				sameBits(t, "SIMD decode", w, scalar)
			})
		}
	})
}

func FuzzTopKDecode(f *testing.F) {
	c := NewTopK(0.1)
	fuzzSeeds(f, c)
	f.Add(NewTopK(1).Encode(testVector(100, 4)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, n := range []int{0, 1, 100, 2000} {
			fuzzRoundTrip(t, c, TopK{Fraction: 1}, data, n)
		}
	})
}
