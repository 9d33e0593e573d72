package compress

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// testVector is a reproducible weight-delta-shaped vector: mostly small
// values with a few large-magnitude coordinates, like a real update.
func testVector(n int, seed int64) []float64 {
	if n == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.01
	}
	for i := 0; i < n/20+1; i++ {
		w[rng.Intn(n)] = rng.NormFloat64()
	}
	return w
}

func allCodecs() []Codec {
	return []Codec{None{}, NewInt8(0), NewInt8(64), NewTopK(0.01), NewTopK(0.1), NewTopK(1)}
}

func TestEncodedBytesMatchesEncode(t *testing.T) {
	for _, c := range allCodecs() {
		for _, n := range []int{0, 1, 5, 63, 64, 65, 1023, 1024, 1025, 5000} {
			w := testVector(n, int64(n)+7)
			if n == 0 {
				w = nil
			}
			if got, want := len(c.Encode(w)), c.EncodedBytes(n); got != want {
				t.Errorf("%s: Encode(%d) = %d bytes, EncodedBytes = %d", c.Name(), n, got, want)
			}
		}
	}
}

func TestRoundTripAgainstDense(t *testing.T) {
	// Every codec must round-trip against the nn.EncodeWeights ground
	// truth: decode(encode(w)) within the codec's error budget of the
	// exact dense round trip.
	w := testVector(2000, 1)
	dense, err := nn.DecodeWeights(nn.EncodeWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range allCodecs() {
		got, err := c.Decode(c.Encode(w), len(w))
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(got) != len(dense) {
			t.Fatalf("%s: length %d != %d", c.Name(), len(got), len(dense))
		}
		if c.ID() == IDNone {
			for i := range got {
				if got[i] != dense[i] {
					t.Fatalf("%s: lossless codec diverged at %d: %v != %v", c.Name(), i, got[i], dense[i])
				}
			}
			continue
		}
		// Lossy codecs: each reconstructed coordinate is either the
		// original within the codec's error budget — one int8 quantization
		// step (absolute, set by the largest coordinate), or float32
		// rounding for kept top-k coordinates — or dropped to zero.
		maxAbs := 0.0
		for _, v := range dense {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		for i := range got {
			if got[i] == 0 {
				continue // dropped by sparsification (or quantized to zero)
			}
			budget := math.Abs(dense[i]) * 1e-6 // float32 rounding (top-k)
			if c.ID() == IDInt8 {
				budget = maxAbs/127*0.51 + maxAbs*1e-6
			}
			if math.Abs(got[i]-dense[i]) > budget {
				t.Fatalf("%s: coordinate %d reconstructed %v from %v", c.Name(), i, got[i], dense[i])
			}
		}
	}
}

func TestNonePayloadIsDenseWireFormat(t *testing.T) {
	w := testVector(100, 2)
	if !bytes.Equal(None{}.Encode(w), nn.EncodeWeights(w)) {
		t.Fatal("dense codec payload differs from nn.EncodeWeights")
	}
	if DenseBytes(100) != len(nn.EncodeWeights(w)) {
		t.Fatalf("DenseBytes(100) = %d, nn encoding is %d", DenseBytes(100), len(nn.EncodeWeights(w)))
	}
}

func TestDeterministicByteIdenticalEncoding(t *testing.T) {
	// Fixed seed → byte-identical payloads across repeated encodings,
	// including top-k tie-breaking (the vector below has magnitude ties).
	w := testVector(4096, 42)
	w[10], w[2000] = 0.5, 0.5
	w[11], w[2001] = -0.5, 0.5
	for _, c := range allCodecs() {
		first := c.Encode(w)
		for trial := 0; trial < 3; trial++ {
			if !bytes.Equal(c.Encode(w), first) {
				t.Fatalf("%s: encoding not deterministic on trial %d", c.Name(), trial)
			}
		}
	}
}

func TestTopKKeepsLargestAndBreaksTiesLow(t *testing.T) {
	w := []float64{0.1, -3, 0.2, 3, 0.3, -0.3}
	c := NewTopK(0.5) // k = 3
	got, err := c.Decode(c.Encode(w), len(w))
	if err != nil {
		t.Fatal(err)
	}
	// Largest magnitudes: |−3|, |3|, then the 0.3 tie — lower index (4)
	// wins over index 5.
	want := []float64{0, -3, 0, 3, float64(float32(0.3)), 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decoded %v, want %v", got, want)
		}
	}
}

func TestTopKSizes(t *testing.T) {
	c := NewTopK(0.1)
	if k := c.K(1000); k != 100 {
		t.Fatalf("K(1000) = %d", k)
	}
	if k := c.K(1); k != 1 {
		t.Fatalf("K(1) = %d", k)
	}
	if k := c.K(0); k != 0 {
		t.Fatalf("K(0) = %d", k)
	}
	// 10% density must beat the dense baseline by well over 5x.
	if ratio := float64(DenseBytes(1000)) / float64(c.EncodedBytes(1000)); ratio < 5 {
		t.Fatalf("compression ratio %.2f < 5", ratio)
	}
}

func TestNewTopKRejectsBadFraction(t *testing.T) {
	for _, f := range []float64{0, -0.1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTopK(%v) accepted", f)
				}
			}()
			NewTopK(f)
		}()
	}
}

func TestInt8BoundedError(t *testing.T) {
	w := testVector(3000, 3)
	c := NewInt8(256)
	got, err := c.Decode(c.Encode(w), len(w))
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(w); start += 256 {
		end := start + 256
		if end > len(w) {
			end = len(w)
		}
		maxAbs := 0.0
		for _, v := range w[start:end] {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		bound := maxAbs/127*0.51 + maxAbs*1e-6 // half a quantization step + float32 scale rounding
		for i := start; i < end; i++ {
			if math.Abs(got[i]-w[i]) > bound {
				t.Fatalf("chunk [%d,%d): coordinate %d error %v > %v", start, end, i, math.Abs(got[i]-w[i]), bound)
			}
		}
	}
}

func TestEncodeDeltaErrorFeedback(t *testing.T) {
	// Error feedback delays mass, never loses it: after any number of
	// rounds of a constant true delta, cumulative reconstruction plus the
	// in-flight residual equals the cumulative truth exactly (up to fp
	// accumulation), for every lossy codec.
	const rounds = 30
	n := 500
	truth := testVector(n, 4)
	for _, c := range []Codec{NewTopK(0.1), NewTopK(0.01), NewInt8(64)} {
		var residual []float64
		cum := make([]float64, n)
		for round := 0; round < rounds; round++ {
			delta := append([]float64(nil), truth...)
			payload, rec, newRes := EncodeDelta(c, delta, residual)
			if len(payload) != c.EncodedBytes(n) {
				t.Fatalf("%s: payload %d bytes, want %d", c.Name(), len(payload), c.EncodedBytes(n))
			}
			for i := range rec {
				if math.Abs(delta[i]-(rec[i]+newRes[i])) > 1e-12 {
					t.Fatalf("%s round %d: residual does not close the encoding error at %d", c.Name(), round, i)
				}
				cum[i] += rec[i]
			}
			residual = newRes
		}
		for i := range cum {
			if math.Abs(cum[i]+residual[i]-rounds*truth[i]) > 1e-9 {
				t.Fatalf("%s coordinate %d: cumulative %v + residual %v != %v",
					c.Name(), i, cum[i], residual[i], rounds*truth[i])
			}
		}
	}
}

func TestEncodeDeltaResidualLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched residual accepted")
		}
	}()
	EncodeDelta(None{}, []float64{1, 2}, []float64{1})
}

// The residual is written while cur and base are read, so it may share no
// element with either (not even be cur itself, which once meant "the sum is
// already here"), and out may only be cur or base whole.
func TestEncodeFeedbackPartialOverlapPanics(t *testing.T) {
	buf := testVector(9, 3)
	other := testVector(8, 4)
	for _, c := range []Codec{NewInt8(4), NewTopK(0.5)} {
		for _, r := range []struct {
			name                     string
			cur, base, residual, out []float64
		}{
			{"delta overlapping residual by all but one element", buf[1:], nil, buf[:8], nil},
			{"delta that is the residual", buf[:8], nil, buf[:8], nil},
			{"base overlapping residual", other, buf[1:], buf[:8], nil},
			{"out overlapping cur by all but one element", buf[1:], nil, nil, buf[:8]},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: %s accepted", c.Name(), r.name)
					}
				}()
				EncodeFeedbackInto(nil, c, r.cur, r.base, r.residual, r.out)
			}()
		}
	}
}

func TestDecodeRejectsWrongLength(t *testing.T) {
	w := testVector(64, 5)
	for _, c := range allCodecs() {
		if _, err := c.Decode(c.Encode(w), 65); err == nil {
			t.Errorf("%s: accepted payload with wrong expected length", c.Name())
		}
	}
}

func TestDecodeRejectsTruncatedAndCorrupt(t *testing.T) {
	w := testVector(128, 6)
	for _, c := range allCodecs() {
		good := c.Encode(w)
		for _, cut := range []int{0, 3, 11, len(good) / 2, len(good) - 1} {
			if _, err := c.Decode(good[:cut], len(w)); err == nil {
				t.Errorf("%s: accepted truncation to %d bytes", c.Name(), cut)
			}
		}
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xFF // break the magic
		if _, err := c.Decode(bad, len(w)); err == nil {
			t.Errorf("%s: accepted corrupt magic", c.Name())
		}
	}
}

func TestDecodePayloadRegistry(t *testing.T) {
	w := testVector(200, 7)
	for _, c := range allCodecs() {
		got, err := DecodePayload(c.ID(), c.Encode(w), len(w))
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(got) != len(w) {
			t.Fatalf("%s: length %d", c.Name(), len(got))
		}
		if !Known(c.ID()) {
			t.Fatalf("%s: ID %d not Known", c.Name(), c.ID())
		}
	}
	if _, err := DecodePayload(99, nil, 0); err == nil {
		t.Fatal("unknown codec id accepted")
	}
	if Known(99) {
		t.Fatal("codec id 99 reported Known")
	}
}

func TestParseRoundTripsNames(t *testing.T) {
	for _, c := range allCodecs() {
		got, err := Parse(c.Name())
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.Name(), err)
		}
		if got.ID() != c.ID() {
			t.Fatalf("Parse(%q).ID = %d, want %d", c.Name(), got.ID(), c.ID())
		}
	}
	for _, spec := range []string{
		"gzip", "topk@0", "topk@2", "topk@x", "int8@0", "int8@-1", "int8@x",
		"int8@4294967296",          // past the header's u32: every payload would say chunk 0
		"int8@9223372036854775807", // EncodedBytes would overflow and Encode panic
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	// The largest chunk is the header's u32, or a 32-bit int's maximum.
	maxChunk := uint64(min(math.MaxUint32, math.MaxInt))
	if c, err := Parse(fmt.Sprintf("int8@%d", maxChunk)); err != nil || uint64(c.(Int8).Chunk) != maxChunk {
		t.Fatalf("Parse(\"int8@%d\") = %v, %v", maxChunk, c, err)
	}
	if _, err := Parse(fmt.Sprintf("int8@%d", maxChunk+1)); err == nil {
		t.Errorf("Parse(\"int8@%d\") accepted", maxChunk+1)
	}
	if c, err := Parse(""); err != nil || c.ID() != IDNone {
		t.Fatalf("Parse(\"\") = %v, %v", c, err)
	}
	if c, err := Parse("topk"); err != nil || c.(TopK).Fraction != 0.10 {
		t.Fatalf("Parse(\"topk\") = %v, %v", c, err)
	}
	if c, err := Parse("int8"); err != nil || c.(Int8).Chunk != 0 {
		t.Fatalf("Parse(\"int8\") = %v, %v", c, err)
	}
}

func TestNonFiniteInputsEncodeDeterministically(t *testing.T) {
	// Diverged training can hand codecs NaN, ±Inf, or beyond-float32
	// deltas. Encoding must stay deterministic (no platform-defined
	// float→int conversions), self-decodable (EncodeDelta must not
	// panic), and byte-stable across calls.
	w := testVector(300, 9)
	w[3] = math.NaN()
	w[40] = math.Inf(1)
	w[41] = math.Inf(-1)
	w[100] = math.MaxFloat32 * 4
	w[101] = -math.MaxFloat64 / 2
	for _, c := range allCodecs() {
		if c.ID() == IDNone {
			continue // the dense float64 format carries non-finite values as-is
		}
		first := c.Encode(w)
		if !bytes.Equal(c.Encode(w), first) {
			t.Fatalf("%s: non-finite input encoded non-deterministically", c.Name())
		}
		got, err := c.Decode(first, len(w))
		if err != nil {
			t.Fatalf("%s: cannot decode own encoding of non-finite input: %v", c.Name(), err)
		}
		for i, v := range got {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: decoded non-finite %v at %d", c.Name(), v, i)
			}
		}
	}
}

func TestEmptyVector(t *testing.T) {
	for _, c := range allCodecs() {
		got, err := c.Decode(c.Encode(nil), 0)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(got) != 0 {
			t.Fatalf("%s: decoded %d weights from empty vector", c.Name(), len(got))
		}
	}
}

func TestAllZeroVector(t *testing.T) {
	w := make([]float64, 300)
	for _, c := range allCodecs() {
		got, err := c.Decode(c.Encode(w), len(w))
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for i, v := range got {
			if v != 0 {
				t.Fatalf("%s: zero vector decoded %v at %d", c.Name(), v, i)
			}
		}
	}
}
