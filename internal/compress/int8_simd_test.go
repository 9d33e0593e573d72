package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
)

// The AVX2 kernels against the scalar loops they stand in for, as
// tensor/gemm_test.go holds its kernel to its loop: useSIMD is flipped in
// package, and every output must match bit for bit.

// bothPaths runs f on the scalar loops and then, on a CPU that has them, on
// the AVX2 kernels; useSIMD is restored on return.
func bothPaths(f func(simd bool)) {
	simd := useSIMD
	defer func() { useSIMD = simd }()
	for _, on := range []bool{false, true} {
		if on && !simd {
			continue
		}
		useSIMD = on
		f(on)
	}
}

// TestInt8ReferenceTestsOnBothPaths runs the int8 reference tests once per
// path, so the scalar loops stay held to the reference on a CPU whose
// default is the kernels.
func TestInt8ReferenceTestsOnBothPaths(t *testing.T) {
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"MatchesReference", TestInt8MatchesReference},
		{"ChainMatchesReference", TestChainMatchesReference},
		{"UplinkMatchesReference", TestUplinkMatchesReference},
		{"PayloadGolden", TestInt8PayloadGolden},
	} {
		bothPaths(func(simd bool) { t.Run(fmt.Sprintf("%s/simd=%v", tc.name, simd), tc.test) })
	}
}

// int8Outputs is everything the int8 codec writes for one input.
type int8Outputs struct {
	encoded, payload, inPlacePayload        []byte
	rec, residual, inPlace, inPlaceResidual []float64
	decoded, applied, caughtUp              []float64
	// The payload decoded in ranges of 1 to 13 coordinates, bare and
	// against applied's base.
	rangedBare, ranged []float64
	// The delta against a base, its reconstruction written over the base
	// (the chain's call) and over cur (the sim's).
	intoBasePayload, intoCurPayload []byte
	intoBase, intoBaseResidual      []float64
	intoCur, intoCurResidual        []float64
}

// int8Run drives w through every int8 entry point. The carried residual
// is also the slice the new residual lands in, as EncodeFeedback passes
// it, and the in-place call puts rec in w's own storage. The based calls
// encode w against w reversed, so the base holds the row's specials too.
func int8Run(c Int8, w, carry []float64) int8Outputs {
	var o int8Outputs
	o.encoded = c.Encode(slices.Clone(w))
	o.payload, o.rec, o.residual = EncodeDelta(c, slices.Clone(w), slices.Clone(carry))
	o.inPlace = slices.Clone(w)
	o.inPlacePayload, o.inPlaceResidual = EncodeFeedback(c, o.inPlace, slices.Clone(carry), o.inPlace)
	base := slices.Clone(w)
	slices.Reverse(base)
	o.intoBase = slices.Clone(base)
	o.intoBasePayload, o.intoBaseResidual = EncodeFeedbackInto(nil, c, w, o.intoBase, slices.Clone(carry), o.intoBase)
	o.intoCur = slices.Clone(w)
	o.intoCurPayload, o.intoCurResidual = EncodeFeedbackInto(nil, c, o.intoCur, base, slices.Clone(carry), o.intoCur)
	var err error
	if o.decoded, err = c.Decode(o.payload, len(w)); err != nil {
		panic(err)
	}
	base = testVector(len(w), 77)
	if o.applied, err = ApplyDelta(IDInt8, o.payload, base); err != nil {
		panic(err)
	}
	if o.caughtUp, err = ApplyCatchUp(slices.Clone(base), IDInt8, [][]byte{o.payload, o.payload}, base); err != nil {
		panic(err)
	}
	o.rangedBare, o.ranged = decodeInRanges(o.payload, nil), decodeInRanges(o.payload, base)
	return o
}

// decodeInRanges decodes an int8 payload against base (nil: bare) through
// DecodeRange, in consecutive ranges of 1, 2, …, 13, 1, … coordinates.
func decodeInRanges(payload []byte, base []float64) []float64 {
	n := int(binary.LittleEndian.Uint32(payload[4:]))
	v, err := CheckInt8(payload, n)
	if err != nil {
		panic(err)
	}
	out := make([]float64, n)
	for lo, step := 0, 1; lo < n; lo, step = lo+step, step%13+1 {
		hi := min(lo+step, n)
		v.DecodeRange(out[lo:hi], part(base, lo, hi), lo)
	}
	return out
}

func (o int8Outputs) mustEqual(t *testing.T, want int8Outputs) {
	t.Helper()
	for _, p := range []struct {
		name      string
		got, want []byte
	}{
		{"Encode", o.encoded, want.encoded}, {"EncodeDelta payload", o.payload, want.payload},
		{"in-place payload", o.inPlacePayload, want.inPlacePayload},
		{"payload, out = base", o.intoBasePayload, want.intoBasePayload},
		{"payload, out = cur", o.intoCurPayload, want.intoCurPayload},
	} {
		if !bytes.Equal(p.got, p.want) {
			t.Fatalf("%s: % x, scalar % x", p.name, p.got, p.want)
		}
	}
	sameBits(t, "rec", o.rec, want.rec)
	sameBits(t, "residual", o.residual, want.residual)
	sameBits(t, "rec in place of w", o.inPlace, want.inPlace)
	sameBits(t, "residual beside it", o.inPlaceResidual, want.inPlaceResidual)
	sameBits(t, "base + rec over the base", o.intoBase, want.intoBase)
	sameBits(t, "residual, out = base", o.intoBaseResidual, want.intoBaseResidual)
	sameBits(t, "base + rec over cur", o.intoCur, want.intoCur)
	sameBits(t, "residual, out = cur", o.intoCurResidual, want.intoCurResidual)
	sameBits(t, "Decode", o.decoded, want.decoded)
	sameBits(t, "ApplyDelta", o.applied, want.applied)
	sameBits(t, "ApplyCatchUp", o.caughtUp, want.caughtUp)
	sameBits(t, "DecodeRange, bare", o.rangedBare, want.rangedBare)
	sameBits(t, "DecodeRange", o.ranged, want.ranged)
}

func TestInt8KernelsMatchScalar(t *testing.T) {
	if !useSIMD {
		t.Skip("no SIMD int8 kernels on this CPU")
	}
	nan := math.Float64frombits(0x7FF8_0000_0000_0123) // a NaN with a payload of its own
	type row struct {
		name string
		c    Int8
		w    []float64
	}
	rows := []row{
		// s = 1: −0.4 and −0.5 round to −0, whose code is 0 and whose
		// reconstruction must be +0.
		{"signed zeros", NewInt8(0), []float64{math.Copysign(0, -1), -0.4, 0, -0.5, 127, -1e-9, 0.4, 3}},
		{"subnormals, infinities and NaN", NewInt8(0), []float64{
			5e-324, -5e-324, 1e-310, math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 2.2e-308, nan, -0.25, 0.75}},
		{"all non-finite chunk: scale 0", NewInt8(8), []float64{
			math.NaN(), math.Inf(1), math.Inf(-1), nan, math.Inf(-1), math.NaN(), math.Inf(1), nan, 1, -2, 3, -4}},
		{"scale underflows float32", NewInt8(0), []float64{1e-310, -1e-311, 5e-324, 0, 1e-312, -1e-310, 0, 0}},
		{"float32-subnormal scale", NewInt8(0), []float64{1e-38, -3e-39, 7e-40, 0, -1e-38, 2e-45, 5e-39, -5e-39}},
		{"MaxFloat32 scale clamp", NewInt8(0), []float64{
			math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300, 3e38, math.MaxFloat32, 1, -1e38, 1e36, -2e36, 5e35, 0}},
		// s = 1 and s = 0.375 (both exact in float32): v/s lands on k+½
		// exactly and only round-half-even picks the code.
		{"k+½ ties, s = 1", NewInt8(0), []float64{127, 0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 125.5, 126.5, -126.5, 3.5, -3.5}},
		{"k+½ ties, s = 0.375", NewInt8(0), []float64{
			127 * 0.375, 0.5 * 0.375, 1.5 * 0.375, 2.5 * 0.375, -0.5 * 0.375, -1.5 * 0.375, -2.5 * 0.375, 126.5 * 0.375}},
		{"int8@7 on 30 coordinates", NewInt8(7), nastyVector(30, 8)},
		{"int8@7, last chunk one whole group", NewInt8(7), testVector(11, 9)},
		{"int8@5 on 64 nasty coordinates", NewInt8(5), nastyVector(64, 10)},
		{"int8@16 on 61 coordinates", NewInt8(16), nastyVector(61, 11)},
	}
	for n := 1; n <= 9; n++ {
		rows = append(rows, row{fmt.Sprintf("length %d", n), NewInt8(0), nastyVector(n, int64(n))})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			// The third carry meets every NaN of w with a NaN of another
			// payload: the sum keeps w's, on both paths.
			nonFinite := testVector(len(r.w), 6)
			nonFinite[0] = math.Inf(-1)
			for i, x := range r.w {
				if math.IsNaN(x) {
					nonFinite[i] = math.Float64frombits(math.Float64bits(x) ^ 0x456)
				}
			}
			carries := [][]float64{nil, testVector(len(r.w), 5), nonFinite}
			for ci, carry := range carries {
				var want int8Outputs
				bothPaths(func(simd bool) {
					got := int8Run(r.c, r.w, carry)
					// Any ranges give the one full-range decode's bits.
					sameBits(t, "DecodeRange against Decode", got.rangedBare, got.decoded)
					sameBits(t, "DecodeRange against ApplyDelta", got.ranged, got.applied)
					if !simd {
						want = got
						return
					}
					got.mustEqual(t, want)
				})
				// A zero code reconstructs as +0, never −0, on either path.
				for i, q := range want.rec {
					if q == 0 && math.Signbit(q) {
						t.Fatalf("carry %d: rec[%d] = −0", ci, i)
					}
				}
			}
		})
	}
}

// checkInt8IntoDirty encodes w into a reused buffer pre-filled with 0xFF,
// room bytes longer than the payload (negative: too short to take it),
// fresh and carried, as a bare delta and against a base, and holds payload
// and residual to a fresh buffer's. A buffer with room must carry the
// payload; a short one must not.
func checkInt8IntoDirty(t *testing.T, c Int8, w []float64, room int) {
	t.Helper()
	size := c.EncodedBytes(len(w))
	for _, carry := range [][]float64{nil, testVector(len(w), 5)} {
		for _, base := range [][]float64{nil, testVector(len(w), 6)} {
			name := fmt.Sprintf("carry %v, base %v", carry != nil, base != nil)
			want, wantRes := EncodeFeedbackInto(nil, c, slices.Clone(w), base, slices.Clone(carry), nil)
			dirty := bytes.Repeat([]byte{0xFF}, size+room)
			got, res := EncodeFeedbackInto(dirty, c, slices.Clone(w), base, slices.Clone(carry), nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: % x into a dirty buffer, fresh % x", name, got, want)
			}
			sameBits(t, name+" residual", res, wantRes)
			if reused := &got[0] == &dirty[0]; reused != (room >= 0) {
				t.Fatalf("%s: payload in the %d-byte buffer: %v", name, len(dirty), reused)
			}
		}
	}
}

func TestInt8EncodeIntoDirtyBuffer(t *testing.T) {
	nans := make([]float64, 8)
	for i := range nans {
		nans[i] = math.Float64frombits(0x7FF8_0000_0000_0000 | uint64(i+1))
	}
	for _, r := range []struct {
		name string
		w    []float64
		room int
	}{
		{"all-zero chunk", append([]float64{0, math.Copysign(0, -1), 0, 0, math.Copysign(0, -1), 0, 0, 0}, testVector(8, 1)...), 0},
		{"all-NaN chunk", append(testVector(8, 2), nans...), 0},
		{"short tail chunk", testVector(19, 3), 5},
		{"buffer too small", testVector(19, 4), -1},
	} {
		t.Run(r.name, func(t *testing.T) {
			bothPaths(func(bool) { checkInt8IntoDirty(t, NewInt8(8), r.w, r.room) })
		})
	}
}

// A payload is checked whole before anything is decoded: one whose last
// chunk's scale is refused leaves out — under ApplyCatchUp, a worker's held
// base — bit for bit as it was, even though every earlier chunk is valid
// and an earlier catch-up step is too.
func TestInt8BadLastScaleWritesNothing(t *testing.T) {
	const chunk, n = 8, 29 // four chunks, the last one short
	good := NewInt8(chunk).Encode(testVector(n, 21))
	base := nastyVector(n, 22)
	for _, r := range []struct {
		name string
		bits uint32
	}{
		{"NaN", 0x7FC0_0000},
		{"negative", math.Float32bits(-1)},
		{"oversize", math.Float32bits(math.MaxFloat32)},
	} {
		bad := slices.Clone(good)
		binary.LittleEndian.PutUint32(bad[12+3*(4+chunk):], r.bits)
		bothPaths(func(simd bool) {
			name := fmt.Sprintf("%s scale, simd=%v", r.name, simd)
			out := slices.Clone(base)
			if _, err := AddDecoded(out, IDInt8, bad, base); err == nil {
				t.Fatalf("%s: AddDecoded accepted the payload", name)
			}
			sameBits(t, name+": AddDecoded's out", out, base)
			if _, err := AddDecoded(out, IDInt8, bad, out); err == nil {
				t.Fatalf("%s: AddDecoded in place accepted the payload", name)
			}
			sameBits(t, name+": AddDecoded's base", out, base)
			for _, payloads := range [][][]byte{{bad}, {good, bad}} {
				if _, err := ApplyCatchUp(out, IDInt8, payloads, out); err == nil {
					t.Fatalf("%s: ApplyCatchUp of %d payloads accepted", name, len(payloads))
				}
				sameBits(t, fmt.Sprintf("%s: the base after a %d-payload catch-up", name, len(payloads)), out, base)
			}
		})
	}
}
