package compress

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Differential coverage for the fused int8 kernels: payload, rec and
// residual must be bit-equal to the scalar reference in reference_test.go
// run as Encode → Decode → subtract, on every input including non-finite
// ones. The byte-identity contract is what lets sim ≡ flat ≡ tree hold
// across the rewrite.

// refEncodeDelta is the pre-fusion EncodeDelta over the reference loops.
func refEncodeDelta(c Int8, delta, residual []float64) (payload []byte, rec, newResidual []float64) {
	for i, r := range residual {
		delta[i] += r
	}
	payload = refInt8Encode(c, delta)
	rec, err := refInt8Decode(payload, len(delta))
	if err != nil {
		panic(err)
	}
	newResidual = make([]float64, len(delta))
	for i := range newResidual {
		newResidual[i] = delta[i] - rec[i]
	}
	return payload, rec, newResidual
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkInt8AgainstReference runs two error-feedback rounds over w (the
// second carries the first's residual) through every entry point that
// reaches the kernel and compares each output to the reference.
func checkInt8AgainstReference(t *testing.T, c Int8, w []float64) {
	t.Helper()
	if got, want := c.Encode(w), refInt8Encode(c, w); !bytes.Equal(got, want) {
		t.Fatalf("%s: Encode differs from reference on %d coordinates", c.Name(), len(w))
	}
	// The based calls encode w against w reversed, into its base as the
	// chain does; the reference subtracts first.
	base := slices.Clone(w)
	slices.Reverse(base)
	var residual, bareResidual, aliasResidual, wantResidual, basedResidual, wantBasedResidual []float64
	for round := 0; round < 2; round++ {
		wantPayload, wantRec, wantRes := refEncodeDelta(c, slices.Clone(w), wantResidual)
		wantResidual = wantRes

		payload, rec, res := EncodeDelta(c, slices.Clone(w), residual)
		residual = res
		if !bytes.Equal(payload, wantPayload) {
			t.Fatalf("%s round %d: EncodeDelta payload differs from reference", c.Name(), round)
		}
		sameBits(t, "rec", rec, wantRec)
		sameBits(t, "residual", residual, wantResidual)

		payload, bareResidual = EncodeFeedback(c, slices.Clone(w), bareResidual, nil)
		if !bytes.Equal(payload, wantPayload) {
			t.Fatalf("%s round %d: EncodeFeedback payload differs from reference", c.Name(), round)
		}
		sameBits(t, "residual (no rec)", bareResidual, wantResidual)

		// rec aliasing delta, the Chain and sim-engine calling convention.
		inPlace := slices.Clone(w)
		payload, aliasResidual = EncodeFeedback(c, inPlace, aliasResidual, inPlace)
		if !bytes.Equal(payload, wantPayload) {
			t.Fatalf("%s round %d: in-place EncodeFeedback payload differs from reference", c.Name(), round)
		}
		sameBits(t, "rec (in place of delta)", inPlace, wantRec)
		sameBits(t, "residual (rec in place)", aliasResidual, wantResidual)

		dec, err := c.Decode(payload, len(w))
		if err != nil {
			t.Fatalf("%s: Decode rejected its own encoding: %v", c.Name(), err)
		}
		sameBits(t, "Decode", dec, wantRec)

		delta := make([]float64, len(w))
		for i, x := range w {
			delta[i] = x - base[i]
		}
		wantPayload, wantRec, wantBasedResidual = refEncodeDelta(c, delta, wantBasedResidual)
		for i, r := range wantRec {
			wantRec[i] = base[i] + r
		}
		out := slices.Clone(base)
		payload, basedResidual = EncodeFeedbackInto(nil, c, w, out, basedResidual, out)
		if !bytes.Equal(payload, wantPayload) {
			t.Fatalf("%s round %d: EncodeFeedbackInto payload against a base differs from reference", c.Name(), round)
		}
		sameBits(t, "base + rec", out, wantRec)
		sameBits(t, "residual against a base", basedResidual, wantBasedResidual)
	}
}

// vectorFromBytes reinterprets fuzz bytes as float64 bit patterns, so NaNs
// with payloads, ±Inf, denormals and MaxFloat64 all occur naturally.
func vectorFromBytes(data []byte) []float64 {
	w := make([]float64, len(data)/8)
	for i := range w {
		w[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return w
}

func bytesFromVector(w []float64) []byte {
	out := make([]byte, 8*len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// nastyVector mixes ordinary update-shaped values with every special the
// quantizer has a rule for.
func nastyVector(n int, seed int64) []float64 {
	w := testVector(n, seed)
	rng := rand.New(rand.NewSource(seed + 1000))
	specials := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.MaxFloat32, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, 1e-310, -1e-310, 1e300,
	}
	for i := 0; i < n/8+1 && n > 0; i++ {
		w[rng.Intn(n)] = specials[rng.Intn(len(specials))]
	}
	return w
}

func TestInt8MatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3000)
		w := testVector(n, seed)
		if seed%2 == 1 {
			w = nastyVector(n, seed)
		}
		for _, chunk := range []int{0, 1, 7, 64, 1000} {
			checkInt8AgainstReference(t, NewInt8(chunk), w)
		}
	}
}

func FuzzInt8EncodeMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytesFromVector([]float64{1, -2, math.Pi}))
	f.Add(bytesFromVector(testVector(200, 1)))
	f.Add(bytesFromVector(nastyVector(300, 2)))
	f.Add(bytesFromVector([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}))       // nothing finite: zero scale
	f.Add(bytesFromVector([]float64{math.MaxFloat64, -math.MaxFloat64, 1, -1, 0})) // clamped scale
	f.Add(bytesFromVector([]float64{5e-324, -5e-324, 1e-310}))                     // scale underflows float32
	f.Add(bytesFromVector([]float64{0.5, 1.5, 2.5, -0.5, -1.5, 127}))              // round-half-even ties
	// −0 and NaN only: every chunk's scale is 0, and none of its codes may
	// keep a dirty destination's bytes.
	f.Add(bytes.Repeat([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		w := vectorFromBytes(data)
		// 1 and 3 leave a ragged last chunk for most n; 0 is the default
		// 1024, larger than most fuzz inputs (a single partial chunk).
		bothPaths(func(bool) {
			for _, chunk := range []int{0, 1, 3, 16} {
				checkInt8AgainstReference(t, NewInt8(chunk), w)
				checkInt8IntoDirty(t, NewInt8(chunk), w, 0)
			}
		})
	})
}

// TestChainMatchesReference replays the pre-fusion Chain.Encode (fresh
// delta, reference EncodeDelta, base += rec) beside the real chain and the
// receiver-side ApplyDelta over a sequence of broadcasts.
func TestChainMatchesReference(t *testing.T) {
	for _, chunk := range []int{0, 7, 100} {
		c := NewInt8(chunk)
		ch := (&Downlink{Codec: c}).NewChain()
		const n = 1500
		cur := nastyVector(n, int64(chunk))
		ch.Adopt(cur)
		refBase, held := slices.Clone(cur), slices.Clone(cur)
		var refResidual []float64
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 6; round++ {
			for i := range cur {
				cur[i] += rng.NormFloat64() * 1e-3
			}
			delta := make([]float64, n)
			for i := range delta {
				delta[i] = cur[i] - refBase[i]
			}
			wantPayload, rec, res := refEncodeDelta(c, delta, refResidual)
			refResidual = res
			for i := range refBase {
				refBase[i] += rec[i]
			}
			payload, id := ch.Encode(cur)
			if id != IDInt8 || !bytes.Equal(payload, wantPayload) {
				t.Fatalf("chunk %d round %d: chain payload differs from reference", chunk, round)
			}
			sameBits(t, "chain base", ch.Base(), refBase)
			var err error
			if held, err = ApplyDelta(id, payload, held); err != nil {
				t.Fatal(err)
			}
			sameBits(t, "receiver", held, refBase)
		}
	}
}

// TestUplinkMatchesReference replays a worker's uplink — the reference
// EncodeDelta of w − tw, the delta formed first — beside the worker's one
// call, EncodeFeedbackInto(payload, codec, w, tw, residual, nil), which
// forms the delta in its residual and encodes into its previous payload.
// Round 3 resets, as a tier migration does: the emptied residual must
// assign the delta, so the −0 it carries keeps its sign.
func TestUplinkMatchesReference(t *testing.T) {
	for _, chunk := range []int{0, 7, 100} {
		c := NewInt8(chunk)
		const n = 1501 // n % 4 ≠ 0: every path has a scalar tail
		tw := nastyVector(n, int64(chunk)+11)
		rng := rand.New(rand.NewSource(8))
		var residual, refResidual []float64
		var payload []byte
		for round := 0; round < 6; round++ {
			w := slices.Clone(tw)
			for i := range w {
				w[i] += rng.NormFloat64() * 1e-3
			}
			if round == 3 {
				residual, refResidual = residual[:0], nil
				w[5], tw[5] = math.Copysign(0, -1), 0 // w − tw = −0
			}
			delta := make([]float64, n)
			for i := range delta {
				delta[i] = w[i] - tw[i]
			}
			wantPayload, _, res := refEncodeDelta(c, delta, refResidual)
			refResidual = res
			prev := payload
			payload, residual = EncodeFeedbackInto(payload, c, w, tw, residual, nil)
			if !bytes.Equal(payload, wantPayload) {
				t.Fatalf("chunk %d round %d: uplink payload differs from reference", chunk, round)
			}
			if prev != nil && &payload[0] != &prev[0] {
				t.Fatalf("chunk %d round %d: payload not encoded into the previous one", chunk, round)
			}
			sameBits(t, "uplink residual", residual, refResidual)
			if round == 3 && !math.Signbit(residual[5]) {
				t.Fatalf("chunk %d: reset round's −0 delta left residual %v", chunk, residual[5])
			}
			tw = w // the next round trains from this one's weights
		}
	}
}

// goldenVector is testVector(4096, 42) with every fourth coordinate moved
// onto an exact rounding tie (k+½)·scale of its chunk: float32 scale times
// an 8-bit multiplier is exact in float64, so the division lands on k+½
// exactly and only round-half-even picks the pinned code.
func goldenVector() []float64 {
	w := testVector(4096, 42)
	rng := rand.New(rand.NewSource(43))
	for start := 0; start < len(w); start += DefaultInt8Chunk {
		chunk := w[start : start+DefaultInt8Chunk]
		maxAbs := 0.0
		for _, v := range chunk {
			maxAbs = math.Max(maxAbs, math.Abs(v))
		}
		s := float64(float32(maxAbs / 127))
		for i := 0; i < len(chunk); i += 4 {
			if math.Abs(chunk[i]) != maxAbs {
				chunk[i] = (float64(rng.Intn(253)-126) - 0.5) * s
			}
		}
	}
	return w
}

// TestInt8PayloadGolden pins the exact bytes of one seeded encoding. The
// hash was taken from the scalar reference before the kernels were fused;
// an arithmetic shortcut — multiplying by 1/scale, rounding half away from
// zero — moves some of the ~1 000 tie codes (22 and 527 of them) and fails here.
func TestInt8PayloadGolden(t *testing.T) {
	const want = "6e57d3199f7e8ca55f9933126dddcea4ae70be49e1bbe8756d2a42fd702b8151"
	w := goldenVector()
	for _, enc := range []struct {
		name    string
		payload []byte
	}{
		{"Encode", NewInt8(0).Encode(w)},
		{"reference", refInt8Encode(NewInt8(0), w)},
	} {
		sum := sha256.Sum256(enc.payload)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: int8 payload sha256 = %s, want %s", enc.name, got, want)
		}
	}
}

// FuzzApplyDelta feeds arbitrary payloads to the receiver side of the
// downlink under both wire IDs. A payload is either rejected or yields a
// vector of the base's length with the right contents; it never panics,
// and an XOR delta is only accepted when its stream inflates to exactly
// 8·n bytes — a deflate bomb is cut off there, not expanded.
func FuzzApplyDelta(f *testing.F) {
	const n = 96
	base := nastyVector(n, 5)
	next := slices.Clone(base)
	for i := range next {
		next[i] += 1e-3 * float64(i%7)
	}
	for _, d := range []*Downlink{{}, {Codec: NewInt8(0)}, {Codec: NewInt8(5)}} {
		ch := d.NewChain()
		ch.Adopt(base)
		payload, _ := ch.Encode(next)
		f.Add(payload)
		f.Add(payload[:len(payload)-2])
		corrupt := bytes.Clone(payload)
		corrupt[len(corrupt)/2] ^= 0x10
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Add(deflateBomb(n, 1<<20))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if out, err := ApplyDelta(IDDeltaXOR, payload, base); err == nil {
			if len(out) != n {
				t.Fatalf("xor delta accepted with %d coordinates, want %d", len(out), n)
			}
			if got := inflatedLen(payload[xorDeltaHeader:], 8*n+1); got != 8*n {
				t.Fatalf("xor delta accepted a stream of %d inflated bytes, want exactly %d", got, 8*n)
			}
			back, err := ApplyDelta(IDDeltaXOR, encodeXORDelta(out, base), base)
			if err != nil {
				t.Fatalf("re-encoded xor delta rejected: %v", err)
			}
			sameBits(t, "xor round trip", back, out)
		}
		rec, refErr := refInt8Decode(payload, n)
		if refErr == nil {
			for i := range rec {
				rec[i] = base[i] + rec[i]
			}
		}
		bothPaths(func(bool) {
			out, err := ApplyDelta(IDInt8, payload, base)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("int8 delta: ApplyDelta err = %v, reference Decode err = %v", err, refErr)
			}
			if err == nil {
				sameBits(t, "int8 delta", out, rec)
			}
		})
	})
}

// FuzzApplyCatchUp feeds the receiver side of a catch-up — a blob of
// payloads back to back plus a length list, as the wire carries it — with
// hostile lengths (zero, negative, short, long, overflowing) and payloads.
// SplitCatchUp either refuses the lengths or cuts the blob into exactly
// those pieces; ApplyCatchUp on them never panics, and whatever it accepts
// is ApplyDelta applied piece by piece.
func FuzzApplyCatchUp(f *testing.F) {
	const n = 96
	base := nastyVector(n, 6)
	for _, d := range []*Downlink{{}, {Codec: NewInt8(0)}} {
		ch := d.NewChain()
		ch.Adopt(base)
		next := slices.Clone(base)
		for step := 0; step < 3; step++ {
			next[step*7] += 1e-3
			ch.Encode(next)
		}
		parts, _ := ch.CatchUp(1)
		f.Add(bytes.Join(parts, nil), lensBytes(parts), d.Codec != nil)
	}
	f.Add([]byte{1, 2, 3}, []byte{0, 0, 3, 0}, true)       // a zero length
	f.Add([]byte{1, 2, 3}, []byte{0xff, 0xff, 4, 0}, true) // a negative one
	f.Add([]byte{1, 2, 3}, []byte{2, 0}, false)            // short of the blob
	f.Add([]byte{}, []byte{}, true)                        // an empty catch-up
	f.Fuzz(func(t *testing.T, blob, rawLens []byte, lossy bool) {
		lens := make([]int, len(rawLens)/2)
		for i := range lens {
			lens[i] = int(int16(binary.LittleEndian.Uint16(rawLens[2*i:])))
		}
		parts, err := SplitCatchUp(blob, lens)
		if err != nil {
			return
		}
		if len(parts) != len(lens) || !bytes.Equal(bytes.Join(parts, nil), blob) {
			t.Fatalf("lengths %v cut a %d-byte blob into %d pieces that do not rejoin", lens, len(blob), len(parts))
		}
		id := IDDeltaXOR
		if lossy {
			id = IDInt8
		}
		dst := make([]float64, n) // a held destination, as the worker's
		bothPaths(func(bool) {
			got, err := ApplyCatchUp(dst, id, parts, base)
			want, refOK := base, len(parts) > 0 // an empty catch-up is refused
			for _, p := range parts {
				var refErr error
				if want, refErr = ApplyDelta(id, p, want); refErr != nil {
					refOK = false
					break
				}
			}
			if (err == nil) != refOK {
				t.Fatalf("ApplyCatchUp err = %v, piecewise ApplyDelta accepted = %v", err, refOK)
			}
			if err == nil {
				sameBits(t, "catch-up", got, want)
			}
		})
	})
}

// lensBytes is a length list as FuzzApplyCatchUp reads one.
func lensBytes(parts [][]byte) []byte {
	out := make([]byte, 2*len(parts))
	for i, p := range parts {
		binary.LittleEndian.PutUint16(out[2*i:], uint16(len(p)))
	}
	return out
}

// deflateBomb is an XOR-delta payload claiming n coordinates whose stream
// inflates to size zero bytes.
func deflateBomb(n, size int) []byte {
	var buf bytes.Buffer
	var hdr [xorDeltaHeader]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(n))
	buf.Write(hdr[:])
	zw, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		panic(err)
	}
	zw.Write(make([]byte, size)) //nolint:errcheck // bytes.Buffer cannot fail
	zw.Close()                   //nolint:errcheck
	return buf.Bytes()
}

// inflatedLen inflates at most limit bytes of a raw DEFLATE stream and
// reports how many came out.
func inflatedLen(stream []byte, limit int) int {
	m, _ := io.Copy(io.Discard, io.LimitReader(flate.NewReader(bytes.NewReader(stream)), int64(limit)))
	return int(m)
}
