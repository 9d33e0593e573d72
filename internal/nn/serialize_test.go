package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// The zero-copy wire forms against the weight-by-weight reference
// (AppendWeights, DecodeWeightsInto). Two switches pick the path: useSIMD
// (the AVX2 finiteness scan or the scalar loop) and littleEndian (a view of
// the vector's own bytes, or the copying fallback a big-endian host takes).

// bothPaths runs f once per combination of the two switches this CPU can
// take, restoring both on return.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	simd, le := useSIMD, littleEndian
	defer func() { useSIMD, littleEndian = simd, le }()
	for _, s := range []bool{false, true} {
		for _, l := range []bool{false, true} {
			if s && !simd || l && !le {
				continue
			}
			useSIMD, littleEndian = s, l
			t.Run(fmt.Sprintf("simd=%v/le=%v", s, l), f)
		}
	}
}

// viewEncode is a blob as the socket sends it: the header, then the body
// from WeightsBody, or AppendWeights where there is no view.
func viewEncode(w []float64) []byte {
	body, ok := WeightsBody(w)
	if !ok {
		return AppendWeights(nil, w)
	}
	var hdr [8]byte
	PutWeightsHeader(&hdr, len(w))
	return append(hdr[:], body...)
}

// placed copies blob into a float64-backed buffer at byte offset off, so
// its body is aligned for off%8 == 0 and misaligned otherwise.
func placed(blob []byte, off int) []byte {
	buf := NewWeightsBuffer(len(blob) + off)[off:]
	copy(buf, blob)
	return buf
}

// checkView decodes blob with ViewWeights and DecodeWeightsInto and fails
// unless they agree on error, length and every bit, and AllFinite of the
// view agrees with the reference's finite flag; on the view path an aligned
// body must come back as the buffer itself.
func checkView(t *testing.T, blob []byte) {
	t.Helper()
	want, wantFinite, wantErr := DecodeWeightsInto(nil, blob)
	for _, off := range []int{0, 1, 4} {
		buf := placed(blob, off)
		got, err := ViewWeights(buf)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("offset %d: ViewWeights error %v, reference %v", off, err, wantErr)
		}
		if err != nil {
			continue
		}
		if finite := AllFinite(got); !sameBits(got, want) || finite != wantFinite {
			t.Fatalf("offset %d: %d weights finite %v, reference %d finite %v, bits equal %v", off, len(got), finite, len(want), wantFinite, sameBits(got, want))
		}
		if view := off == 0 && littleEndian && len(got) > 0; aliases(buf[8:], got) != view {
			t.Fatalf("offset %d: aliases the buffer %v, want %v", off, !view, view)
		}
	}
}

// specials are the bit patterns a finiteness test can get wrong: quiet,
// signalling and negative NaNs with payloads, ±Inf, the largest finite
// value, subnormals and −0.
var specials = []float64{
	math.NaN(), math.Float64frombits(0x7FF0_0000_0000_0001), math.Float64frombits(0xFFF8_0000_0000_0BAD),
	math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.Float64frombits(0x000F_FFFF_FFFF_FFFF), math.Copysign(0, -1),
}

func TestViewWeightsMatchesReference(t *testing.T) {
	vector := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(i%97)*0.25 - 7
		}
		return w
	}
	check := func(t *testing.T, w []float64) {
		t.Helper()
		blob := viewEncode(w)
		if ref := AppendWeights(nil, w); !bytes.Equal(blob, ref) {
			t.Fatalf("n=%d: view encode differs from AppendWeights", len(w))
		}
		checkView(t, blob)
	}
	bothPaths(t, func(t *testing.T) {
		// Every special at every lane position.
		for n := 0; n <= 17; n++ {
			w := vector(n)
			check(t, w)
			for i := range w {
				for _, s := range specials {
					old := w[i]
					w[i] = s
					check(t, w)
					w[i] = old
				}
			}
		}
		// The socket workloads' model: every placement once, then (not
		// under -short, which the race step runs) each special at both ends
		// and astride a 16-lane step, written into the aligned blob in place.
		w := vector(250_000)
		check(t, w)
		if testing.Short() {
			return
		}
		blob, dst := placed(viewEncode(w), 0), make([]float64, len(w))
		for _, i := range []int{1, 123_359, 123_360, len(w) - 1} {
			for _, s := range specials {
				binary.LittleEndian.PutUint64(blob[8+8*i:], math.Float64bits(s))
				want, wantFinite, _ := DecodeWeightsInto(dst, blob)
				got, err := ViewWeights(blob)
				if err != nil || AllFinite(got) != wantFinite || !sameBits(got, want) {
					t.Fatalf("%#x at %d: view (err %v) differs from the reference (finite %v)", math.Float64bits(s), i, err, wantFinite)
				}
			}
			binary.LittleEndian.PutUint64(blob[8+8*i:], math.Float64bits(w[i]))
		}
	})
}

// aliases reports whether b's first bytes are w's first weight, by flipping
// a bit of b and looking for it in w.
func aliases(b []byte, w []float64) bool {
	if len(b) == 0 || len(w) == 0 {
		return false
	}
	before := math.Float64bits(w[0])
	b[0] ^= 1
	changed := math.Float64bits(w[0]) != before
	b[0] ^= 1
	return changed
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestWeightsBodyIsTheVector(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		w := []float64{1, 2, 3}
		body, ok := WeightsBody(w)
		if ok != littleEndian {
			t.Fatalf("WeightsBody offered a view %v on a host with littleEndian %v", ok, littleEndian)
		}
		if ok && !aliases(body, w) {
			t.Fatal("the body must be the vector's own bytes, not a copy")
		}
	})
}

// TestWeightsBlobsRefused: every malformed blob is an error on both decoders
// and both paths, never a panic. The wrapping count is an 8-byte blob whose
// header announces 2²⁹ weights: 8+8·2²⁹ wraps to 8 in a 32-bit int, which
// the length test must not accept (GOARCH=386 go test ./internal/nn).
func TestWeightsBlobsRefused(t *testing.T) {
	withCount := func(n uint32, bodyLen int) []byte {
		b := make([]byte, 8+bodyLen)
		binary.LittleEndian.PutUint32(b, weightsMagic)
		binary.LittleEndian.PutUint32(b[4:], n)
		return b
	}
	badMagic := EncodeWeights([]float64{1, 2})
	badMagic[3] ^= 0x80
	rows := []struct {
		name string
		blob []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 0, 0x1F, 0x7F}},
		{"bad magic", badMagic},
		{"body one byte short", withCount(3, 23)},
		{"body one byte long", withCount(3, 25)},
		{"body one weight long", withCount(3, 32)},
		{"count without body", withCount(1, 0)},
		{"count wraps on 32-bit", withCount(1<<29, 0)},
		{"count wraps past the body on 32-bit", withCount(1<<29+1, 8)},
		{"largest count", withCount(math.MaxUint32, 8)},
	}
	bothPaths(t, func(t *testing.T) {
		for _, r := range rows {
			for _, off := range []int{0, 1} {
				if _, _, err := DecodeWeightsInto(nil, placed(r.blob, off)); err == nil {
					t.Errorf("%s: DecodeWeightsInto accepted it", r.name)
				}
				if _, err := ViewWeights(placed(r.blob, off)); err == nil {
					t.Errorf("%s: ViewWeights accepted it", r.name)
				}
			}
		}
	})
}

// benchWeights is the socket workloads' model size.
const benchWeights = 250_000

func benchVector() []float64 {
	w := make([]float64, benchWeights)
	for i := range w {
		w[i] = float64(i%97) * 0.01
	}
	return w
}

// BenchmarkWeightsScan is the finiteness scan on both paths. Its MB/s reads
// against BenchmarkWeightsCopy, a copy of the same bytes: the scan only
// reads (a copy reads and writes), so it can run well above the copy.
func BenchmarkWeightsScan(b *testing.B) {
	w := benchVector()
	simd := useSIMD
	defer func() { useSIMD = simd }()
	for _, on := range []bool{false, true} {
		b.Run(map[bool]string{false: "scalar", true: "simd"}[on], func(b *testing.B) {
			if on && !simd {
				b.Skip("no SIMD kernel on this CPU")
			}
			useSIMD = on
			b.SetBytes(8 * benchWeights)
			for i := 0; i < b.N; i++ {
				if !AllFinite(w) {
					b.Fatal("finite vector scanned as not finite")
				}
			}
		})
	}
}

// BenchmarkViewWeights is what a receiver that checks finiteness spends per
// dense blob: the view plus the scan, beside the weight-by-weight decode it
// replaces.
func BenchmarkViewWeights(b *testing.B) {
	blob := placed(EncodeWeights(benchVector()), 0)
	dst := make([]float64, benchWeights)
	b.Run("view", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if w, err := ViewWeights(blob); err != nil || !AllFinite(w) {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, ok, err := DecodeWeightsInto(dst, blob); !ok || err != nil {
				b.Fatal(ok, err)
			}
		}
	})
}

// BenchmarkWeightsCopy is the memory ceiling the two above read against: a
// plain copy of one dense blob's bytes.
func BenchmarkWeightsCopy(b *testing.B) {
	src := EncodeWeights(benchVector())
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		copy(dst, src)
	}
}
