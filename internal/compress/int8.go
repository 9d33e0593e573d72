package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// int8Magic guards against decoding garbage as a quantized vector.
const int8Magic uint32 = 0x7F1F_C811

// DefaultInt8Chunk is the default quantization chunk: small enough that one
// outlier coordinate cannot flatten the resolution of the whole vector,
// large enough that the per-chunk float32 scale is amortized to ~0.4% of
// the payload.
const DefaultInt8Chunk = 1024

// Int8 is uniform 8-bit quantization with a per-chunk scale: each chunk of
// Chunk coordinates stores one float32 scale s = max|v|/127 and one int8
// q = round(v/s) per coordinate, reconstructing v ≈ q·s. The payload is
// ~n bytes against the dense 8n — an ~8x reduction with bounded per-chunk
// error, which error feedback (EncodeDelta) carries forward.
type Int8 struct {
	// Chunk is the quantization chunk length (0 = DefaultInt8Chunk).
	Chunk int
}

// NewInt8 returns an Int8 codec with the given chunk (0 = default).
func NewInt8(chunk int) Int8 { return Int8{Chunk: chunk} }

func (c Int8) chunk() int {
	if c.Chunk <= 0 {
		return DefaultInt8Chunk
	}
	return c.Chunk
}

// Name implements Codec.
func (c Int8) Name() string {
	if c.Chunk > 0 && c.Chunk != DefaultInt8Chunk {
		return fmt.Sprintf("int8@%d", c.Chunk)
	}
	return "int8"
}

// ID implements Codec.
func (Int8) ID() byte { return IDInt8 }

// EncodedBytes implements Codec: 12-byte header, float32 scale per chunk,
// one byte per coordinate.
func (c Int8) EncodedBytes(n int) int {
	chunk := c.chunk()
	chunks := (n + chunk - 1) / chunk
	return 12 + 4*chunks + n
}

// Encode implements Codec. Layout (little-endian): magic u32, count u32,
// chunk u32, then per chunk a float32 scale followed by that chunk's int8
// quantized coordinates.
func (c Int8) Encode(w []float64) []byte { return c.encode(nil, w, nil, nil, nil, nil) }

// encode is the one int8 quantizer, and the whole error-feedback step when
// asked. Per chunk it forms v = (cur − base) + carry while taking max|v|
// for the scale (a nil base subtracts nothing, a nil carry adds nothing,
// so a −0 keeps its bits), writes every byte of the payload by index, and
// — with a non-nil residual — leaves the new encoding error v − q·scale
// there (and base + q·scale in out, when non-nil; q·scale for a nil base)
// while the chunk is still in cache. With a base, v lands in residual
// first; without one it lands in cur in place, as a carried delta always
// has, and a nil carry leaves cur as it is. carry is nil or residual
// itself, and out may be cur or base. The payload lands in dst's storage,
// whatever it holds, when its capacity suffices, and in a fresh buffer
// otherwise. Every output is bit-equal to subtract, add, Encode, Decode,
// subtract, add run as separate passes. With useSIMD the kernels in
// int8_amd64.s take each chunk's whole 4-lane groups and the loops below
// only its last len%4 coordinates.
func (c Int8) encode(dst []byte, cur, base, carry, out, residual []float64) []byte {
	chunk := c.chunk()
	size := c.EncodedBytes(len(cur))
	if cap(dst) < size {
		dst = make([]byte, size)
	}
	buf := dst[:size]
	binary.LittleEndian.PutUint32(buf[0:], int8Magic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(cur)))
	binary.LittleEndian.PutUint32(buf[8:], uint32(chunk))
	off := 12
	for start := 0; start < len(cur); start += chunk {
		end := min(start+chunk, len(cur))
		cu := cur[start:end]
		bs, cv, o, res := part(base, start, end), part(carry, start, end), part(out, start, end), part(residual, start, end)
		// sum is where v is written, nil while v is cur as it stands.
		var sum []float64
		switch {
		case bs != nil:
			sum = res
		case cv != nil:
			sum = cu
		}
		v := cu
		if sum != nil {
			v = sum
		}
		groups, maxAbs := 0, 0.0
		if useSIMD {
			groups = len(cu) &^ 3
			maxAbs = int8CarryMax(sum, cu[:groups], bs, cv)
		}
		// One statement per coordinate: a sum of two NaNs keeps the first
		// one's payload, as the kernel's does, only while the compiler
		// keeps source order, which a value carried from one statement to
		// the next (spilled around -race's calls) loses.
		switch {
		case sum == nil:
		case bs == nil:
			for i := groups; i < len(cu); i++ {
				sum[i] = cu[i] + cv[i]
			}
		case cv == nil:
			for i := groups; i < len(cu); i++ {
				sum[i] = cu[i] - bs[i]
			}
		default:
			for i := groups; i < len(cu); i++ {
				sum[i] = (cu[i] - bs[i]) + cv[i]
			}
		}
		// Non-finite coordinates (diverged training) are excluded from the
		// scale and quantized deterministically below — NaN to 0, ±Inf to
		// the chunk extremes — so encoding never depends on the platform's
		// float→int conversion of non-finite values.
		for _, x := range v[groups:] {
			if a := math.Abs(x); a > maxAbs && a <= math.MaxFloat64 {
				maxAbs = a
			}
		}
		// Clamp so reconstructed values (up to 127·scale) stay within
		// float32 range — Decode rejects larger scales as corrupt.
		if maxAbs > math.MaxFloat32 {
			maxAbs = math.MaxFloat32
		}
		scale := float32(maxAbs / 127)
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(scale))
		codes := buf[off+4 : off+4+len(v)]
		off += 4 + len(v)
		s := float64(scale)
		done := 0 // coordinates whose code, out and residual are written
		if useSIMD && scale > 0 {
			done = groups
			int8Quantize(codes, v[:done], bs, o, res, s)
		}
		if scale == 0 { // an all-zero (or all-non-finite) chunk: every code is 0
			clear(codes)
		} else {
			for i := done; i < len(v); i++ {
				// The division and RoundToEven are the wire contract: a
				// reciprocal multiply rounds differently and changes bytes.
				r := math.RoundToEven(v[i] / s)
				if !(math.Abs(r) <= 127) {
					switch {
					case r > 127: // includes +Inf
						r = 127
					case r < -127: // includes -Inf
						r = -127
					default: // NaN
						r = 0
					}
				}
				codes[i] = byte(int8(r))
			}
		}
		if res == nil {
			continue
		}
		// The explicit float64 conversions round the product before the
		// add or subtract, so no platform may fuse the two into an FMA.
		// Each coordinate reads v and base before it writes: out may be
		// either input, and v may be the residual.
		for i := done; i < len(v); i++ {
			x, d := float64(float64(int8(codes[i]))*s), v[i]
			switch {
			case o == nil:
			case bs == nil:
				o[i] = x
			default:
				o[i] = bs[i] + x
			}
			res[i] = d - x
		}
	}
	return buf
}

// part is v[lo:hi], or nil for a nil v.
func part(v []float64, lo, hi int) []float64 {
	if v == nil {
		return nil
	}
	return v[lo:hi]
}

// Decode implements Codec.
func (c Int8) Decode(payload []byte, n int) ([]float64, error) {
	return decodeInt8(nil, payload, n, nil)
}

// decodeInt8 is the int8 decoder behind Decode, AddDecoded and
// ApplyCatchUp: CheckInt8, then one DecodeRange over the whole vector. It
// returns base[i] + q·scale per coordinate (a nil base yields the bare
// reconstruction q·scale) in out, which may be base itself, or in a fresh
// slice when out is nil. A rejected payload returns no vector and writes
// nothing.
func decodeInt8(out []float64, payload []byte, n int, base []float64) ([]float64, error) {
	v, err := CheckInt8(payload, n)
	if err != nil {
		return nil, err
	}
	if out == nil {
		out = make([]float64, n)
	}
	v.DecodeRange(out, base, 0)
	return out, nil
}

// Int8View is an int8 payload that passed CheckInt8 for an n-vector: a
// reader of its reconstruction, any coordinate range at a time. It aliases
// the payload, which must not change while the view is read.
type Int8View struct {
	payload  []byte
	n, chunk int
}

// CheckInt8 validates an int8 payload for an n-vector — magic, count,
// chunk, length, and every chunk's scale — and returns a view of it. A
// payload no encoder could have produced is rejected here, before any of
// it is decoded.
func CheckInt8(payload []byte, n int) (Int8View, error) {
	if len(payload) < 12 {
		return Int8View{}, fmt.Errorf("compress: int8 payload too short (%d bytes)", len(payload))
	}
	if binary.LittleEndian.Uint32(payload[0:4]) != int8Magic {
		return Int8View{}, fmt.Errorf("compress: bad int8 payload magic")
	}
	count := int(binary.LittleEndian.Uint32(payload[4:8]))
	chunk := int(binary.LittleEndian.Uint32(payload[8:12]))
	if count != n {
		return Int8View{}, fmt.Errorf("compress: int8 payload carries %d weights, want %d", count, n)
	}
	if chunk <= 0 {
		return Int8View{}, fmt.Errorf("compress: int8 payload chunk %d", chunk)
	}
	chunks := n / chunk
	if n%chunk != 0 {
		chunks++
	}
	if want := 12 + 4*chunks + n; len(payload) != want {
		return Int8View{}, fmt.Errorf("compress: int8 payload length %d, want %d for %d weights", len(payload), want, n)
	}
	for c := range chunks {
		// c·(4+chunk) stays within the payload: a second chunk means chunk < n.
		scale := math.Float32frombits(binary.LittleEndian.Uint32(payload[12+c*(4+chunk):]))
		s := float64(scale)
		// Reject non-finite scales and scales whose reconstructed values
		// (up to 127·scale) leave the float32 range — vectors no encoder
		// could have produced. The bound carries a one-ulp margin because
		// Encode's clamped float64 scale may round up in float32.
		if math.IsNaN(s) || s < 0 || s > math.MaxFloat32/127*(1+1e-6) {
			return Int8View{}, fmt.Errorf("compress: int8 payload scale %v", scale)
		}
	}
	return Int8View{payload: payload, n: n, chunk: chunk}, nil
}

// Len is the length of the vector the view reconstructs.
func (v Int8View) Len() int { return v.n }

// DecodeRange writes base[i] + q·scale for coordinates [lo, lo+len(dst))
// of the vector into dst[i] (the bare q·scale for a nil base); base is
// that range of the base, len(dst) long, and may be dst itself. The range
// may start and end anywhere, across any number of chunks. With useSIMD
// the decode kernel takes each chunk's whole 4-lane groups in the range
// and the loops below the rest; every split gives the same bits.
func (v Int8View) DecodeRange(dst, base []float64, lo int) {
	if lo < 0 || len(dst) > v.n-lo || (base != nil && len(base) != len(dst)) {
		panic(fmt.Sprintf("compress: int8 range [%d, %d) with a %d-element base, vector of %d", lo, lo+len(dst), len(base), v.n))
	}
	for i := 0; i < len(dst); {
		c := (lo + i) / v.chunk
		first := c * v.chunk // the chunk's first coordinate
		off := 12 + c*(4+v.chunk)
		s := float64(math.Float32frombits(binary.LittleEndian.Uint32(v.payload[off:])))
		m := min(first+v.chunk, lo+len(dst)) - (lo + i) // coordinates taken from this chunk
		codes := v.payload[off+4+lo+i-first:][:m]
		d := dst[i : i+m]
		var from []float64
		if base != nil {
			from = base[i : i+m]
		}
		i += m
		done := 0
		if useSIMD {
			done = m &^ 3
			int8Decode(d[:done], from, codes, s)
		}
		if from == nil {
			for j := done; j < m; j++ {
				d[j] = float64(int8(codes[j])) * s
			}
			continue
		}
		// As in encode: round the product before the add, never an FMA.
		for j := done; j < m; j++ {
			d[j] = from[j] + float64(float64(int8(codes[j]))*s)
		}
	}
}
