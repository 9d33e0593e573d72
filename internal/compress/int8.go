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

// Lossless implements Codec.
func (Int8) Lossless() bool { return false }

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
func (c Int8) Encode(w []float64) []byte { return c.encode(w, nil, nil, nil) }

// encode is the one int8 quantizer, and the whole error-feedback step when
// asked: per chunk it adds the carried error into w in place (carry, when
// non-nil) while taking max|v| for the scale, writes the codes by index
// into the pre-sized payload, and — with a non-nil residual — leaves the
// new encoding error w[i] − q·scale there (and q·scale itself in rec, when
// the caller wants the reconstruction) while the chunk is still in cache.
// carry and residual may be the same slice, and so may w and rec (the
// reconstruction then replaces the input). Every output is bit-equal to
// add, Encode, Decode, subtract run as four separate passes.
func (c Int8) encode(w, carry, rec, residual []float64) []byte {
	chunk := c.chunk()
	buf := make([]byte, c.EncodedBytes(len(w)))
	binary.LittleEndian.PutUint32(buf[0:], int8Magic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(w)))
	binary.LittleEndian.PutUint32(buf[8:], uint32(chunk))
	off := 12
	for start := 0; start < len(w); start += chunk {
		v := w[start:min(start+chunk, len(w))]
		if carry != nil {
			for i, r := range carry[start : start+len(v)] {
				v[i] += r
			}
		}
		// Non-finite coordinates (diverged training) are excluded from the
		// scale and quantized deterministically below — NaN to 0, ±Inf to
		// the chunk extremes — so encoding never depends on the platform's
		// float→int conversion of non-finite values.
		maxAbs := 0.0
		for _, x := range v {
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
		if scale > 0 { // an all-zero (or all-non-finite) chunk keeps its zero codes
			for i, x := range v {
				// The division and RoundToEven are the wire contract: a
				// reciprocal multiply rounds differently and changes bytes.
				r := math.RoundToEven(x / s)
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
		if residual == nil {
			continue
		}
		res := residual[start : start+len(v)]
		// The explicit float64 conversions round the product before the
		// subtraction, so no platform may fuse the two into an FMA.
		if rec == nil {
			for i, b := range codes {
				res[i] = v[i] - float64(float64(int8(b))*s)
			}
			continue
		}
		out := rec[start : start+len(v)]
		for i, b := range codes {
			x, d := float64(float64(int8(b))*s), v[i] // d first: rec may be w itself
			out[i] = x
			res[i] = d - x
		}
	}
	return buf
}

// Decode implements Codec.
func (c Int8) Decode(payload []byte, n int) ([]float64, error) {
	return decodeInt8(payload, n, nil)
}

// decodeInt8 is the one int8 decoder: it validates the payload and returns
// base[i] + q·scale per coordinate in a single fresh slice (a nil base
// yields the bare reconstruction q·scale). Each chunk's scale is checked
// before any of that chunk's coordinates is written, and a rejected
// payload returns no vector at all.
func decodeInt8(payload []byte, n int, base []float64) ([]float64, error) {
	if len(payload) < 12 {
		return nil, fmt.Errorf("compress: int8 payload too short (%d bytes)", len(payload))
	}
	if binary.LittleEndian.Uint32(payload[0:4]) != int8Magic {
		return nil, fmt.Errorf("compress: bad int8 payload magic")
	}
	count := int(binary.LittleEndian.Uint32(payload[4:8]))
	chunk := int(binary.LittleEndian.Uint32(payload[8:12]))
	if count != n {
		return nil, fmt.Errorf("compress: int8 payload carries %d weights, want %d", count, n)
	}
	if chunk <= 0 {
		return nil, fmt.Errorf("compress: int8 payload chunk %d", chunk)
	}
	chunks := (n + chunk - 1) / chunk
	if want := 12 + 4*chunks + n; len(payload) != want {
		return nil, fmt.Errorf("compress: int8 payload length %d, want %d for %d weights", len(payload), want, n)
	}
	out := make([]float64, n)
	off := 12
	for start := 0; start < n; start += chunk {
		dst := out[start:min(start+chunk, n)]
		scale := math.Float32frombits(binary.LittleEndian.Uint32(payload[off:]))
		s := float64(scale)
		// Reject non-finite scales and scales whose reconstructed values
		// (up to 127·scale) leave the float32 range — vectors no encoder
		// could have produced. The bound carries a one-ulp margin because
		// Encode's clamped float64 scale may round up in float32.
		if math.IsNaN(s) || s < 0 || s > math.MaxFloat32/127*(1+1e-6) {
			return nil, fmt.Errorf("compress: int8 payload scale %v", scale)
		}
		codes := payload[off+4 : off+4+len(dst)]
		off += 4 + len(dst)
		if base == nil {
			for i, b := range codes {
				dst[i] = float64(int8(b)) * s
			}
			continue
		}
		// As in encode: round the product before the add, never an FMA.
		from := base[start : start+len(dst)]
		for i, b := range codes {
			dst[i] = from[i] + float64(float64(int8(b))*s)
		}
	}
	return out, nil
}
