package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The scalar Encode/Decode loops the fused kernels in int8.go replaced,
// kept as test-only references: the differential, fuzz and golden tests
// hold the kernels bit-equal to refInt8Encode → refInt8Decode → subtract.

// refInt8Encode is the pre-fusion scalar encoder, kept verbatim as the
// differential reference. Layout (little-endian): magic u32, count u32,
// chunk u32, then per chunk a float32 scale followed by that chunk's int8
// quantized coordinates.
func refInt8Encode(c Int8, w []float64) []byte {
	chunk := c.chunk()
	buf := make([]byte, 0, c.EncodedBytes(len(w)))
	buf = binary.LittleEndian.AppendUint32(buf, int8Magic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(chunk))
	for start := 0; start < len(w); start += chunk {
		end := start + chunk
		if end > len(w) {
			end = len(w)
		}
		// Non-finite coordinates (diverged training) are excluded from the
		// scale and quantized deterministically below — NaN to 0, ±Inf to
		// the chunk extremes — so encoding never depends on the platform's
		// float→int conversion of non-finite values.
		maxAbs := 0.0
		for _, v := range w[start:end] {
			if a := math.Abs(v); a > maxAbs && !math.IsInf(a, 1) {
				maxAbs = a
			}
		}
		// Clamp so reconstructed values (up to 127·scale) stay within
		// float32 range — Decode rejects larger scales as corrupt.
		if maxAbs > math.MaxFloat32 {
			maxAbs = math.MaxFloat32
		}
		scale := float32(maxAbs / 127)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(scale))
		for _, v := range w[start:end] {
			q := int8(0)
			if scale > 0 {
				switch r := math.RoundToEven(v / float64(scale)); {
				case r > 127: // includes +Inf
					q = 127
				case r < -127: // includes -Inf
					q = -127
				case math.IsNaN(r):
					q = 0
				default:
					q = int8(r)
				}
			}
			buf = append(buf, byte(q))
		}
	}
	return buf
}

// refInt8Decode is the pre-fusion scalar decoder.
func refInt8Decode(payload []byte, n int) ([]float64, error) {
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
		end := start + chunk
		if end > n {
			end = n
		}
		scale := math.Float32frombits(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		// Reject non-finite scales and scales whose reconstructed values
		// (up to 127·scale) leave the float32 range — vectors no encoder
		// could have produced. The bound carries a one-ulp margin because
		// Encode's clamped float64 scale may round up in float32.
		if s := float64(scale); math.IsNaN(s) || s < 0 || s > math.MaxFloat32/127*(1+1e-6) {
			return nil, fmt.Errorf("compress: int8 payload scale %v", scale)
		}
		for i := start; i < end; i++ {
			out[i] = float64(int8(payload[off])) * float64(scale)
			off++
		}
	}
	return out, nil
}
