package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// topkMagic guards against decoding garbage as a sparsified vector.
const topkMagic uint32 = 0x7F1F_C822

// TopK is top-k sparsification: only the k = ⌈Fraction·n⌉ largest-magnitude
// coordinates travel, as (uint32 index, float32 value) pairs sorted by
// index; every other coordinate reconstructs to zero. At Fraction 0.1 the
// payload is ~0.8n bytes against the dense 8n (10x); at 0.01, 100x. The
// dropped mass is exactly what error feedback (EncodeDelta) carries into
// the next round. Ties in magnitude break toward the lower index, so
// encoding is deterministic.
type TopK struct {
	// Fraction is the kept fraction of coordinates in (0, 1]; at least one
	// coordinate is always kept for a non-empty vector.
	Fraction float64
}

// NewTopK returns a TopK codec keeping the given fraction of coordinates.
// It panics on a fraction outside (0, 1] — a misconfigured codec would
// silently zero every update.
func NewTopK(fraction float64) TopK {
	if !(fraction > 0 && fraction <= 1) {
		panic(fmt.Sprintf("compress: top-k fraction %v outside (0, 1]", fraction))
	}
	return TopK{Fraction: fraction}
}

// K returns the kept coordinate count for an n-vector.
func (c TopK) K(n int) int {
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(c.Fraction * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Name implements Codec.
func (c TopK) Name() string { return fmt.Sprintf("topk@%g", c.Fraction) }

// ID implements Codec.
func (TopK) ID() byte { return IDTopK }

// EncodedBytes implements Codec: 16-byte header plus 8 bytes per kept
// coordinate.
func (c TopK) EncodedBytes(n int) int { return 16 + 8*c.K(n) }

// absRank orders coordinates by |v| descending with NaN sunk below every
// finite magnitude; ties break toward the lower index.
func absRank(w []float64, i, j int) bool {
	a, b := math.Abs(w[i]), math.Abs(w[j])
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an != bn:
		return bn // finite beats NaN
	case a != b:
		return a > b
	default:
		return i < j
	}
}

// Encode implements Codec. Layout (little-endian): magic u32, count u32,
// k u32, reserved u32, then k pairs of (index u32, value float32) in
// ascending index order.
func (c TopK) Encode(w []float64) []byte {
	k := c.K(len(w))
	idx := make([]int, len(w))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return absRank(w, idx[a], idx[b]) })
	kept := idx[:k]
	sort.Ints(kept)
	buf := make([]byte, 0, c.EncodedBytes(len(w)))
	buf = binary.LittleEndian.AppendUint32(buf, topkMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	for _, i := range kept {
		// NaN (only selectable when k exceeds the finite coordinate
		// count) stores as 0 and out-of-float32-range values clamp, so
		// the payload always passes its own Decode validation.
		v := w[i]
		switch {
		case math.IsNaN(v):
			v = 0
		case v > math.MaxFloat32:
			v = math.MaxFloat32
		case v < -math.MaxFloat32:
			v = -math.MaxFloat32
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
	}
	return buf
}

// Decode implements Codec. Indices must be strictly increasing and in
// range, and values finite — anything else is a corrupt payload.
func (c TopK) Decode(payload []byte, n int) ([]float64, error) {
	if len(payload) < 16 {
		return nil, fmt.Errorf("compress: top-k payload too short (%d bytes)", len(payload))
	}
	if binary.LittleEndian.Uint32(payload[0:4]) != topkMagic {
		return nil, fmt.Errorf("compress: bad top-k payload magic")
	}
	count := int(binary.LittleEndian.Uint32(payload[4:8]))
	k := int(binary.LittleEndian.Uint32(payload[8:12]))
	if count != n {
		return nil, fmt.Errorf("compress: top-k payload carries a %d-vector, want %d", count, n)
	}
	if k < 0 || k > n {
		return nil, fmt.Errorf("compress: top-k payload keeps %d of %d coordinates", k, n)
	}
	if want := 16 + 8*k; len(payload) != want {
		return nil, fmt.Errorf("compress: top-k payload length %d, want %d for k=%d", len(payload), want, k)
	}
	out := make([]float64, n)
	prev := -1
	off := 16
	for p := 0; p < k; p++ {
		i := int(binary.LittleEndian.Uint32(payload[off:]))
		v := math.Float32frombits(binary.LittleEndian.Uint32(payload[off+4:]))
		off += 8
		if i <= prev || i >= n {
			return nil, fmt.Errorf("compress: top-k payload index %d out of order or range", i)
		}
		if v64 := float64(v); math.IsNaN(v64) || math.IsInf(v64, 0) {
			return nil, fmt.Errorf("compress: top-k payload value %v at %d", v, i)
		}
		out[i] = float64(v)
		prev = i
	}
	return out, nil
}
