package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// weightsMagic guards against decoding garbage as a weight vector.
const weightsMagic uint32 = 0x7F1F_0001

// expMask selects a float64's exponent bits; all ones means NaN or ±Inf.
const expMask uint64 = 0x7FF << 52

// EncodeWeights serializes a flat weight vector to a compact binary form
// (magic, count, little-endian float64s). This is the wire format used by
// internal/flnet between clients and aggregators.
func EncodeWeights(w []float64) []byte {
	return AppendWeights(make([]byte, 0, 8+8*len(w)), w)
}

// AppendWeights appends w's EncodeWeights form to dst and returns the
// extended slice. With 8+8·len(w) bytes of spare capacity it allocates
// nothing, so a caller that sends one vector per round encodes into the same
// buffer every round.
func AppendWeights(dst []byte, w []float64) []byte {
	off, n := len(dst), 8+8*len(w)
	dst = slices.Grow(dst, n)[:off+n]
	buf := dst[off:]
	binary.LittleEndian.PutUint32(buf[0:4], weightsMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(w)))
	for i, v := range w {
		binary.LittleEndian.PutUint64(buf[8+8*i:], math.Float64bits(v))
	}
	return dst
}

// DecodeWeights parses a buffer produced by EncodeWeights.
func DecodeWeights(buf []byte) ([]float64, error) {
	w, _, err := DecodeWeightsInto(nil, buf)
	return w, err
}

// DecodeWeightsInto parses a buffer produced by EncodeWeights into dst's
// storage, allocating only when cap(dst) is short of the encoded count, and
// returns the decoded vector. finite reports whether every value is a finite
// number, read off the exponent bits the decode loads anyway — the caller
// decides whether a NaN or ±Inf is an error. On error dst's contents are
// unspecified.
func DecodeWeightsInto(dst []float64, buf []byte) (w []float64, finite bool, err error) {
	if len(buf) < 8 {
		return nil, false, fmt.Errorf("nn: weight buffer too short (%d bytes)", len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != weightsMagic {
		return nil, false, fmt.Errorf("nn: bad weight buffer magic")
	}
	n := int(binary.LittleEndian.Uint32(buf[4:8]))
	if len(buf) != 8+8*n {
		return nil, false, fmt.Errorf("nn: weight buffer length %d, want %d for %d weights", len(buf), 8+8*n, n)
	}
	if dst == nil || cap(dst) < n {
		dst = make([]float64, n)
	}
	w, finite = dst[:n], true
	for i := range w {
		b := binary.LittleEndian.Uint64(buf[8+8*i:])
		if b&expMask == expMask {
			finite = false
		}
		w[i] = math.Float64frombits(b)
	}
	return w, finite, nil
}
