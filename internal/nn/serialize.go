package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"
)

// weightsMagic guards against decoding garbage as a weight vector.
const weightsMagic uint32 = 0x7F1F_0001

// expMask selects a float64's exponent bits; all ones means NaN or ±Inf.
const expMask uint64 = 0x7FF << 52

// littleEndian reports whether this host keeps a float64 in memory in the
// wire's byte order, so that a vector's own bytes are its EncodeWeights body.
// Only in-package tests flip it, to run the copying fallback a big-endian
// host takes.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// EncodeWeights serializes a flat weight vector to a compact binary form
// (magic, count, little-endian float64s). This is the wire format used by
// internal/flnet between clients and aggregators.
func EncodeWeights(w []float64) []byte {
	return AppendWeights(make([]byte, 0, 8+8*len(w)), w)
}

// AppendWeights appends w's EncodeWeights form to dst and returns the
// extended slice. With 8+8·len(w) bytes of spare capacity it allocates
// nothing. It writes weight by weight: the reference form, and what a
// sender uses where WeightsBody has no view to offer.
func AppendWeights(dst []byte, w []float64) []byte {
	off, n := len(dst), 8+8*len(w)
	dst = slices.Grow(dst, n)[:off+n]
	buf := dst[off:]
	PutWeightsHeader((*[8]byte)(buf), len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint64(buf[8+8*i:], math.Float64bits(v))
	}
	return dst
}

// PutWeightsHeader writes the 8 bytes that open an n-weight EncodeWeights
// blob: the magic, then the count.
func PutWeightsHeader(hdr *[8]byte, n int) {
	binary.LittleEndian.PutUint32(hdr[0:4], weightsMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(n))
}

// WeightsBody returns the bytes that follow the header in w's EncodeWeights
// form without encoding them: on a little-endian host they are w's own
// storage, returned as a view with ok true. The view aliases w, so it reads
// whatever w holds when it is read. On a big-endian host it returns ok
// false, and the caller encodes with AppendWeights instead.
func WeightsBody(w []float64) (body []byte, ok bool) {
	if !littleEndian {
		return nil, false
	}
	return float64Bytes(w), true
}

// NewWeightsBuffer returns an n-byte buffer with float64 storage behind it,
// so the body of an EncodeWeights blob received into it starts 8-aligned
// and ViewWeights can hand it out as a vector instead of copying it.
func NewWeightsBuffer(n int) []byte {
	return float64Bytes(make([]float64, (n+7)/8))[:n]
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
// unspecified. It is the weight-by-weight reference ViewWeights is held to.
func DecodeWeightsInto(dst []float64, buf []byte) (w []float64, finite bool, err error) {
	n, err := weightsCount(buf)
	if err != nil {
		return nil, false, err
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

// ViewWeights is DecodeWeightsInto without the copy, and without the
// finiteness verdict, which a receiver that needs it asks AllFinite for. On
// a little-endian host, when buf's body starts 8-aligned (a
// NewWeightsBuffer's does), the vector it returns IS that body: it aliases
// buf and is valid for as long as buf is. Otherwise — a big-endian host, a
// misaligned hand-built blob — it decodes into a fresh vector.
func ViewWeights(buf []byte) ([]float64, error) {
	if _, err := weightsCount(buf); err != nil {
		return nil, err
	}
	if w, ok := float64sOf(buf[8:]); ok && littleEndian {
		return w, nil
	}
	w, _, err := DecodeWeightsInto(nil, buf)
	return w, err
}

// weightsCount checks buf's magic and length and returns its weight count.
// The length test runs in uint64: in a 32-bit int, 8+8·n wraps, and an
// 8-byte blob announcing 2²⁹ weights would pass it.
func weightsCount(buf []byte) (int, error) {
	if len(buf) < 8 {
		return 0, fmt.Errorf("nn: weight buffer too short (%d bytes)", len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != weightsMagic {
		return 0, fmt.Errorf("nn: bad weight buffer magic")
	}
	n := binary.LittleEndian.Uint32(buf[4:8])
	if want := 8 + 8*uint64(n); uint64(len(buf)) != want {
		return 0, fmt.Errorf("nn: weight buffer length %d, want %d for %d weights", len(buf), want, n)
	}
	return int(n), nil
}

// AllFinite reports whether no value of w is a NaN or ±Inf (no exponent
// field is all ones): DecodeWeightsInto's finite verdict, for a vector
// ViewWeights returned. The AVX2 kernel scans the whole 4-lane groups; the
// loop below, its reference, scans the rest.
func AllFinite(w []float64) bool {
	head := 0
	if useSIMD {
		head = len(w) &^ 3
		if !finiteKernel(w) {
			return false
		}
	}
	for _, v := range w[head:] {
		if math.Float64bits(v)&expMask == expMask {
			return false
		}
	}
	return true
}

// float64Bytes is w's storage seen as bytes, in the host's byte order. It
// aliases w. This and float64sOf are the package's only unsafe code.
func float64Bytes(w []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), 8*len(w))
}

// float64sOf is b's storage seen as float64s, in the host's byte order,
// when b starts 8-aligned and holds whole float64s; ok is false otherwise.
// It aliases b.
func float64sOf(b []byte) (w []float64, ok bool) {
	p := unsafe.SliceData(b)
	if len(b)%8 != 0 || uintptr(unsafe.Pointer(p))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(p)), len(b)/8), true
}
