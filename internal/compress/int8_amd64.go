package compress

import "repro/internal/tensor"

// useSIMD routes the int8 codec's whole 4-lane groups through the AVX2
// kernels in int8_amd64.s; the scalar loops in int8.go finish each chunk and
// are the kernels' bit-exact reference. It is set once from the CPU; only
// in-package tests flip it, to compare the two paths.
var useSIMD = tensor.HasAVX2()

// int8CarryMax forms v = (cur − base) + carry lane by lane (a nil base or
// carry leaves its step out), stores v into sum unless sum is nil, and
// returns max|v| over v's finite lanes, for the whole 4-lane groups of cur;
// every non-nil slice must be at least as long as cur. sum may be cur or
// carry itself.
//
//go:noescape
func int8CarryMax(sum, cur, base, carry []float64) float64

// int8Quantize writes the int8 code of each v/s into codes for the whole
// 4-lane groups of v, and with a non-nil res also res = v − q·s and, with a
// non-nil out, out = base + q·s (q·s for a nil base). out may be base, and
// res may be v. s must be positive, and codes and every non-nil slice at
// least as long as v.
//
//go:noescape
func int8Quantize(codes []byte, v, base, out, res []float64, s float64)

// int8Decode writes base + q·s (q·s for a nil base) into dst for the whole
// 4-lane groups of dst, reading q from codes; base may be dst itself.
//
//go:noescape
func int8Decode(dst, base []float64, codes []byte, s float64)
