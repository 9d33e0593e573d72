package nn

import "repro/internal/tensor"

// useSIMD routes AllFinite's whole 4-lane groups through the AVX2 kernel in
// serialize_amd64.s; the scalar loop in serialize.go scans the rest and is
// the kernel's reference. It is set once from the CPU; only in-package
// tests flip it, to compare the two paths.
var useSIMD = tensor.HasAVX2()

// finiteKernel reports whether every value in the whole 4-lane groups of w
// is finite.
//
//go:noescape
func finiteKernel(w []float64) bool
