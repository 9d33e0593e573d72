package nn

import "repro/internal/tensor"

// useSIMD routes the whole 4-lane groups of AllFinite and of RMSprop.Step
// through the AVX2 kernels in serialize_amd64.s and rmsprop_amd64.s; the
// scalar loops in serialize.go and optimizer.go take the rest and are the
// kernels' reference. It is set once from the CPU; only in-package tests
// flip it, to compare the two paths.
var useSIMD = tensor.HasAVX2()

// useAVX512 routes the whole 8-lane groups of RMSprop.Step through
// rmspropKernelAVX512; the AVX2 kernel and the scalar loop take the rest.
// It is set once from the CPU and implies useSIMD; only in-package tests
// flip it, to compare the three paths.
var useAVX512 = useSIMD && tensor.HasAVX512()

// finiteKernel reports whether every value in the whole 4-lane groups of w
// is finite.
//
//go:noescape
func finiteKernel(w []float64) bool

// rmspropKernel is RMSprop.Step's loop over the first n&^3 elements of one
// parameter, its gradient and its cache, with omr = 1 − rho.
//
//go:noescape
func rmspropKernel(param, grad, cache *float64, n int, lr, rho, omr, eps float64)

// rmspropKernelAVX512 is rmspropKernel over the first n&^7 elements, with
// the square root proven rather than taken on the divider.
//
//go:noescape
func rmspropKernelAVX512(param, grad, cache *float64, n int, lr, rho, omr, eps float64)

// divKernel writes dst = 1/c over the first n&^3 elements: the divider work
// left in a step whose square roots rmspropKernelAVX512 proves, which only
// its benchmark runs, as the ceiling the step is read against.
//
//go:noescape
func divKernel(dst, c *float64, n int)
