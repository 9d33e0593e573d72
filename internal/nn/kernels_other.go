//go:build !amd64

package nn

// useSIMD is always false off amd64: AllFinite and RMSprop.Step run their
// scalar loops.
var useSIMD = false

// useAVX512 is always false off amd64.
var useAVX512 = false

func finiteKernel(w []float64) bool {
	panic("nn: no SIMD finiteness kernel on this architecture")
}

func rmspropKernel(param, grad, cache *float64, n int, lr, rho, omr, eps float64) {
	panic("nn: no SIMD RMSprop kernel on this architecture")
}

func rmspropKernelAVX512(param, grad, cache *float64, n int, lr, rho, omr, eps float64) {
	panic("nn: no SIMD RMSprop kernel on this architecture")
}

func divKernel(dst, c *float64, n int) {
	panic("nn: no SIMD divider kernel on this architecture")
}
