//go:build !amd64

package tensor

// useSIMD is always false off amd64: every product takes the scalar path.
var useSIMD = false

func abtKernel16(out, a, b, bias *float64, rows, k, n int) {
	panic("tensor: no SIMD kernel on this architecture")
}

func axpyKernel(o, b *float64, a float64, n int) {
	panic("tensor: no SIMD kernel on this architecture")
}

func axpyRowsKernel(o0, o1, b *float64, a0, a1 float64, n int) {
	panic("tensor: no SIMD kernel on this architecture")
}

func axpyStepsKernel(o, b0, b1 *float64, a0, a1 float64, n int) {
	panic("tensor: no SIMD kernel on this architecture")
}
