//go:build !amd64

package tensor

// useSIMD is always false off amd64: every product takes the scalar path.
var useSIMD = false

// useAVX512 is always false off amd64.
var useAVX512 = false

func abtKernel16(out, a, b, bias *float64, rows, k, n int) {
	panic("tensor: no SIMD kernel on this architecture")
}

func abtKernel16AVX512(out, a, b, bias *float64, rows, k, n int) {
	panic("tensor: no SIMD kernel on this architecture")
}

func axpyKernel(o, b *float64, a float64, n int) {
	panic("tensor: no SIMD kernel on this architecture")
}

func divKernel(o *float64, d float64, n int) {
	panic("tensor: no SIMD kernel on this architecture")
}

func mixKernel(o, c *float64, b, a float64, n int) {
	panic("tensor: no SIMD kernel on this architecture")
}

func listKernel(list *nonzero, left *float64, count, ps, off, step int) int {
	panic("tensor: no SIMD kernel on this architecture")
}

func nzKernel(out, b *float64, list *nonzero, count, n int, bias *float64, acc bool) {
	panic("tensor: no SIMD kernel on this architecture")
}

func nzKernelAVX512(out, b *float64, list *nonzero, count, n int, bias *float64, acc bool) {
	panic("tensor: no SIMD kernel on this architecture")
}
