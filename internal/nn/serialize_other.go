//go:build !amd64

package nn

// useSIMD is always false off amd64: AllFinite runs its scalar loop.
var useSIMD = false

func finiteKernel(w []float64) bool {
	panic("nn: no SIMD finiteness kernel on this architecture")
}
