//go:build !amd64

package compress

// useSIMD is always false off amd64: the int8 codec runs its scalar loops.
var useSIMD = false

func int8CarryMax(sum, cur, base, carry []float64) float64 {
	panic("compress: no SIMD int8 kernel on this architecture")
}

func int8Quantize(codes []byte, v, base, out, res []float64, s float64) {
	panic("compress: no SIMD int8 kernel on this architecture")
}

func int8Decode(dst, base []float64, codes []byte, s float64) {
	panic("compress: no SIMD int8 kernel on this architecture")
}
