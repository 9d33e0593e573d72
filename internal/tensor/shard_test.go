package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Above parallelThreshold aᵀ·b splits its output rows across GOMAXPROCS
// workers, and each row runs the whole p-ascending, zero-skipping loop, so
// the result at 2, 3 and 8 workers is the GOMAXPROCS=1 result bit for bit.
// The row counts include 1 (never split) and counts no worker count
// divides; every row above 1 reaches the threshold, so it does split.
func TestShardedMatMulATB(t *testing.T) {
	cases := []gemmCase{{"conv2_dW", 64, 1000, 288}, {"mlp_hidden_dW", 256, 10, 128}}
	for _, m := range []int{1, 3, 7, 10, 50} {
		cases = append(cases, gemmCase{fmt.Sprintf("m%d", m), m, 97, 460}) // n%4 = 0 and 97 odd
		cases = append(cases, gemmCase{fmt.Sprintf("m%d_tail", m), m, 96, 461})
	}
	for _, tc := range cases {
		if tc.m > 1 && tc.m*tc.k*tc.n < parallelThreshold {
			t.Fatalf("%s must reach parallelThreshold", tc.name)
		}
		for _, zeros := range zeroDensities {
			t.Run(fmt.Sprintf("%s/zeros%.0f%%", tc.name, 100*zeros), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(tc.m*tc.k + tc.n)))
				a := withZeros(rng, zeros, randSpecialTensor(rng, tc.k, tc.m))
				// Whole zero steps (rows of a) and whole zero output rows
				// (columns of a) take every skip arm of the pairing.
				for p := 0; p < tc.k; p += 5 {
					clear(a.Data[p*tc.m : (p+1)*tc.m])
				}
				for p := 0; p < tc.k; p++ {
					for i := 1; i < tc.m; i += 4 {
						a.Data[p*tc.m+i] = 0
					}
				}
				b := randSpecialTensor(rng, tc.k, tc.n)
				product := func(procs int) *Tensor {
					dst := full(999, tc.m, tc.n)
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					MatMulATBInto(dst, a, b)
					return dst
				}
				want := product(1)
				for _, procs := range []int{2, 3, 8} {
					got := product(procs)
					for i, w := range want.Data {
						if g := got.Data[i]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("GOMAXPROCS %d: [%d] = %v (%#x), serial %v (%#x)", procs, i, g, math.Float64bits(g), w, math.Float64bits(w))
						}
					}
				}
			})
		}
	}
}
