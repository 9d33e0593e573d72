package compress

import (
	"fmt"
	"testing"
)

// Int8 hot-path benches at the two model sizes the repo benchmark runs the
// codec at: 250 000 parameters (net_flat_int8) and 1 898 (sim_fedat_mlp).
// SetBytes(8n) makes `go test -bench` print MB/s of dense float64 input —
// the same unit as the benchmark's compress.* layer probes.

var benchDims = []int{250_000, 1_898}

func benchInt8(b *testing.B, run func(b *testing.B, n int)) {
	for _, n := range benchDims {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n))
			b.ReportAllocs()
			run(b, n)
		})
	}
}

func BenchmarkInt8Encode(b *testing.B) {
	benchInt8(b, func(b *testing.B, n int) {
		c, w := NewInt8(0), testVector(n, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Encode(w)
		}
	})
}

func BenchmarkInt8Decode(b *testing.B) {
	benchInt8(b, func(b *testing.B, n int) {
		c := NewInt8(0)
		payload := c.Encode(testVector(n, 1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Decode(payload, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInt8EncodeDelta is the error-feedback step with a carried
// residual, as a worker runs it every round.
func BenchmarkInt8EncodeDelta(b *testing.B) {
	benchInt8(b, func(b *testing.B, n int) {
		c, src, delta := NewInt8(0), testVector(n, 1), make([]float64, n)
		var residual []float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(delta, src)
			_, _, residual = EncodeDelta(c, delta, residual)
		}
	})
}

// BenchmarkInt8ChainEncode advances a lossy downlink chain between two
// neighbouring model versions, the aggregator's once-per-tier-round cost.
func BenchmarkInt8ChainEncode(b *testing.B) {
	benchInt8(b, func(b *testing.B, n int) {
		ch := (&Downlink{Codec: NewInt8(0)}).NewChain()
		cur, next := testVector(n, 1), testVector(n, 2)
		for i := range next {
			next[i] = cur[i] + 1e-3*next[i]
		}
		ch.Adopt(cur)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch.Encode(next)
			cur, next = next, cur
		}
	})
}

func BenchmarkInt8ApplyDelta(b *testing.B) {
	benchInt8(b, func(b *testing.B, n int) {
		ch := (&Downlink{Codec: NewInt8(0)}).NewChain()
		base := testVector(n, 1)
		ch.Adopt(base)
		payload, id := ch.Encode(testVector(n, 2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ApplyDelta(id, payload, base); err != nil {
				b.Fatal(err)
			}
		}
	})
}
