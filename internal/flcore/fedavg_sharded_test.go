package flcore

import (
	"math"
	"math/rand"
	"testing"
)

// serialFedAvg is the historical implementation; the sharded FedAvg must
// match it bit for bit.
func serialFedAvg(updates []Update) []float64 {
	n := len(updates[0].Weights)
	out := make([]float64, n)
	total := 0.0
	for _, u := range updates {
		w := float64(u.NumSamples)
		if w <= 0 {
			w = 1
		}
		total += w
		for i, v := range u.Weights {
			out[i] += w * v
		}
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

func TestFedAvgShardedBitEqualSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{5, 2000, 1 << 15} {
		ups := make([]Update, 9)
		for k := range ups {
			w := make([]float64, n)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			ups[k] = Update{Weights: w, NumSamples: k} // includes a 0-sample client
		}
		want := serialFedAvg(ups)
		got := fedAvg(ups)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: FedAvg[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		// FedAvgInto into a dirty standing buffer must produce the same.
		dst := make([]float64, n)
		for i := range dst {
			dst[i] = 999
		}
		FedAvgInto(dst, ups)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: FedAvgInto[%d] = %v, want %v", n, i, dst[i], want[i])
			}
		}
	}
}

func TestFedAvgIntoValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	FedAvgInto(make([]float64, 3), []Update{{Weights: []float64{1, 2}, NumSamples: 1}})
}
