package flcore

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/tensor"
)

// serialFedAvg is the historical implementation; the sharded FedAvg must
// match it bit for bit. Its product is rounded before the add, as it was on
// amd64, so no platform fuses the two.
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
			out[i] = float64(w*v) + out[i]
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

// FedAvgInto clears, sums and divides a tile at a time; every element must
// still see the serial passes' operations in their order, at lengths on
// both sides of 256-, 512- and 1 024-element tiles and past the parallel
// threshold, with one to twenty members, on one worker and on two.
func TestFedAvgIntoTiledBitEqualSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(12))
	for _, k := range []int{1, 2, 5, 20} {
		for _, n := range []int{1, 3, 255, 257, 511, 513, 1023, 1025, 250_001} {
			ups := make([]Update, k)
			for j := range ups {
				w := make([]float64, n)
				for i := range w {
					w[i] = rng.NormFloat64()
				}
				ups[j] = Update{Weights: w, NumSamples: rng.Intn(50)} // 0 samples counts as 1
			}
			want := serialFedAvg(ups)
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				dst := make([]float64, n)
				for i := range dst {
					dst[i] = math.NaN()
				}
				FedAvgInto(dst, ups)
				for i := range want {
					if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
						t.Fatalf("k=%d n=%d procs=%d: FedAvgInto[%d] = %v, serial %v", k, n, procs, i, dst[i], want[i])
					}
				}
			}
		}
	}
}

// CommitMix applies (1−a)·g + a·c with both products rounded, at the
// effective rates 0, 0.6 and 1, specials included.
func TestCommitMixBitEqualSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -1e-310}
	for _, n := range []int{1, 7, 250_001} {
		g, c := make([]float64, n), make([]float64, n)
		for i := range g {
			g[i], c[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		for i, s := range specials {
			g[(3*i)%n], c[(5*i+1)%n] = s, specials[len(specials)-1-i]
		}
		for _, alpha := range []float64{0, 0.6, 1} {
			want := append([]float64(nil), g...)
			for i := range want {
				want[i] = float64((1-alpha)*want[i]) + float64(alpha*c[i])
			}
			got := append([]float64(nil), g...)
			if a := CommitMix(got, c, alpha, 1, 0, 0.5); a != alpha {
				t.Fatalf("effective rate %v, want %v", a, alpha)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d a=%v: CommitMix[%d] = %v, serial %v", n, alpha, i, got[i], want[i])
				}
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

// FedAvgInto over int8 updates held as their payloads, alone or beside
// dense ones, equals decoding each against its base and then
// tensor.MeanSharded, bit for bit: at chunk sizes on both sides of the
// 512-element tile, lengths around it and past the parallel threshold,
// into a fresh vector and into the base itself, on one worker and on two,
// with NaN, ±Inf, ±0 and subnormals in the base.
func TestFedAvgEncodedBitEqualDecoded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(14))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -1e-310}
	for _, chunk := range []int{7, 100, 1024, 4096} {
		codec := compress.NewInt8(chunk)
		for _, n := range []int{1, 3, 511, 513, 250_001} {
			base := make([]float64, n)
			for i := range base {
				base[i] = rng.NormFloat64()
			}
			for i, s := range specials {
				base[(7*i)%n] = s
			}
			for _, k := range []int{1, 2, 5} {
				ups, decoded := make([]Update, k), make([]Update, k)
				for j := range ups {
					w := make([]float64, n)
					for i := range w {
						w[i] = base[i] + 1e-2*rng.NormFloat64()
					}
					ups[j] = Update{Weights: w, NumSamples: rng.Intn(50)}
					decoded[j] = ups[j]
					if j%3 == 1 {
						continue // dense: members 1 and 4
					}
					payload, _ := compress.EncodeFeedbackInto(nil, codec, w, base, nil, nil)
					v, err := compress.CheckInt8(payload, n)
					if err != nil {
						t.Fatal(err)
					}
					ups[j].Weights, ups[j].Encoded, ups[j].Base = nil, v, base
					if decoded[j].Weights, err = compress.AddDecoded(nil, compress.IDInt8, payload, base); err != nil {
						t.Fatal(err)
					}
				}
				coeffs, srcs, total := make([]float64, k), make([][]float64, k), 0.0
				for j, u := range decoded {
					coeffs[j], srcs[j] = float64(max(u.NumSamples, 1)), u.Weights
					total += coeffs[j]
				}
				want := make([]float64, n)
				tensor.MeanSharded(want, coeffs, srcs, total)
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					for _, intoBase := range []bool{false, true} {
						dst := make([]float64, n)
						for i := range dst {
							dst[i] = math.NaN()
						}
						in := ups
						if intoBase {
							in = slices.Clone(ups)
							dst = slices.Clone(base)
							for j := range in {
								if in[j].Base != nil {
									in[j].Base = dst
								}
							}
						}
						FedAvgInto(dst, in)
						for i := range want {
							if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
								t.Fatalf("chunk=%d n=%d k=%d procs=%d into base %v: FedAvgInto[%d] = %v, decoded %v", chunk, n, k, procs, intoBase, i, dst[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// An encoded update of another length, against a base of another length,
// or with no payload at all, panics as a dense one of another length does.
func TestFedAvgIntoValidatesEncoded(t *testing.T) {
	view := func(n int) compress.Int8View {
		v, err := compress.CheckInt8(compress.NewInt8(0).Encode(make([]float64, n)), n)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, u := range []Update{{Encoded: view(2), Base: make([]float64, 3)}, {Encoded: view(3), Base: make([]float64, 2)}, {Base: make([]float64, 2)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("encoded %d-vector against a %d-vector base into 2: no panic", u.Encoded.Len(), len(u.Base))
				}
			}()
			FedAvgInto(make([]float64, 2), []Update{u})
		}()
	}
}
