package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rngSeeds are the seeds the clone is held to math/rand at: the edges of
// the seed reduction (0 maps to math/rand's fixed seed, −1 and 2³¹−1 wrap)
// and random ones.
func rngSeeds() []int64 {
	seeds := []int64{0, -1, 1, math.MaxInt32, math.MaxInt32 + 1, math.MinInt64, math.MaxInt64, 89482311}
	r := rand.New(rand.NewSource(55))
	for range 40 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// skipLengths are the Skip lengths interleaved with draws: the run bound
// (273) and the register length (607) and their neighbours, then random
// ones up to a paper-CNN init (225 034).
func skipLengths(r *rand.Rand) []int64 {
	n := []int64{0, 1, 272, 273, 274, 606, 607, 608, 334, 335, 5}
	for range 12 {
		n = append(n, r.Int63n(3000), r.Int63n(225_035))
	}
	r.Shuffle(len(n), func(i, j int) { n[i], n[j] = n[j], n[i] })
	return n
}

// The clone draws what math/rand draws, value for value, through Int63 and
// Uint64, from NewSource and from a reseeded Source.
func TestSourceMatchesMathRand(t *testing.T) {
	reused := NewSource(12345)
	reused.Skip(1000)
	for _, seed := range rngSeeds() {
		reused.Seed(seed)
		for i, got := range []*Source{NewSource(seed), reused} {
			ref := rand.NewSource(seed).(rand.Source64)
			for k := 0; k < 2000; k++ {
				if k%3 == 0 {
					if g, w := got.Int63(), ref.Int63(); g != w {
						t.Fatalf("seed %d, source %d, draw %d: Int63 %d, math/rand %d", seed, i, k, g, w)
					}
				} else if g, w := got.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d, source %d, draw %d: Uint64 %d, math/rand %d", seed, i, k, g, w)
				}
			}
		}
	}
}

// Skip(n) leaves the stream where n draws would, at every register
// position: skips of 0, 1, 272–274, 606–608 and random lengths interleave
// with short runs of draws, so runs start at every tap and feed offset and
// cross the wrap at index 0.
func TestSourceSkipMatchesDraws(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	for _, seed := range rngSeeds() {
		got, ref := NewSource(seed), rand.New(rand.NewSource(seed))
		for i, n := range skipLengths(r) {
			got.Skip(n)
			for range n {
				ref.Uint64()
			}
			for k := range 1 + r.Intn(700) {
				if g, w := got.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d, after skip %d (%d values), draw %d: %d, math/rand %d", seed, i, n, k, g, w)
				}
			}
		}
	}
}

// The recovered seeding table reproduces math/rand at seeds other than
// the one it was read from, and a Source behind rand.Rand draws the same
// floats, permutations and normals.
func TestSourceThroughRand(t *testing.T) {
	for _, seed := range []int64{2, 3, -7, 1 << 40} {
		got, want := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
		for k := 0; k < 200; k++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d, Float64 %d: %v, math/rand %v", seed, k, g, w)
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d, NormFloat64 %d: %v, math/rand %v", seed, k, g, w)
			}
			if g, w := got.Perm(9), want.Perm(9); !slices.Equal(g, w) {
				t.Fatalf("seed %d, Perm %d: %v, math/rand %v", seed, k, g, w)
			}
		}
	}
}

// Seed and a paper-CNN Skip against math/rand's Seed and replayed draws:
// the two costs Replica.Acquire pays per client round.
func BenchmarkSourceSeed(b *testing.B) {
	b.Run("clone", func(b *testing.B) {
		s := NewSource(1)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		s := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}

func BenchmarkSourceSkip(b *testing.B) {
	const n = 225_034
	b.Run("clone", func(b *testing.B) {
		s := NewSource(1)
		for i := 0; i < b.N; i++ {
			s.Skip(n)
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		s := rand.NewSource(1).(rand.Source64)
		for i := 0; i < b.N; i++ {
			for range n {
				s.Uint64()
			}
		}
	})
}
