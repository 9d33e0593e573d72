package flcore

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// The keyed draws of the selector (SelectionRNG), the tier cohorts
// (TierCohort) and the churn coin (churnFlap) hashed over a grid of seeds,
// rounds, tiers and clients. The hash was taken with math/rand's own
// source behind each draw, so it pins the streams the engines' goldens
// and the socket runtimes' parity rest on, whatever source draws them.
func TestKeyedDrawsGolden(t *testing.T) {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	members := make([]int, 37)
	for i := range members {
		members[i] = 3*i + 1
	}
	for _, seed := range []int64{0, 1, 7, -3, 42, math.MaxInt64, math.MinInt64} {
		for round := 0; round < 12; round++ {
			rng := SelectionRNG(seed, round)
			for _, v := range rng.Perm(50) {
				put(uint64(v))
			}
			put(math.Float64bits(rng.Float64()))
			put(rng.Uint64())
			for tier := 0; tier < 5; tier++ {
				for _, want := range []int{1, 5, 36} {
					for _, m := range TierCohort(seed, round, tier, members, want) {
						put(uint64(m))
					}
				}
				for client := 0; client < 8; client++ {
					if churnFlap(seed, tier, round, client, 0.3) {
						put(uint64(client))
					}
				}
			}
		}
	}
	const want = 0xe93a6ab1794a7b90
	if got := h.Sum64(); got != want {
		t.Fatalf("keyed draws hash %#x, want %#x", got, uint64(want))
	}
}
