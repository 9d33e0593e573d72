package flcore

import (
	"math"
	"testing"
)

// FuzzDecodeTieredCheckpoint exercises the bytes a resume reads off disk:
// DecodeTieredCheckpoint and then Validate — against the checkpoint's own
// seed and weight count, with flnet's unbounded client IDs — never panic,
// and a checkpoint that passes both has a finite model and cursors that a
// Committer can index by tier.
func FuzzDecodeTieredCheckpoint(f *testing.F) {
	good := &TieredCheckpoint{
		Format: TieredCheckpointFormat, Seed: 7, Version: 3, SimTime: 5, NextEval: 40,
		Weights: []float64{0.5, -1, 2}, Rounds: []int{2, 1}, Commits: []int{2, 1},
		UplinkBytes: 96, DownlinkBytes: 96, Tiers: [][]int{{0, 1}, {2}},
		Pending:      []PendingTierRound{{Tier: 1, TierRound: 1, PulledVersion: 2, Finish: 6, Selected: []int{2}, Weights: []float64{1, 1, 1}}},
		ManagerState: []byte{1, 2, 3}, Residuals: map[int][]float64{1: {0, 0.25, 0}},
	}
	seed, err := good.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	good.Weights[1] = math.NaN()
	nan, err := good.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(nan)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeTieredCheckpoint(data)
		if err != nil {
			return
		}
		if err := c.Validate(c.Seed, len(c.Weights), math.MaxInt); err != nil {
			return
		}
		for i, w := range c.Weights {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("validated checkpoint carries weight[%d] = %v", i, w)
			}
		}
		if len(c.Tiers) == 0 || len(c.Rounds) != len(c.Tiers) || len(c.Commits) != len(c.Tiers) {
			t.Fatalf("validated checkpoint has %d tiers, %d rounds, %d commits", len(c.Tiers), len(c.Rounds), len(c.Commits))
		}
	})
}
