package flcore_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/flcore"
)

// scriptedManager is a TierManager whose one re-tiering is scripted: at
// retierAt it moves client 1 from tier 0 to tier 1. It records what the
// Committer feeds it.
type scriptedManager struct {
	tiers    [][]int
	retierAt int
	observed []flcore.Observation
	cohorts  [][2]int // (tier, round) of every Cohort call
}

func (m *scriptedManager) Tiers() [][]int { return m.tiers }
func (m *scriptedManager) Observe(client int, seconds float64) {
	m.observed = append(m.observed, flcore.Observation{Client: client, Seconds: seconds})
}
func (m *scriptedManager) ObserveAccuracy([]float64) {}
func (m *scriptedManager) Cohort(tier, round, want int) []int {
	m.cohorts = append(m.cohorts, [2]int{tier, round})
	return m.tiers[tier]
}
func (m *scriptedManager) MaybeRetier(version int) ([][]int, []flcore.TierMove, bool) {
	if version != m.retierAt {
		return nil, nil, false
	}
	m.tiers = [][]int{{0}, {1, 2}}
	return m.tiers, []flcore.TierMove{{Client: 1, From: 0, To: 1}}, true
}

func vecNear(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			return false
		}
	}
	return true
}

// TestCommitterScriptedSequence walks the FedAT server update through a
// hand-computed commit sequence on 3-element vectors: staleness, FedAT's
// inverted-frequency tier weights, the one CommitMix, the round cursors,
// the traffic totals and the checkpoint cadence — no sockets, no training.
//
// Alpha 0.5, StalenessExp 1 (discount 1/(staleness+1)), two tiers, FedAT
// weight 2·(commits[mirror]+1)/(total+2) on counts that include the commit:
//
//	#1 tier 0, pulled v0: w=2·1/3, s=0, a=1/3   [0 0 0]→[1 2 3]   (commit [3 6 9])
//	#2 tier 0, pulled v1: w=2·1/4, s=0, a=1/4   [1 2 3]→[2 3 4]   (commit [5 6 7])
//	#3 tier 1, pulled v0: w=2·3/5, s=2, a=1/5   [2 3 4]→[4 5 6]   (commit [12 13 14])
func TestCommitterScriptedSequence(t *testing.T) {
	k := flcore.NewCommitter(flcore.CommitterConfig{
		Alpha: 0.5, StalenessExp: 1, TierWeight: core.FedATWeights(),
		ClientsPerRound: 2, Seed: 7, CheckpointEvery: 2,
	}, [][]int{{0, 1, 2, 3}, {4}}, []float64{0, 0, 0})

	p0, p1 := k.Pull(0), k.Pull(1)
	if p0.Version != 0 || p0.Round != 0 || p1.Round != 0 {
		t.Fatalf("initial pulls %+v %+v", p0, p1)
	}
	if want := flcore.TierCohort(7, 0, 0, []int{0, 1, 2, 3}, 2); !reflect.DeepEqual(p0.Cohort, want) {
		t.Fatalf("tier 0 round 0 cohort %v, want the TierCohort draw %v", p0.Cohort, want)
	}
	if !reflect.DeepEqual(p1.Cohort, []int{4}) {
		t.Fatalf("tier 1 cohort %v, want the whole tier", p1.Cohort)
	}

	steps := []struct {
		commit               flcore.Commit
		staleness            int
		weight               float64
		global               []float64
		nextRound, nextPulls int
		due                  bool
	}{
		{flcore.Commit{Tier: 0, TierRound: 0, PulledVersion: 0, Weights: []float64{3, 6, 9}, UplinkBytes: 10, DownlinkBytes: 100},
			0, 1.0 / 3, []float64{1, 2, 3}, 1, 1, false},
		{flcore.Commit{Tier: 0, TierRound: 1, PulledVersion: 1, Weights: []float64{5, 6, 7}, UplinkBytes: 20, DownlinkBytes: 200},
			0, 0.25, []float64{2, 3, 4}, 2, 2, true},
		{flcore.Commit{Tier: 1, TierRound: 0, PulledVersion: 0, Weights: []float64{12, 13, 14}, UplinkBytes: 30, DownlinkBytes: 300},
			2, 0.2, []float64{4, 5, 6}, 1, 3, false},
	}
	for i, s := range steps {
		rec, moves, err := k.Apply(s.commit)
		if err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
		if moves != nil {
			t.Fatalf("commit %d: unmanaged run reported moves %v", i+1, moves)
		}
		if rec.Tier != s.commit.Tier || rec.TierRound != s.commit.TierRound || rec.Version != i+1 ||
			rec.Staleness != s.staleness || math.Abs(rec.Weight-s.weight) > 1e-12 ||
			rec.UplinkBytes != s.commit.UplinkBytes || rec.DownlinkBytes != s.commit.DownlinkBytes {
			t.Fatalf("commit %d: record %+v, want staleness %d weight %v", i+1, rec, s.staleness, s.weight)
		}
		if !vecNear(k.Weights(), s.global) {
			t.Fatalf("commit %d: global %v, want %v", i+1, k.Weights(), s.global)
		}
		if k.CheckpointDue() != s.due {
			t.Fatalf("commit %d: checkpoint due = %v at version %d, cadence 2", i+1, !s.due, k.Version())
		}
		// The committing tier's next pull: post-commit version, next index.
		if p := k.Pull(s.commit.Tier); p.Version != s.nextPulls || p.Round != s.nextRound {
			t.Fatalf("commit %d: next pull %+v, want version %d round %d", i+1, p, s.nextPulls, s.nextRound)
		}
	}
	tot := k.Totals()
	if !reflect.DeepEqual(tot.Commits, []int{2, 1}) || tot.UplinkBytes != 60 || tot.DownlinkBytes != 600 || tot.Retiers != 0 {
		t.Fatalf("totals %+v", tot)
	}

	// A round that ends without a commit is redrawn one index further; a
	// tier that numbers its own rounds (a tree child) drags the cursor along.
	if p := k.Pull(1); p.Round != 2 {
		t.Fatalf("redraw handed out round %d, want 2", p.Round)
	}
	if _, _, err := k.Apply(flcore.Commit{Tier: 1, TierRound: 7, PulledVersion: 3, Weights: []float64{4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	if p := k.Pull(1); p.Round != 8 {
		t.Fatalf("cursor did not follow the tier's own round 7: next round %d", p.Round)
	}
}

// TestCommitterRejectsWithoutStateChange is one row per malformed commit:
// each must be reported and leave every piece of Committer state — model,
// version, counts, cursors, totals — exactly as it was.
func TestCommitterRejectsWithoutStateChange(t *testing.T) {
	weight := 1.0
	k := flcore.NewCommitter(flcore.CommitterConfig{
		Alpha: 0.5, StalenessExp: 1, ClientsPerRound: 1, Seed: 1,
		TierWeight: func(int, []int) float64 { return weight },
	}, [][]int{{0}, {1}}, []float64{1, 2, 3})
	good := flcore.Commit{Tier: 1, PulledVersion: 0, Weights: []float64{3, 2, 1}, UplinkBytes: 5}
	if _, _, err := k.Apply(good); err != nil {
		t.Fatal(err)
	}
	before, err := k.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		mutate func(*flcore.Commit)
		weight float64
	}{
		"short weights":        {func(c *flcore.Commit) { c.Weights = []float64{1} }, 1},
		"long weights":         {func(c *flcore.Commit) { c.Weights = make([]float64, 4) }, 1},
		"negative tier":        {func(c *flcore.Commit) { c.Tier = -1 }, 1},
		"tier out of range":    {func(c *flcore.Commit) { c.Tier = 2 }, 1},
		"pull from the future": {func(c *flcore.Commit) { c.PulledVersion = 2 }, 1},
		"negative pull":        {func(c *flcore.Commit) { c.PulledVersion = -1 }, 1},
		"negative TierWeight":  {func(*flcore.Commit) {}, -0.5},
		"NaN TierWeight":       {func(*flcore.Commit) {}, math.NaN()},
	} {
		bad := good
		c.mutate(&bad)
		weight = c.weight
		if _, _, err := k.Apply(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
		after, err := k.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after, before) {
			t.Errorf("%s: state changed: %+v → %+v", name, before, after)
		}
	}
	weight = 1
	if _, _, err := k.Apply(good); err != nil {
		t.Fatalf("valid commit rejected after the failed ones: %v", err)
	}
}

// TestCommitterManagerFeedAndMoves checks the live-tiering half: every
// observation of an applied commit reaches the Manager before it is asked
// about a rebuild, a rebuild's moves surface to the caller with the
// membership already swapped, and cohorts are drawn through the Manager.
func TestCommitterManagerFeedAndMoves(t *testing.T) {
	mgr := &scriptedManager{tiers: [][]int{{0, 1}, {2}}, retierAt: 2}
	k := flcore.NewCommitter(flcore.CommitterConfig{
		Alpha: 1, StalenessExp: 1, ClientsPerRound: 2, Manager: mgr,
	}, mgr.Tiers(), []float64{0})
	k.Pull(0)
	k.Pull(1)
	obs := []flcore.Observation{{Client: 0, Seconds: 1.5}, {Client: 1, Seconds: 40}}
	if _, moves, err := k.Apply(flcore.Commit{Tier: 0, Weights: []float64{1}, Observed: obs}); err != nil || moves != nil {
		t.Fatalf("commit 1: moves %v, err %v", moves, err)
	}
	if !reflect.DeepEqual(mgr.observed, obs) {
		t.Fatalf("manager heard %v, want %v", mgr.observed, obs)
	}
	_, moves, err := k.Apply(flcore.Commit{Tier: 1, Weights: []float64{2}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []flcore.TierMove{{Client: 1, From: 0, To: 1}}; !reflect.DeepEqual(moves, want) {
		t.Fatalf("rebuild at version 2 surfaced %v, want %v", moves, want)
	}
	if want := [][]int{{0}, {1, 2}}; !reflect.DeepEqual(k.Tiers(), want) {
		t.Fatalf("membership %v after the rebuild, want %v", k.Tiers(), want)
	}
	if tot := k.Totals(); tot.Retiers != 1 || tot.Migrations != 1 {
		t.Fatalf("totals %+v, want 1 retier / 1 migration", tot)
	}
	if p := k.Pull(1); !reflect.DeepEqual(p.Cohort, []int{1, 2}) {
		t.Fatalf("post-rebuild cohort %v, want the Manager's new tier 1", p.Cohort)
	}
	if want := [][2]int{{0, 0}, {1, 0}, {1, 1}}; !reflect.DeepEqual(mgr.cohorts, want) {
		t.Fatalf("Cohort calls %v, want %v", mgr.cohorts, want)
	}
}

// TestCommitterSnapshotRestore round-trips the shared checkpoint fields
// through both restore flavours.
func TestCommitterSnapshotRestore(t *testing.T) {
	cfg := flcore.CommitterConfig{Alpha: 0.5, StalenessExp: 1, ClientsPerRound: 1, Seed: 3}
	tiers := [][]int{{0}, {1}}
	k := flcore.NewCommitter(cfg, tiers, []float64{0, 0})
	k.Pull(0)
	k.Pull(1)
	if _, _, err := k.Apply(flcore.Commit{Tier: 1, Weights: []float64{2, 4}, UplinkBytes: 9, DownlinkBytes: 90}); err != nil {
		t.Fatal(err)
	}
	k.Pull(1)
	snap, err := k.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Validate(3, 2, 2); err != nil {
		t.Fatalf("a Committer's own snapshot fails validation: %v", err)
	}
	if !reflect.DeepEqual(snap.Rounds, []int{1, 2}) || !reflect.DeepEqual(snap.Commits, []int{0, 1}) {
		t.Fatalf("cursors %v commits %v, want [1 2] [0 1]", snap.Rounds, snap.Commits)
	}

	exact := flcore.NewCommitter(cfg, tiers, []float64{0, 0})
	if err := exact.Restore(snap, false); err != nil {
		t.Fatal(err)
	}
	if again, _ := exact.Snapshot(); !reflect.DeepEqual(again, snap) {
		t.Fatalf("exact restore: %+v, want %+v", again, snap)
	}
	if p := exact.Pull(1); p.Version != 1 || p.Round != 2 {
		t.Fatalf("restored tier 1 pulls %+v, want version 1 round 2", p)
	}

	fresh := flcore.NewCommitter(cfg, [][]int{{0}, {1}, {2}}, []float64{0, 0})
	if err := fresh.Restore(snap, true); err != nil {
		t.Fatal(err)
	}
	again, _ := fresh.Snapshot()
	if again.Version != 1 || !reflect.DeepEqual(again.Weights, snap.Weights) || again.UplinkBytes != 9 || again.DownlinkBytes != 90 {
		t.Fatalf("model-only restore lost the model or totals: %+v", again)
	}
	if !reflect.DeepEqual(again.Rounds, []int{0, 0, 0}) || !reflect.DeepEqual(again.Commits, []int{0, 0, 0}) || len(again.Tiers) != 3 {
		t.Fatalf("model-only restore touched the cursors: %+v", again)
	}
	if err := fresh.Restore(snap, false); err == nil {
		t.Fatal("exact restore accepted a checkpoint with a different tier count")
	}
}
