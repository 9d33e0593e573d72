package flnet

import (
	"testing"
	"time"
)

// scriptCommitOrder makes agg apply tier commits in exactly the scheduled
// order: entry i names the tier whose commit becomes global version i+1,
// and commits arriving ahead of their turn wait in the committer's queue.
// This is the parity tests' one hook into the run path — the commit-order
// seam of drive — and removes the wall-clock race from the commit order so
// a socket run can be byte-compared against the simulation, or a tree run
// against a flat one. Everything else (pull after commit, cohort drawn by
// the Committer, accept loop, redraws) is the production path.
func scriptCommitOrder(agg *TieredAsyncAggregator, schedule []int) {
	agg.commitOrder = func(applied int) int { return schedule[applied] }
}

// stubFleet registers one echo worker per ID with agg and returns the wait
// function for their clean exit.
func stubFleet(t *testing.T, agg *TieredAsyncAggregator, ids ...int) func() {
	t.Helper()
	var cfgs []WorkerConfig
	for _, id := range ids {
		cfgs = append(cfgs, WorkerConfig{ClientID: id, NumSamples: 1, Train: echoTrain(1, 1, 0)})
	}
	wait := startWorkers(t, agg.Addr(), cfgs)
	if err := agg.WaitForWorkers(len(ids), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return wait
}

// TestTieredAsyncNetSingleTierNeverStale pins the pull discipline of the
// flat runtime in its default (arrival-order) mode: a tier's next round is
// pulled by the committer after the tier's own commit was applied, so a
// fleet with a single tier — where no other tier can commit in between —
// must report zero staleness on every commit. When the tier loop pulled
// for itself right after handing its commit over, it beat the committer to
// the global model on almost every round and trained from a model lacking
// its own previous commit.
func TestTieredAsyncNetSingleTierNeverStale(t *testing.T) {
	const commits = 300
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
		GlobalCommits: commits, ClientsPerRound: 2,
		RoundTimeout: 10 * time.Second, InitialWeights: make([]float64, 100), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	wait := stubFleet(t, agg, 0, 1)
	res, err := agg.Run([][]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	if len(res.Log) != commits {
		t.Fatalf("applied %d commits, want %d", len(res.Log), commits)
	}
	stale := 0
	for _, rec := range res.Log {
		if rec.Staleness != 0 {
			stale++
		}
	}
	if stale > 0 {
		t.Fatalf("%d of %d single-tier commits report staleness > 0; a tier must pull after its own commit", stale, commits)
	}
}

// TestTieredAsyncNetStalenessIsCommitsSinceOwnPull states the same
// discipline for a multi-tier arrival-order run, whatever the interleaving:
// the pull of a tier's round k is taken at the version its round k−1
// produced, so over each tier's own consecutive commits
//
//	Staleness_k == Version_k − 1 − Version_{k−1}
//
// (with Version_{−1} = 0, the initial pull). No sleeps, no scheduler
// assumptions: the identity holds for every arrival order.
func TestTieredAsyncNetStalenessIsCommitsSinceOwnPull(t *testing.T) {
	const commits = 300
	tiers := [][]int{{0, 1}, {2, 3}, {4}}
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", TieredAsyncConfig{
		GlobalCommits: commits, ClientsPerRound: 2,
		RoundTimeout: 10 * time.Second, InitialWeights: make([]float64, 100), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	wait := stubFleet(t, agg, 0, 1, 2, 3, 4)
	res, err := agg.Run(tiers)
	if err != nil {
		t.Fatal(err)
	}
	wait()
	if len(res.Log) != commits {
		t.Fatalf("applied %d commits, want %d", len(res.Log), commits)
	}
	last := make([]int, len(tiers)) // version each tier's previous commit produced
	rounds := make([]int, len(tiers))
	for i, rec := range res.Log {
		if rec.Version != i+1 {
			t.Fatalf("commit %d carries version %d", i, rec.Version)
		}
		if rec.TierRound != rounds[rec.Tier] {
			t.Fatalf("commit %d: tier %d committed round %d, want %d (healthy fleet: no redraws)", i, rec.Tier, rec.TierRound, rounds[rec.Tier])
		}
		if want := rec.Version - 1 - last[rec.Tier]; rec.Staleness != want {
			t.Fatalf("commit %d (tier %d round %d, version %d): staleness %d, want %d — the round was not pulled at the version %d its predecessor produced",
				i, rec.Tier, rec.TierRound, rec.Version, rec.Staleness, want, last[rec.Tier])
		}
		last[rec.Tier] = rec.Version
		rounds[rec.Tier]++
	}
}
