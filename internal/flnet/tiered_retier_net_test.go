package flnet

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tiering"
)

// TestTieredAsyncLockstepStallErrors pins the lockstep failure contract: a
// scheduled tier that can no longer deliver (its only worker keeps dying)
// must fail the run with a stall error promptly — even while other tiers
// sit blocked on their ack channels — rather than hang forever.
func TestTieredAsyncLockstepStallErrors(t *testing.T) {
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(4, 1, 2, 500*time.Millisecond, []float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	scriptCommitOrder(agg, []int{0, 1, 0, 1})
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 1, NumSamples: 1, Train: failTrain()})        //nolint:errcheck
	if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := agg.Run([][]int{{0}, {1}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled lockstep schedule reported success")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("lockstep run hung instead of reporting the stalled tier")
	}
}

// TestTieredAsyncNetWorkerDeathDuringReassign kills a worker in the same
// window its live re-tiering migration happens: the run must keep
// committing with the survivors and still reach the full commit target.
func TestTieredAsyncNetWorkerDeathDuringReassign(t *testing.T) {
	lat := map[int]float64{0: 1, 1: 1.1, 2: 10, 3: 11}
	mgr, err := tiering.NewManager(tiering.Config{
		NumTiers: 2, RetierEvery: 3, ClientsPerRound: 2, Seed: 9,
	}, lat)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tieredConfig(20, 2, 9, 2*time.Second, []float64{0, 0})
	cfg.Manager = mgr
	agg, err := NewTieredAsyncAggregator("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()

	// Worker 1 reports 40 s rounds, so the rebuild at version 3 migrates
	// it into the slow tier — and its training dies from round 4 on,
	// landing the death right at the reassignment window.
	//
	// The slow tier {2,3} is held (see trainGate) until worker 0 is asked for
	// round 1, i.e. until the fast tier's round 0 — and with it worker 1's
	// 40 s observation — has committed, ahead of the rebuild at version 3.
	reported := []float64{1, 40, 10, 11}
	var sawReassign atomic.Int32
	gate := newTrainGate()
	for id := 0; id < 4; id++ {
		id := id
		echo := echoTrain(1, 1, 0)
		train := gate.hold(echo)
		switch id {
		case 0:
			train = gate.openFrom(1, echo)
		case 1:
			train = func(round int, weights []float64) ([]float64, int, error) {
				if round >= 4 {
					return nil, 0, fmt.Errorf("synthetic death during reassign")
				}
				return echo(round, weights)
			}
		}
		go RunWorker(agg.Addr(), WorkerConfig{ //nolint:errcheck
			ClientID: id, NumSamples: 1, Train: train,
			ReportSeconds:  func(round int) float64 { return reported[id] },
			OnTierReassign: func(from, to, numTiers int) { sawReassign.Add(1) },
		})
	}
	if err := agg.WaitForWorkers(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Commits {
		total += c
	}
	if total != 20 {
		t.Fatalf("commits %v sum to %d, want 20", res.Commits, total)
	}
	if res.Retiers < 1 {
		t.Fatalf("drifting worker never re-tiered: %+v", res)
	}
	if tier, ok := mgr.TierOf(1); !ok || tier != 1 {
		t.Fatalf("drifted worker 1 in tier %d after rebuild", tier)
	}
	if sawReassign.Load() < 1 {
		t.Error("no worker observed its MsgTierReassign")
	}
}
