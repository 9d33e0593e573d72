package flcore

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/simres"
)

// Under Cfg.Parallel, Run scores round r's global test set on a replica
// while round r+1 trains, and records round r only after joining it. These
// tests pin what callers can still rely on: one OnRound per round, in
// order, with GlobalWeights holding that round's model; the same bits as a
// sequential run; and an evaluation's panic raised from Run itself.

// overlapCNN is a 3-round paper-CNN job whose training batches, and whole-
// set evaluations, are big enough for the sharded tensor and nn passes.
func overlapCNN(parallel bool) (Config, []*Client, *dataset.Dataset) {
	const side = 12
	train := dataset.GenerateImages("overlap", 10, 1, side, side, 60, 0.5, 1)
	test := dataset.GenerateImages("overlap", 10, 1, side, side, 60, 0.5, 2)
	parts := dataset.PartitionIID(train.Len(), 6, rand.New(rand.NewSource(3)))
	clients := BuildClients(train, test, parts, simres.AssignGroups(6, []float64{4, 2, 1}), 10, 4)
	cfg := Config{
		Rounds: 3, ClientsPerRound: 3, LocalEpochs: 1, BatchSize: 10, Seed: 7,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewPaperMNISTCNN(rng, side, side, 1, 10)
		},
		Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.003, 0.995) },
		Latency:   simres.DefaultModel,
		EvalEvery: 1,
		Parallel:  parallel,
	}
	return cfg, clients, test
}

func TestRunEvalOverlapContract(t *testing.T) {
	// run returns the result and a copy of GlobalWeights at each OnRound,
	// failing unless OnRound saw rounds 0, 1, 2 in order.
	run := func(t *testing.T, parallel bool, procs int) (*Result, [][]float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg, clients, test := overlapCNN(parallel)
		var e *Engine
		var seen [][]float64
		cfg.OnRound = func(rec RoundRecord) {
			if rec.Round != len(seen) {
				t.Fatalf("OnRound got round %d after %d records", rec.Round, len(seen))
			}
			seen = append(seen, append([]float64(nil), e.GlobalWeights()...))
		}
		e = NewEngine(cfg, clients, test)
		res := e.Run(&RandomSelector{NumClients: len(clients), ClientsPerRound: cfg.ClientsPerRound})
		if len(seen) != cfg.Rounds {
			t.Fatalf("OnRound fired %d times in %d rounds", len(seen), cfg.Rounds)
		}
		return res, seen
	}
	want, wantSeen := run(t, false, 1)
	for r, rec := range want.History {
		if math.IsNaN(rec.Acc) {
			t.Fatalf("round %d not evaluated", r)
		}
	}
	if !sameFloatBits(wantSeen[len(wantSeen)-1], want.Weights) {
		t.Fatal("last OnRound's GlobalWeights differ from the result's weights")
	}
	for _, procs := range []int{1, 2, 4} {
		for _, parallel := range []bool{false, true} {
			if procs == 1 && !parallel {
				continue // the reference itself
			}
			t.Run(fmt.Sprintf("procs%d/parallel=%v", procs, parallel), func(t *testing.T) {
				got, seen := run(t, parallel, procs)
				if g, w := historyBytes(got), historyBytes(want); g != w {
					t.Fatalf("history and weights differ from the sequential run:\n%s\nwant\n%s", g[:min(len(g), 400)], w[:min(len(w), 400)])
				}
				for r := range seen {
					if !sameFloatBits(seen[r], wantSeen[r]) {
						t.Fatalf("GlobalWeights inside OnRound(%d) are not round %d's model", r, r)
					}
				}
			})
		}
	}
}

// A GlobalTest label outside the model's classes makes the evaluation
// panic on its goroutine; Run must raise it on the caller's.
func TestRunEvalPanicReachesCaller(t *testing.T) {
	cfg, clients, test := overlapCNN(true)
	cfg.Rounds = 2
	bad := *test
	bad.Y = append([]int(nil), test.Y...)
	bad.Y[len(bad.Y)-1] = 99
	e := NewEngine(cfg, clients, &bad)
	defer func() {
		p := recover()
		if p == nil || !strings.Contains(fmt.Sprint(p), "label 99") {
			t.Fatalf("Run recovered %v, want the evaluation's label panic", p)
		}
	}()
	e.Run(&RandomSelector{NumClients: len(clients), ClientsPerRound: cfg.ClientsPerRound})
}

func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
