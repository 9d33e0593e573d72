package flcore

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/simres"
	"repro/internal/tensor"
)

// TestPaperCNNRoundLiveSet: mid-Run, after a GC, a warm paper-CNN
// synchronous engine — two trainers, the evaluation replica, a cohort of 5
// — holds at most its stated budget beyond its data, at GOMAXPROCS 1 and 2.
// In model vectors: the engine's weights, the commit's aggregate, the
// global model and the replica; one slot per cohort member, which the
// member's trainer binds its replica to; per trainer, its gradients and its
// optimizer state. In lowerings: one per conv layer for each model that
// runs a pass (each trainer and the replica). The rest of a batch-10 pass's
// activations: under two model vectors per trainer and one for the replica.
// Trainers that held their own weights, second lowerings or a ReLU's
// copies, or evaluation-only models that held gradients, would exceed it.
func TestPaperCNNRoundLiveSet(t *testing.T) {
	const side, batch, cohort, trainers = 14, 10, 5, 2
	model := func(rng *rand.Rand) *nn.Model { return nn.NewPaperMNISTCNN(rng, side, side, 1, 10) }
	train := dataset.GenerateImages("liveset", 10, 1, side, side, 10*20, 1, 1)
	test := dataset.GenerateImages("liveset", 10, 1, side, side, 100, 1, 2)
	parts := dataset.PartitionIID(train.Len(), 10, rand.New(rand.NewSource(3)))
	clients := BuildClients(train, nil, parts, simres.AssignGroups(10, []float64{4, 2, 1, 0.5, 0.25}), 0, 1)
	inUse := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(trainers))
	base := inUse()

	e := NewEngine(Config{
		Rounds: 3, ClientsPerRound: cohort, LocalEpochs: 1, BatchSize: batch, Seed: 5,
		Model:     model,
		Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.003, 0.995) },
		Latency:   simres.DefaultModel,
		EvalEvery: 1, EvalBatch: 100,
		Parallel: true,
	}, clients, test)
	sel := &RandomSelector{NumClients: 10, ClientsPerRound: cohort}
	e.Run(sel) // warm at GOMAXPROCS 2: two trainers' scratch, slots, the replica

	vec := uint64(8 * len(e.GlobalWeights()))
	var lowering uint64 // a model's conv lowerings at batch size, bytes
	h := side
	for _, l := range model(rand.New(rand.NewSource(1))).Layers {
		switch l := l.(type) {
		case *nn.Conv2D:
			h = tensor.ConvOutSize(h, l.KH, l.Stride, l.Pad)
			lowering += uint64(8 * batch * h * h * l.InC * l.KH * l.KW)
		case *nn.MaxPool:
			h = tensor.ConvOutSize(h, l.Size, l.Stride, 0)
		}
	}
	budget := (4+cohort+2*trainers)*vec + (trainers+1)*lowering + (2*trainers+1)*vec

	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var held uint64
		e.Cfg.Rounds = 4
		e.Cfg.OnRound = func(rec RoundRecord) {
			if rec.Round == 2 {
				held = inUse() - base
			}
		}
		e.Run(sel)
		t.Logf("GOMAXPROCS %d: %.1f MB held, budget %.1f MB (vector %.2f MB, lowerings %.2f MB)", procs, mb(held), mb(budget), mb(vec), mb(lowering))
		if held > budget {
			t.Errorf("GOMAXPROCS %d: a warm round holds %.1f MB beyond its data, over its budget of %.1f MB", procs, mb(held), mb(budget))
		}
	}
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }
