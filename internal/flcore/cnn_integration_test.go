package flcore

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/simres"
)

// TestCNNFederatedTraining runs the paper's convolutional architecture
// end-to-end inside the FL engine on image-shaped synthetic data — the
// substrate ablation's core claim: nothing in the engine assumes flat
// features.
func TestCNNFederatedTraining(t *testing.T) {
	const h, w = 12, 12
	train := dataset.GenerateImages("flcore-cnn", 4, 1, h, w, 400, 0.5, 1)
	test := dataset.GenerateImages("flcore-cnn", 4, 1, h, w, 120, 0.5, 2)
	rng := rand.New(rand.NewSource(3))
	parts := dataset.PartitionIID(train.Len(), 10, rng)
	cpus := simres.AssignGroups(10, []float64{4, 2, 1, 0.5, 0.1})
	clients := BuildClients(train, test, parts, cpus, 30, 4)
	for _, c := range clients {
		if len(c.Train.SampleShape) != 3 {
			t.Fatalf("client %d lost sample shape", c.ID)
		}
	}

	cfg := Config{
		Rounds: 12, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 10, Seed: 5,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewModel(
				nn.NewConv2D(rng, 1, 8, 3, 3, 1, 0),
				nn.NewReLU(),
				nn.NewMaxPool(2, 2),
				nn.NewFlatten(),
				nn.NewDense(rng, 8*5*5, 4),
			)
		},
		Optimizer: func(round int) nn.Optimizer { return nn.NewSGD(0.05, 0.9) },
		Latency:   simres.DefaultModel,
		EvalEvery: 4,
		Parallel:  true,
	}
	res := NewEngine(cfg, clients, test).Run(&RandomSelector{NumClients: 10, ClientsPerRound: 4})
	if res.FinalAcc < 0.5 {
		t.Fatalf("CNN federated accuracy %v, want ≥0.5 (chance 0.25)", res.FinalAcc)
	}
	first := res.History[0].Acc
	if res.FinalAcc <= first {
		t.Fatalf("no learning: %v → %v", first, res.FinalAcc)
	}
}

// BenchmarkPaperCNNClientRound times Engine.TrainClient on the paper CNN at
// the sim_sync_cnn workload's shapes: 14×14 images, a 20-sample client,
// batch 10, RMSprop, so one op is two training batches plus the pass's
// fresh update vector. Run it at -cpu 1,2 to see what the sharded passes
// buy one client round.
func BenchmarkPaperCNNClientRound(b *testing.B) {
	data := dataset.GenerateImages("bench-cnn", 10, 1, 14, 14, 20, 1.0, 1)
	e := NewEngine(Config{
		Rounds: 1, ClientsPerRound: 1, LocalEpochs: 1, BatchSize: 10, Seed: 1,
		Model:     func(rng *rand.Rand) *nn.Model { return nn.NewPaperMNISTCNN(rng, 14, 14, 1, 10) },
		Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.003, 0.995) },
		Latency:   simres.DefaultModel,
	}, []*Client{{ID: 0, Train: data, CPU: 1}}, nil)
	w := e.GlobalWeights()
	e.TrainClient(0, 0, w) // warm: replica, workspace
	b.ResetTimer()
	for i := range b.N {
		e.TrainClient(i+1, 0, w)
	}
}
