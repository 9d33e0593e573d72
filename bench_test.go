package tifl

// One testing.B benchmark per table and figure of the paper (see
// docs/ARCHITECTURE.md; `tifl-bench -list` prints the experiment index),
// plus the ablation benches and microbenchmarks of the hot substrate paths. Each figure bench executes
// the full experiment pipeline — population build, profiling, tiering, and
// every policy's training run — at a reduced scale; run cmd/tifl-bench
// with -full for paper-scale numbers.

import (
	"encoding/gob"
	"io"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/flcore"
	"repro/internal/flnet"
	"repro/internal/nn"
	"repro/internal/simres"
	"repro/internal/tensor"
)

// benchScale keeps each figure bench in the hundreds-of-milliseconds range.
func benchScale() experiments.Scale {
	s := experiments.SmallScale()
	s.Rounds = 20
	s.LEAFRounds = 20
	s.TrainSize = 2500
	s.TestSize = 500
	s.EvalEvery = 5
	return s
}

func BenchmarkFig1aHeterogeneityStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig1a(benchScale())
	}
}

func BenchmarkFig1bNonIIDStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig1b(benchScale())
	}
}

func BenchmarkTable2EstimationModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunTable2(benchScale())
	}
}

func BenchmarkFig3Cifar10Policies(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig3(benchScale())
	}
}

func BenchmarkFig4NonIIDPolicies(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig4(benchScale())
	}
}

func BenchmarkFig5MNISTFMNIST(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig5(benchScale())
	}
}

func BenchmarkFig6CombinedHeterogeneity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig6(benchScale())
	}
}

func BenchmarkFig7Adaptive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig7(benchScale())
	}
}

func BenchmarkFig8AdaptiveNonIID(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig8(benchScale())
	}
}

func BenchmarkFig9LEAF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig9(benchScale())
	}
}

func BenchmarkExtensionBaselines(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunExtensionBaselines(benchScale())
	}
}

func BenchmarkExtensionDrift(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunExtensionDrift(benchScale())
	}
}

func BenchmarkExtensionTieredAsync(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunExtensionTieredAsync(benchScale())
	}
}

func BenchmarkExtensionLiveRetier(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunExtensionLiveRetier(benchScale())
	}
}

func BenchmarkExtensionDownlink(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunExtensionDownlink(benchScale())
	}
}

// BenchmarkExtMillion runs the population-scale event-driven engine at a
// CI-smoke population (10k registered clients) and reports the scale
// metrics the BENCH artifact tracks: commit throughput against wall clock
// and uplink bytes per committed client update.
func BenchmarkExtMillion(b *testing.B) {
	b.ReportAllocs()
	s := experiments.SmallScale()
	s.Population = 10_000
	var last experiments.MillionOutcome
	for i := 0; i < b.N; i++ {
		last = experiments.MillionRun(s)
	}
	b.ReportMetric(last.RoundsPerSec, "rounds/sec")
	b.ReportMetric(last.BytesPerClientUpdate, "bytes/client")
	b.ReportMetric(float64(last.PeakHeapBytes)/(1<<20), "peakheapMB")
}

func BenchmarkExtensionStaleness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunExtensionStaleness(benchScale())
	}
}

func BenchmarkAblationTieringStrategy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunAblationTiering(benchScale())
	}
}

func BenchmarkAblationTierCount(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunAblationTierCount(benchScale())
	}
}

func BenchmarkAblationCredits(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunAblationCredits(benchScale())
	}
}

func BenchmarkAblationChangeProbs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunAblationTemperature(benchScale())
	}
}

func BenchmarkAblationCNNSubstrate(b *testing.B) {
	b.ReportAllocs()
	s := benchScale()
	s.Rounds = 10 // conv rounds are ~20x costlier than MLP rounds
	for i := 0; i < b.N; i++ {
		experiments.RunAblationCNN(s)
	}
}

// --- Microbenchmarks of the hot substrate paths. ---

func BenchmarkMatMul128(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandNormal(rng, 0, 1, 128, 128)
	y := tensor.RandNormal(rng, 0, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

func BenchmarkFedAvg50Clients(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(2))
	ups := make([]flcore.Update, 50)
	for i := range ups {
		w := make([]float64, 2000)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		ups[i] = flcore.Update{Weights: w, NumSamples: 1 + i}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flcore.FedAvg(ups)
	}
}

func BenchmarkLocalClientTraining(b *testing.B) {
	b.ReportAllocs()
	train := dataset.Generate(dataset.CIFAR10Like, 400, 1)
	rng := rand.New(rand.NewSource(3))
	model := nn.NewMLP(rng, train.Dim(), []int{32}, 10, 0)
	opt := nn.NewRMSprop(0.01, 0.995)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		train.Batches(10, rng, func(x *tensor.Tensor, y []int) {
			model.TrainBatch(x, y, opt)
		})
	}
}

func BenchmarkProfiling50Clients(b *testing.B) {
	b.ReportAllocs()
	train := dataset.Generate(dataset.CIFAR10Like, 2500, 1)
	parts := dataset.PartitionIID(train.Len(), 50, rand.New(rand.NewSource(1)))
	cpus := simres.AssignGroups(50, simres.GroupsCIFAR)
	clients := flcore.BuildClients(train, nil, parts, cpus, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof := core.Profile(clients, simres.DefaultModel, core.DefaultProfiler)
		core.BuildTiers(prof.Latency, 5, core.Quantile)
	}
}

func BenchmarkAdaptiveSelection(b *testing.B) {
	b.ReportAllocs()
	train := dataset.Generate(dataset.CIFAR10Like, 2500, 1)
	test := dataset.Generate(dataset.CIFAR10Like, 500, 2)
	parts := dataset.PartitionIID(train.Len(), 50, rand.New(rand.NewSource(1)))
	cpus := simres.AssignGroups(50, simres.GroupsCIFAR)
	clients := flcore.BuildClients(train, test, parts, cpus, 40, 1)
	prof := core.Profile(clients, simres.DefaultModel, core.DefaultProfiler)
	tiers := core.BuildTiers(prof.Latency, 5, core.Quantile)
	sel := core.NewAdaptiveSelector(tiers, clients, core.AdaptiveConfig{ClientsPerRound: 5, Interval: 10, TestPerTier: 100})
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel.Select(i, rng)
	}
}

func BenchmarkTieredAsync50Clients(b *testing.B) {
	b.ReportAllocs()
	train := dataset.Generate(dataset.CIFAR10Like, 2500, 1)
	test := dataset.Generate(dataset.CIFAR10Like, 500, 2)
	parts := dataset.PartitionIID(train.Len(), 50, rand.New(rand.NewSource(1)))
	cpus := simres.AssignGroups(50, simres.GroupsCIFAR)
	clients := flcore.BuildClients(train, test, parts, cpus, 40, 1)
	prof := core.Profile(clients, simres.DefaultModel, core.DefaultProfiler)
	tiers := core.TierMembers(core.BuildTiers(prof.Latency, 5, core.Quantile))
	cfg := flcore.TieredAsyncConfig{
		Duration: 60, ClientsPerRound: 5, EvalInterval: 30,
		Seed: 2, BatchSize: 10, LocalEpochs: 1,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, train.Dim(), []int{32}, 10, 0)
		},
		Optimizer:  func(round int) nn.Optimizer { return nn.NewRMSprop(0.01, 0.995) },
		Latency:    simres.DefaultModel,
		TierWeight: core.FedATWeights(),
		EvalBatch:  256,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flcore.RunTieredAsync(cfg, tiers, clients, test)
	}
}

func BenchmarkGlobalEvaluation(b *testing.B) {
	b.ReportAllocs()
	test := dataset.Generate(dataset.CIFAR10Like, 1000, 1)
	model := nn.NewMLP(rand.New(rand.NewSource(1)), test.Dim(), []int{32}, 10, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Evaluate(test.X, test.Y, 256)
	}
}

// BenchmarkAggregation measures the chunk-parallel sharded FedAvg reduction
// at realistic scale: 20 clients aggregating a 100k-parameter model.
func BenchmarkAggregation(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(5))
	ups := make([]flcore.Update, 20)
	for i := range ups {
		w := make([]float64, 100_000)
		for j := range w {
			w[j] = rng.NormFloat64()
		}
		ups[i] = flcore.Update{Weights: w, NumSamples: 1 + i}
	}
	dst := make([]float64, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flcore.FedAvgInto(dst, ups)
	}
}

// BenchmarkWireEncode times one 100k-parameter broadcast through the wire
// encoding: the nn.EncodeWeights blob (Train.Raw) inside the gob envelope.
// The sub-benchmark keeps the name the committed BENCH_*.json rows use; the
// maintained end-to-end number is flnet.roundtrip_dense_mb_s in benchmark/.
func BenchmarkWireEncode(b *testing.B) {
	w := make([]float64, 100_000)
	rng := rand.New(rand.NewSource(6))
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	b.Run("fast-raw", func(b *testing.B) {
		b.ReportAllocs()
		enc := gob.NewEncoder(io.Discard)
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(&flnet.Envelope{Type: flnet.MsgTrain, Train: &flnet.Train{Round: i, Raw: nn.EncodeWeights(w)}}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
