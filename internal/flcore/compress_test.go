package flcore

import (
	"math"
	"testing"

	"repro/internal/compress"
)

// commTestConfig is testConfig with a size-dependent communication term, so
// compressed and dense runs pay different simulated wall clock.
func commTestConfig(rounds int, codec compress.Codec) Config {
	cfg := testConfig(rounds)
	cfg.Latency.CommPerParam = 1e-4
	cfg.Codec = codec
	return cfg
}

func TestCompressedRunTracksDense(t *testing.T) {
	clients, test := testPopulation(t, 10)
	dense := NewEngine(commTestConfig(8, nil), clients, test).
		Run(&RandomSelector{NumClients: 10, ClientsPerRound: 3})

	for _, codec := range []compress.Codec{compress.NewInt8(0), compress.NewTopK(0.1)} {
		cl, ts := testPopulation(t, 10)
		res := NewEngine(commTestConfig(8, codec), cl, ts).
			Run(&RandomSelector{NumClients: 10, ClientsPerRound: 3})
		if math.IsNaN(res.FinalAcc) || res.FinalAcc < dense.FinalAcc-0.1 {
			t.Errorf("%s: final acc %v vs dense %v", codec.Name(), res.FinalAcc, dense.FinalAcc)
		}
		if res.UplinkBytes >= dense.UplinkBytes {
			t.Errorf("%s: uplink %d not below dense %d", codec.Name(), res.UplinkBytes, dense.UplinkBytes)
		}
		if res.TotalTime >= dense.TotalTime {
			t.Errorf("%s: wall clock %v not below dense %v (comm term must shrink)", codec.Name(), res.TotalTime, dense.TotalTime)
		}
	}
}

func TestDenseRunCountsDenseBytes(t *testing.T) {
	clients, test := testPopulation(t, 10)
	cfg := commTestConfig(2, nil)
	res := NewEngine(cfg, clients, test).Run(&RandomSelector{NumClients: 10, ClientsPerRound: 3})
	params := len(res.Weights)
	want := int64(2 * 3 * compress.DenseBytes(params))
	if res.UplinkBytes != want {
		t.Fatalf("dense uplink = %d, want %d (2 rounds x 3 clients x dense size)", res.UplinkBytes, want)
	}
	for _, rec := range res.History {
		if rec.UplinkBytes != int64(3*compress.DenseBytes(params)) {
			t.Fatalf("round %d uplink = %d", rec.Round, rec.UplinkBytes)
		}
	}
}

func TestCompressedRunDeterministicParallel(t *testing.T) {
	// Compression must not break the parallel == sequential guarantee:
	// error-feedback state is per-client and each client trains once per
	// round.
	codec := compress.NewTopK(0.05)
	run := func(parallel bool) *Result {
		clients, test := testPopulation(t, 10)
		cfg := commTestConfig(6, codec)
		cfg.Parallel = parallel
		return NewEngine(cfg, clients, test).Run(&RandomSelector{NumClients: 10, ClientsPerRound: 4})
	}
	a, b := run(false), run(true)
	if len(a.Weights) != len(b.Weights) {
		t.Fatal("weight lengths differ")
	}
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			t.Fatalf("parallel diverged from sequential at weight %d", i)
		}
	}
	if a.UplinkBytes != b.UplinkBytes {
		t.Fatalf("uplink bytes differ: %d vs %d", a.UplinkBytes, b.UplinkBytes)
	}
}

func TestTieredAsyncCompressed(t *testing.T) {
	clients, test := testPopulation(t, 10)
	tiers := [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}
	mk := func(codec compress.Codec) TieredAsyncConfig {
		base := commTestConfig(1, codec)
		return TieredAsyncConfig{
			CommitterConfig: CommitterConfig{ClientsPerRound: 2, Seed: base.Seed},
			Duration:        120,
			Model:           base.Model, Optimizer: base.Optimizer, Latency: base.Latency,
			Codec: codec,
		}
	}
	dense := RunTieredAsync(mk(nil), tiers, clients, test)
	cl2, ts2 := testPopulation(t, 10)
	comp := RunTieredAsync(mk(compress.NewTopK(0.1)), tiers, cl2, ts2)
	if comp.UplinkBytes <= 0 || dense.UplinkBytes <= 0 {
		t.Fatalf("uplink bytes not tracked: dense %d, compressed %d", dense.UplinkBytes, comp.UplinkBytes)
	}
	// Per commit, the compressed run must move ~10x fewer bytes.
	densePer := float64(dense.UplinkBytes) / float64(len(dense.TierRounds))
	compPer := float64(comp.UplinkBytes) / float64(len(comp.TierRounds))
	if compPer >= densePer/5 {
		t.Fatalf("bytes per commit: compressed %v vs dense %v (want >=5x reduction)", compPer, densePer)
	}
	if math.IsNaN(comp.FinalAcc) {
		t.Fatal("compressed tiered-async produced NaN accuracy")
	}
	var sum int64
	for _, rec := range comp.TierRounds {
		sum += rec.UplinkBytes
	}
	if sum != comp.UplinkBytes {
		t.Fatalf("commit log bytes %d != total %d", sum, comp.UplinkBytes)
	}
}

// A compressed client round encodes into its scratch's payload buffer: once
// warm, the int8 path allocates exactly what the dense one does per round,
// no payload and no delta vector.
func TestTrainOnCodecPathAllocatesNoPayload(t *testing.T) {
	perRound := func(codec compress.Codec) float64 {
		clients, test := testPopulation(t, 5)
		e := NewEngine(commTestConfig(1, codec), clients, test)
		s := e.getScratch()
		round := func() { e.trainOn(s, 1, clients[0], e.weights, -1, nil) }
		round() // warm: the replica, the residual and the payload buffer
		return testing.AllocsPerRun(10, round)
	}
	dense, int8 := perRound(nil), perRound(compress.NewInt8(0))
	if int8 != dense {
		t.Fatalf("int8 client round allocates %v times, dense %v: the codec path allocates", int8, dense)
	}
}
