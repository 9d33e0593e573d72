package flnet

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/flcore"
)

// TestSyncMatchesSimLockstep ties the paper's synchronous engine to its
// socket twin: flcore.Engine.Run and Aggregator.Run, given the same selector
// and seed, pick the same clients every round and — the workers running the
// engine's own per-client trainer — hold a bit-identical global model after
// every round and bill the same uplink bytes, although the replies arrive in
// a different order each round (the delays rotate through the cohort).
// Dense, and int8 with the codec on the worker side: the simulation's
// clients and the workers then keep the same error-feedback residuals.
// (TestDownlinkSimSocketByteAgreement's fixture carries no worker-side
// codec; this one is TestCompressedTieredAsyncLoopback's.)
func TestSyncMatchesSimLockstep(t *testing.T) {
	const rounds, perRound = 6, 3
	for name, codec := range map[string]compress.Codec{"dense": nil, "int8": compress.NewInt8(64)} {
		t.Run(name, func(t *testing.T) {
			clients, _, _, tcfg := netFixture(t, 0)
			cfg := flcore.Config{
				Rounds: rounds, ClientsPerRound: perRound, LocalEpochs: tcfg.LocalEpochs,
				BatchSize: tcfg.BatchSize, Seed: tcfg.Seed,
				Model: tcfg.Model, Optimizer: tcfg.Optimizer, Latency: tcfg.Latency,
			}
			sel := &flcore.RandomSelector{NumClients: len(clients), ClientsPerRound: perRound}

			// The simulation, keeping the global model after every round.
			simCfg := cfg
			simCfg.Codec = codec
			var sim *flcore.Engine
			after := make([][]float64, 0, rounds)
			simCfg.OnRound = func(flcore.RoundRecord) {
				after = append(after, append([]float64(nil), sim.GlobalWeights()...))
			}
			sim = flcore.NewEngine(simCfg, clients, nil)
			want := sim.Run(sel)

			// The sockets: the codec moves to the workers, whose trainer is
			// the codec-less engine. What a round's workers are sent is the
			// model after the round before it.
			eng := flcore.NewEngine(cfg, clients, nil)
			init := cfg.Model(rand.New(rand.NewSource(cfg.Seed))).WeightsVector()
			agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
				Rounds: rounds, ClientsPerRound: perRound, InitialWeights: init, Seed: cfg.Seed,
				RoundTimeout: 20 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			var mu sync.Mutex
			sent := make([][]float64, rounds)
			asked := make([][]int, rounds)
			cfgs := make([]WorkerConfig, len(clients))
			for id := range clients {
				cfgs[id] = WorkerConfig{
					ClientID: id, NumSamples: clients[id].NumSamples(), Codec: codec,
					Train: func(round int, weights []float64) ([]float64, int, error) {
						mu.Lock()
						if sent[round] == nil {
							sent[round] = append([]float64(nil), weights...)
						}
						asked[round] = append(asked[round], id)
						mu.Unlock()
						time.Sleep(time.Duration((id+round)%perRound) * 3 * time.Millisecond)
						u := eng.TrainClient(round, id, weights)
						return u.Weights, u.NumSamples, nil
					},
				}
			}
			wait := startWorkers(t, agg.Addr(), cfgs)
			if err := agg.WaitForWorkers(len(clients), 10*time.Second); err != nil {
				t.Fatal(err)
			}
			got, err := agg.Run(sel)
			if err != nil {
				t.Fatal(err)
			}
			wait()

			same := func(what string, got, want []float64) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d weights over sockets, %d simulated", what, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: weight %d is %x over sockets, %x simulated", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
			same("initial model", sent[0], init)
			for r := 0; r < rounds; r++ {
				rs, rec := got.Rounds[r], want.History[r]
				picked := append([]int(nil), rec.Selected...)
				sort.Ints(picked)
				sort.Ints(asked[r])
				if !reflect.DeepEqual(asked[r], picked) {
					t.Fatalf("round %d: sockets trained %v, simulation %v", r, asked[r], picked)
				}
				if rs.Used != perRound || rs.UplinkBytes != rec.UplinkBytes {
					t.Fatalf("round %d: sockets %+v, simulation billed %d uplink bytes", r, rs, rec.UplinkBytes)
				}
				if r+1 < rounds {
					same(fmt.Sprintf("model after round %d", r), sent[r+1], after[r])
				}
			}
			same("final model", got.Weights, want.Weights)
			if got.UplinkBytes != want.UplinkBytes {
				t.Fatalf("uplink: %d bytes over sockets, %d simulated", got.UplinkBytes, want.UplinkBytes)
			}
		})
	}
}
