// Distributed FL over real TCP in one process (the Google FL architecture
// the paper prototypes): an aggregator plus 6 workers on loopback sockets,
// each training a private non-IID shard of a synthetic dataset. The
// workers are profiled over the network, tiered by the measured latencies,
// and trained by TiFL's synchronous rounds — one tier drawn per round
// (Section 4.3's static policy, uniform here) — with 130% over-selection
// discarding the slow worker's updates.
//
// A second phase runs the same population under the tiered-asynchronous
// socket protocol (flnet.TieredAsyncAggregator): workers are profiled over
// the network, split into latency tiers, and each tier commits its own
// mini-FedAvg rounds asynchronously into the global model with FedAT's
// staleness-discounted, slower-tier-favoring weights — so the slow worker
// stops gating every round instead of being discarded. Phase-2 workers
// also compress their uplink updates with top-k sparsification (negotiated
// at registration via internal/compress), cutting bytes-on-wire ~10x.
//
// The final phase rebuilds the same job as an aggregation tree: a root
// coordinator plus one child-aggregator process per tier, each running its
// own mini-FedAvg fan-in over its leaf workers and forwarding a single
// pre-reduced update per tier round — the root never talks to a leaf. The
// slow tier's workers compress their uplink; the root's metrics report the
// per-child commit counts and uplink bytes flowing up the tree.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/flnet"
	"repro/internal/nn"
	"repro/internal/tensor"
)

const (
	numWorkers = 6
	rounds     = 15
	perRound   = 3
)

func main() {
	spec := dataset.CIFAR10Like
	arch := func(rng *rand.Rand) *nn.Model {
		return nn.NewMLP(rng, spec.Dim, []int{32}, spec.NumClasses, 0)
	}
	init := arch(rand.New(rand.NewSource(1))).WeightsVector()

	agg, err := flnet.NewAggregator("127.0.0.1:0", flnet.AggregatorConfig{
		Rounds: rounds, ClientsPerRound: perRound, Overselect: 0.3,
		RoundTimeout: 30 * time.Second, InitialWeights: init, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	defer agg.Close()
	fmt.Printf("aggregator on %s; launching %d workers\n", agg.Addr(), numWorkers)

	// Workers: each holds a 2-class shard; worker 5 is artificially slow,
	// exercising the straggler-discard path (sync) and the slow tier
	// (tiered-async). launchWorkers is reused by both phases because
	// workers exit when an aggregator sends Done.
	train := dataset.Generate(spec, 3000, 2)
	parts := dataset.PartitionByClass(train, numWorkers, 2, rand.New(rand.NewSource(3)))
	launchWorkers := func(addr string, codec compress.Codec) *sync.WaitGroup {
		var wg sync.WaitGroup
		for id := 0; id < numWorkers; id++ {
			local := train.Subset(parts[id])
			delay := time.Duration(0)
			if id == numWorkers-1 {
				delay = 400 * time.Millisecond
			}
			wg.Add(1)
			go func(id int, local *dataset.Dataset, delay time.Duration) {
				defer wg.Done()
				trainFn := func(round int, weights []float64) ([]float64, int, error) {
					time.Sleep(delay)
					rng := rand.New(rand.NewSource(int64(id) + int64(round)*7919))
					model := arch(rng)
					model.SetWeightsVector(weights)
					opt := nn.NewRMSprop(0.01, 0.995)
					local.Batches(10, rng, func(x *tensor.Tensor, y []int) {
						model.TrainBatch(x, y, opt)
					})
					return model.WeightsVector(), local.Len(), nil
				}
				if err := flnet.RunWorker(addr, flnet.WorkerConfig{
					ClientID: id, NumSamples: local.Len(), Train: trainFn, Codec: codec,
					OnTierAssign: func(tier, numTiers int) {
						fmt.Printf("  worker %d assigned to tier %d of %d\n", id, tier+1, numTiers)
					},
				}); err != nil {
					fmt.Printf("worker %d: %v\n", id, err)
				}
			}(id, local, delay)
		}
		return &wg
	}
	wg := launchWorkers(agg.Addr(), nil) // phase 1: dense updates

	if err := agg.WaitForWorkers(numWorkers, 30*time.Second); err != nil {
		panic(err)
	}

	// Network profiling: the slow worker shows up immediately.
	lat, _, err := agg.ProfileWorkers(30 * time.Second)
	if err != nil {
		panic(err)
	}
	ids := make([]int, 0, len(lat))
	for id := range lat {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Printf("  profiled worker %d: %.3fs\n", id, lat[id])
	}

	// TiFL over TCP: tiers from the measured latencies (worker IDs are the
	// selector's client indices), each round drawn from one tier.
	syncTiers := core.BuildTiers(lat, 2, core.Quantile)
	uniform := core.StaticPolicy{Name: "uniform", Probs: make([]float64, len(syncTiers))}
	for i, tr := range syncTiers {
		uniform.Probs[i] = 1 / float64(len(syncTiers))
		fmt.Printf("  tier %d (mean latency %.3fs): workers %v\n", tr.ID+1, tr.MeanLatency, tr.Members)
	}
	res, err := agg.Run(core.NewStaticSelector(syncTiers, uniform, perRound))
	if err != nil {
		panic(err)
	}
	wg.Wait()

	discarded := 0
	for _, rs := range res.Rounds {
		discarded += rs.Discarded
	}
	test := dataset.Generate(spec, 1000, 9)
	model := arch(rand.New(rand.NewSource(1)))
	model.SetWeightsVector(res.Weights)
	acc, _ := model.Evaluate(test.X, test.Y, 256)
	fmt.Printf("\n%d rounds over TCP, %d straggler updates discarded, final accuracy %.4f\n",
		rounds, discarded, acc)

	// Phase 2: tiered-asynchronous over the same sockets. Instead of
	// discarding the slow worker's updates, profile-built tiers let it
	// commit at its own pace with FedAT's cross-tier weighting.
	fmt.Println("\n--- tiered-asynchronous (FedAT-style) over TCP ---")
	// One protocol spec for every tiered run below (the simulation's
	// flcore.TieredAsyncConfig embeds the same struct).
	protocol := flcore.CommitterConfig{ClientsPerRound: perRound, TierWeight: core.FedATWeights(), Seed: 1}
	wait := flnet.FanInConfig{RoundTimeout: 30 * time.Second}
	dlProtocol := protocol
	// Broadcasts travel as int8-quantized deltas against each worker's
	// last-acked version (first contact goes dense automatically).
	dlProtocol.Downlink = &compress.Downlink{Codec: compress.NewInt8(0)}
	tagg, err := flnet.NewTieredAsyncAggregator("127.0.0.1:0", flnet.TieredAsyncConfig{
		CommitterConfig: dlProtocol, FanInConfig: wait,
		GlobalCommits: 8 * rounds, InitialWeights: init,
	})
	if err != nil {
		panic(err)
	}
	defer tagg.Close()
	twg := launchWorkers(tagg.Addr(), compress.NewTopK(0.1))
	if err := tagg.WaitForWorkers(numWorkers, 30*time.Second); err != nil {
		panic(err)
	}
	tres, tiers, dropouts, err := tagg.ProfileAndRun(2, 30*time.Second)
	if err != nil {
		panic(err)
	}
	if len(dropouts) > 0 {
		fmt.Printf("profiling dropouts: %v\n", dropouts)
	}
	twg.Wait()
	for _, tr := range tiers {
		fmt.Printf("tier %d (mean latency %.3fs): workers %v → %d commits\n",
			tr.ID+1, tr.MeanLatency, tr.Members, tres.Commits[tr.ID])
	}
	model.SetWeightsVector(tres.Weights)
	tacc, _ := model.Evaluate(test.X, test.Y, 256)
	clientsUsed := 0
	for _, s := range tres.Log {
		clientsUsed += s.Clients
	}
	denseBytes := int64(clientsUsed) * int64(compress.DenseBytes(len(init)))
	fmt.Printf("%d async commits over TCP (no updates discarded), final accuracy %.4f\n",
		len(tres.Log), tacc)
	fmt.Printf("uplink %d bytes with top-k@10%% compression (dense would be %d, %.1fx more)\n",
		tres.UplinkBytes, denseBytes, float64(denseBytes)/float64(tres.UplinkBytes))
	fmt.Printf("downlink %d bytes with delta+int8 broadcast (dense would be %d, %.1fx more)\n",
		tres.DownlinkBytes, denseBytes, float64(denseBytes)/float64(tres.DownlinkBytes))

	// Phase 3: crash-safe checkpointing. The same tiered-async job snapshots
	// itself durably every few commits and serves live metrics; we kill the
	// aggregator mid-run, then a fresh process (here: a fresh aggregator)
	// loads the snapshot, the workers reconnect, and training resumes toward
	// the same absolute commit target.
	fmt.Println("\n--- crash-safe tiered-async: checkpoint, kill, resume ---")
	ckptDir, err := os.MkdirTemp("", "tifl-ckpt")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(ckptDir)
	ckptPath := filepath.Join(ckptDir, "run.ckpt")
	const ckptTarget = 6 * rounds
	ckptCfg := flnet.TieredAsyncConfig{
		CommitterConfig: protocol, FanInConfig: wait,
		GlobalCommits: ckptTarget, InitialWeights: init, CheckpointPath: ckptPath,
	}
	ckptCfg.CheckpointEvery = 5
	crashCfg := ckptCfg
	crashCfg.MetricsAddr = "127.0.0.1:0"
	var cagg *flnet.TieredAsyncAggregator
	var crashOnce sync.Once
	crashCfg.OnCheckpoint = func(c *flcore.TieredCheckpoint) {
		// Halfway through, show the live metrics endpoint and "crash".
		if c.Version < ckptTarget/2 {
			return
		}
		crashOnce.Do(func() {
			if resp, err := http.Get("http://" + cagg.MetricsAddr() + "/metrics"); err == nil {
				var m flnet.MetricsSnapshot
				json.NewDecoder(resp.Body).Decode(&m) //nolint:errcheck // example
				resp.Body.Close()
				fmt.Printf("metrics before the crash: version %d/%d, %d live workers, checkpoint age %.1fs\n",
					m.Version, m.TargetCommits, m.LiveWorkers, m.LastCheckpointAgeSeconds)
			}
			fmt.Printf("simulated crash at version %d (latest snapshot: %s)\n", c.Version, ckptPath)
			go cagg.Close() // async: Close tears down the conns this commit loop serves
		})
	}
	cagg, err = flnet.NewTieredAsyncAggregator("127.0.0.1:0", crashCfg)
	if err != nil {
		panic(err)
	}
	cwg := launchWorkers(cagg.Addr(), nil)
	if err := cagg.WaitForWorkers(numWorkers, 30*time.Second); err != nil {
		panic(err)
	}
	clat, _, err := cagg.ProfileWorkers(30 * time.Second)
	if err != nil {
		panic(err)
	}
	ctiers := core.BuildTiers(clat, 2, core.Quantile)
	if _, err := cagg.Run(core.TierMembers(ctiers)); err != nil {
		fmt.Printf("crashed run ended: %v\n", err)
	}
	cagg.Close()
	cwg.Wait() // the killed workers report their dropped connections above

	// Restart: load the newest durable snapshot (falling back to .prev if
	// the last write was torn) and continue the SAME job — same seed, same
	// absolute commit target — over reconnecting workers.
	ckpt, err := flcore.LoadTieredCheckpointFile(ckptPath)
	if err != nil {
		panic(err)
	}
	ragg, err := flnet.NewTieredAsyncAggregator("127.0.0.1:0", ckptCfg)
	if err != nil {
		panic(err)
	}
	defer ragg.Close()
	rwg := launchWorkers(ragg.Addr(), nil)
	if err := ragg.WaitForWorkers(numWorkers, 30*time.Second); err != nil {
		panic(err)
	}
	if err := ragg.Resume(ckpt); err != nil {
		panic(err) // flnet.ErrRosterChanged would mean re-profile + ResumeModel
	}
	rres, err := ragg.Run(nil) // nil: continue on the checkpointed tiers
	if err != nil {
		panic(err)
	}
	rwg.Wait()
	model.SetWeightsVector(rres.Weights)
	racc, _ := model.Evaluate(test.X, test.Y, 256)
	fmt.Printf("resumed at version %d, applied %d more commits to reach %d, final accuracy %.4f\n",
		ckpt.Version, len(rres.Log), ckptTarget, racc)

	// Phase 4: the same population as an aggregation tree. One child
	// aggregator per tier pre-reduces its workers' updates at the edge and
	// sends the root a single MsgTierCommit per tier round, so root fan-in
	// is O(tiers), not O(workers). The slow child's leaves compress their
	// uplink with top-k; the root's metrics show what each child reported.
	fmt.Println("\n--- hierarchical aggregation tree: root + per-tier child aggregators ---")
	treeTiers := [][]int{{0, 1, 2}, {3, 4, 5}} // fast half, slow half (worker 5's 400ms delay)
	root, err := flnet.NewTieredAsyncAggregator("127.0.0.1:0", flnet.TieredAsyncConfig{
		CommitterConfig: protocol, FanInConfig: wait,
		GlobalCommits: 4 * rounds, InitialWeights: init,
	})
	if err != nil {
		panic(err)
	}
	defer root.Close()
	var twgTree sync.WaitGroup
	for t, members := range treeTiers {
		ch, err := flnet.NewChild(flnet.ChildConfig{
			ID: t, RootAddr: root.Addr(), Workers: len(members), FanInConfig: wait,
		})
		if err != nil {
			panic(err)
		}
		defer ch.Close()
		twgTree.Add(1)
		go func(t int, ch *flnet.Child) {
			defer twgTree.Done()
			if err := ch.Run(); err != nil {
				fmt.Printf("child %d: %v\n", t, err)
			}
		}(t, ch)
		var codec compress.Codec
		if t == len(treeTiers)-1 {
			codec = compress.NewTopK(0.1) // slow tier compresses its uplink
		}
		for _, id := range members {
			local := train.Subset(parts[id])
			delay := time.Duration(0)
			if id == numWorkers-1 {
				delay = 400 * time.Millisecond
			}
			twgTree.Add(1)
			go func(id int, local *dataset.Dataset, delay time.Duration, addr string, codec compress.Codec) {
				defer twgTree.Done()
				trainFn := func(round int, weights []float64) ([]float64, int, error) {
					time.Sleep(delay)
					rng := rand.New(rand.NewSource(int64(id) + int64(round)*7919))
					model := arch(rng)
					model.SetWeightsVector(weights)
					opt := nn.NewRMSprop(0.01, 0.995)
					local.Batches(10, rng, func(x *tensor.Tensor, y []int) {
						model.TrainBatch(x, y, opt)
					})
					return model.WeightsVector(), local.Len(), nil
				}
				if err := flnet.RunWorker(addr, flnet.WorkerConfig{
					ClientID: id, NumSamples: local.Len(), Train: trainFn, Codec: codec,
				}); err != nil {
					fmt.Printf("leaf worker %d: %v\n", id, err)
				}
			}(id, local, delay, ch.Addr(), codec)
		}
	}
	if err := root.WaitForChildren(len(treeTiers), 30*time.Second); err != nil {
		panic(err)
	}
	treeRes, err := root.RunTree()
	if err != nil {
		panic(err)
	}
	twgTree.Wait()
	snap := root.Metrics()
	for _, c := range snap.Children {
		fmt.Printf("tier %d child %s: %d commits, %d uplink bytes reported\n",
			c.Tier+1, c.Addr, treeRes.Commits[c.Tier], c.UplinkBytes)
	}
	model.SetWeightsVector(treeRes.Weights)
	treeAcc, _ := model.Evaluate(test.X, test.Y, 256)
	fmt.Printf("%d commits through the tree (root fan-in: %d children, not %d workers), final accuracy %.4f\n",
		len(treeRes.Log), len(treeTiers), numWorkers, treeAcc)
}
