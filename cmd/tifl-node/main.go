// Command tifl-node is a distributed FL node over real TCP (internal/flnet),
// following the Google FL architecture the paper prototypes: run one
// aggregator process and any number of worker processes, each training a
// private synthetic shard.
//
// Synchronous aggregator (waits for -workers, profiles them, then runs
// -rounds of FedAvg):
//
//	tifl-node -role aggregator -addr :7070 -workers 5 -rounds 20 -per-round 3
//
// Tiered-asynchronous aggregator (profiles, builds -tiers latency tiers,
// then runs FedAT-style per-tier rounds until -commits commits). With
// -retier-every the tiering goes live: observed round latencies feed EWMA
// estimates and workers migrate between tiers mid-run (announced to them
// as MsgTierReassign):
//
//	tifl-node -role tiered-aggregator -addr :7070 -workers 5 -tiers 2 -commits 40 -per-round 2
//	tifl-node -role tiered-aggregator -addr :7070 -workers 5 -tiers 2 -commits 80 -retier-every 10
//
// Crash safety and observability: -checkpoint snapshots the run durably
// every -checkpoint-every commits, and the same flag resumes it — when the
// checkpoint file exists at startup the aggregator restores the model,
// per-tier cursors, and tiering state and continues toward -commits (the
// absolute target). Workers just reconnect; if the worker roster changed
// since the snapshot, only the model is restored and tiers are rebuilt
// from a fresh profiling pass. -metrics-addr serves live run metrics as
// JSON:
//
//	tifl-node -role tiered-aggregator -addr :7070 -workers 5 -tiers 2 -commits 80 \
//	    -checkpoint /var/lib/tifl/run.ckpt -checkpoint-every 10 -metrics-addr 127.0.0.1:9090
//	curl http://127.0.0.1:9090/metrics
//
// Workers (one per shell / machine; they serve either aggregator kind).
// -codec compresses the worker's uplink updates — negotiated at
// registration, so compressed and plain workers mix freely:
//
//	tifl-node -role worker -addr host:7070 -id 0
//	tifl-node -role worker -addr host:7070 -id 1 -codec topk@0.1
//	tifl-node -role worker -addr host:7070 -id 2 -codec int8
//
// The broadcast direction compresses independently: -downlink-codec on the
// aggregator roles encodes each tier round's model as one shared delta and
// sends every worker the deltas since the base it acked (dense snapshot on
// first contact, resume, or a gap longer than a dense model's worth of
// deltas). "delta" is lossless, "delta+int8" trades accuracy for bytes
// with a server-side error-feedback residual:
//
//	tifl-node -role tiered-aggregator -addr :7070 -workers 5 -tiers 2 -commits 40 -downlink-codec delta+int8
//	tifl-node -role child-aggregator -addr :7171 -root host:7070 -id 0 -workers 3 -downlink-codec delta
//
// Self-healing (off by default; all roles fail-stop on the first error
// unless asked otherwise): -reconnect makes a worker survive connection
// loss — it re-dials with capped exponential backoff, re-registers under
// its -id, re-enters its tier, and resumes serving rounds. -rpc-timeout
// bounds every protocol read/write so a hung peer surfaces as a
// descriptive timeout instead of a forever-block; -max-retries lets the
// aggregator redispatch an in-flight round to a reconnected worker (the
// idempotent sequence number guarantees a retried round is counted once)
// and caps the worker's reconnect attempts; -rejoin-wait is how long a
// dispatching tier waits for a dead worker (or the root for its last dead
// child) to come back:
//
//	tifl-node -role tiered-aggregator -addr :7070 -workers 5 -tiers 2 -commits 80 -max-retries 2 -rejoin-wait 30s -rpc-timeout 20s
//	tifl-node -role worker -addr host:7070 -id 0 -reconnect -max-retries 10 -rpc-timeout 20s
//
// A killed child-aggregator can simply be restarted with its old flags:
// it re-registers at the root, which validates the member list against
// the pinned topology and revives the tier mid-run.
//
// Hierarchical topology (the tree): run per-tier child-aggregator
// processes between the workers and the root. Each child waits for its
// own -workers leaf workers, joins the root as tier -id, and pre-reduces
// its tier's mini-FedAvg rounds at the edge — the root only applies one
// vector per tier round. The root is a tiered-aggregator with -children:
//
//	tifl-node -role tiered-aggregator -addr :7070 -children 2 -commits 40 -per-round 2
//	tifl-node -role child-aggregator -addr :7171 -root host:7070 -id 0 -workers 3
//	tifl-node -role child-aggregator -addr :7172 -root host:7070 -id 1 -workers 3
//	tifl-node -role worker -addr host:7171 -id 0   # leaves dial their child
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	tifl "repro"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/flnet"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/tiering"
)

func main() {
	var (
		role     = flag.String("role", "", "aggregator | tiered-aggregator | child-aggregator | worker")
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address (aggregator roles) or aggregator address (worker)")
		workers  = flag.Int("workers", 3, "aggregator/child-aggregator: workers to wait for")
		rounds   = flag.Int("rounds", 20, "aggregator: training rounds")
		perRound = flag.Int("per-round", 2, "aggregator: clients per round (per tier round when tiered)")
		timeout  = flag.Duration("timeout", 60*time.Second, "aggregator: per-round timeout")
		over     = flag.Float64("overselect", 0, "aggregator: over-selection fraction (0.3 = paper's 130%)")
		numTiers = flag.Int("tiers", 2, "tiered-aggregator: latency tiers to build")
		commits  = flag.Int("commits", 40, "tiered-aggregator: global commits to run")
		alpha    = flag.Float64("alpha", 0, "tiered-aggregator: base mixing rate (0 = default 0.6)")
		staleExp = flag.Float64("staleness-exp", 0, "tiered-aggregator: staleness discount exponent (0 = default 0.5)")
		children = flag.Int("children", 0, "tiered-aggregator: child aggregators forming a tree (0 = flat worker fan-in)")
		rootAddr = flag.String("root", "", "child-aggregator: tree root address to join")
		metrics  = flag.String("metrics-addr", "", "tiered-aggregator: observability endpoint address (e.g. 127.0.0.1:9090; empty = off)")
		ckptPath = flag.String("checkpoint", "", "tiered-aggregator: durable snapshot file; resumes from it when it exists")
		ckptFreq = flag.Int("checkpoint-every", 10, "tiered-aggregator: snapshot every k applied commits (with -checkpoint)")
		id       = flag.Int("id", 0, "worker: client ID / child-aggregator: tier index")
		samples  = flag.Int("samples", 400, "worker: local training samples")
		seed     = flag.Int64("seed", 1, "seed")
	)
	// The tiering, compression, and robustness flags are generated from the
	// same option structs the library embeds in Options/NetOptions, so this
	// command cannot drift from the API surface.
	var tierOpts tifl.TieringOptions
	tierOpts.AddFlags(flag.CommandLine)
	var compOpts tifl.CompressionOptions
	compOpts.AddFlags(flag.CommandLine)
	var robOpts tifl.RobustnessOptions
	robOpts.AddFlags(flag.CommandLine)
	flag.Parse()

	codec := compOpts.Compression
	// How the tiered roots' tier loops and a child's leaf rounds wait.
	fanIn := flnet.FanInConfig{RoundTimeout: *timeout, MaxRetries: robOpts.MaxRetries, RejoinWait: robOpts.RejoinWait}

	spec := dataset.CIFAR10Like
	arch := func(rng *rand.Rand) *nn.Model {
		return nn.NewMLP(rng, spec.Dim, []int{32}, spec.NumClasses, 0)
	}

	switch *role {
	case "aggregator":
		init := arch(rand.New(rand.NewSource(*seed))).WeightsVector()
		agg, err := flnet.NewAggregator(*addr, flnet.AggregatorConfig{
			Rounds: *rounds, ClientsPerRound: *perRound, Overselect: *over,
			RoundTimeout: *timeout, InitialWeights: init, Seed: *seed,
		})
		if err != nil {
			fail("%v", err)
		}
		defer agg.Close()
		fmt.Printf("aggregator listening on %s, waiting for %d workers...\n", agg.Addr(), *workers)
		if err := agg.WaitForWorkers(*workers, 10*time.Minute); err != nil {
			fail("%v", err)
		}
		lat, drop, err := agg.ProfileWorkers(*timeout)
		if err != nil {
			fail("profiling: %v", err)
		}
		fmt.Printf("profiled %d workers (dropouts: %v):\n", len(lat), drop)
		for idc, l := range lat {
			fmt.Printf("  client %d: %.3fs\n", idc, l)
		}
		res, err := agg.Run(agg.UniformSelector(*perRound))
		if err != nil {
			fail("training: %v", err)
		}
		// Evaluate the final global model on a held-out test set.
		test := dataset.Generate(spec, 1000, *seed+999)
		model := arch(rand.New(rand.NewSource(*seed)))
		model.SetWeightsVector(res.Weights)
		acc, loss := model.Evaluate(test.X, test.Y, 256)
		for _, rs := range res.Rounds {
			fmt.Printf("round %3d: selected %d, used %d, discarded %d, uplink %d B, wall %v\n",
				rs.Round, rs.Selected, rs.Used, rs.Discarded, rs.UplinkBytes, rs.Wall.Round(time.Millisecond))
		}
		fmt.Printf("total uplink %d bytes (dense would be %d)\n",
			res.UplinkBytes, int64(usedUpdates(res))*int64(compress.DenseBytes(len(init))))
		fmt.Printf("final global accuracy %.4f (loss %.4f)\n", acc, loss)

	case "tiered-aggregator":
		init := arch(rand.New(rand.NewSource(*seed))).WeightsVector()
		live := tierOpts.Live()
		if *children > 0 && live {
			fail("live tiering (-retier-every) is not supported over the tree; drop -children or -retier-every")
		}
		// A checkpoint file already on disk means this invocation is a
		// restart: load it (falling back to the rotated .prev snapshot if
		// the newest write was torn) and resume instead of starting over.
		var resumeCkpt *flcore.TieredCheckpoint
		if *ckptPath != "" && checkpointExists(*ckptPath) {
			c, err := flcore.LoadTieredCheckpointFile(*ckptPath)
			if err != nil {
				fail("loading checkpoint: %v", err)
			}
			if hasMgr := len(c.ManagerState) > 0; hasMgr != live {
				fail("checkpoint %s live tiering = %v; rerun with a matching -retier-every", *ckptPath, hasMgr)
			}
			if c.Version >= *commits {
				fail("checkpoint %s is already at version %d; raise -commits above it to continue the job", *ckptPath, c.Version)
			}
			resumeCkpt = c
			fmt.Printf("found checkpoint %s at version %d of %d\n", *ckptPath, c.Version, *commits)
		}
		ckptEvery := 0
		if *ckptPath != "" {
			ckptEvery = *ckptFreq
		}
		agg, err := flnet.NewTieredAsyncAggregator(*addr, flnet.TieredAsyncConfig{
			CommitterConfig: flcore.CommitterConfig{
				ClientsPerRound: *perRound, Alpha: *alpha, StalenessExp: *staleExp,
				TierWeight: core.FedATWeights(), Seed: *seed,
				CheckpointEvery: ckptEvery, Downlink: compOpts.Downlink,
			},
			FanInConfig:   fanIn,
			GlobalCommits: *commits, InitialWeights: init,
			CheckpointPath: *ckptPath,
			MetricsAddr:    *metrics,
			ReassignCodec:  compOpts.ReassignPolicy(),
			SendTimeout:    robOpts.RPCTimeout,
		})
		if err != nil {
			fail("%v", err)
		}
		defer agg.Close()
		if *children > 0 {
			runTreeRoot(agg, *children, *commits, resumeCkpt, arch, spec, *seed)
			return
		}
		fmt.Printf("tiered-async aggregator listening on %s, waiting for %d workers...\n", agg.Addr(), *workers)
		if ma := agg.MetricsAddr(); ma != "" {
			fmt.Printf("metrics endpoint on http://%s/metrics\n", ma)
		}
		if err := agg.WaitForWorkers(*workers, 10*time.Minute); err != nil {
			fail("%v", err)
		}
		var mgr *tiering.Manager
		if live {
			// Live tiering: profile, seed a Manager with the measured
			// latencies, and let it own membership for the run — commits
			// feed its EWMAs and rebuilds migrate workers mid-run. On a
			// full resume below, the checkpoint's manager state replaces
			// these fresh profile estimates.
			lat, dropouts, err := agg.ProfileWorkers(*timeout)
			if err != nil {
				fail("profiling: %v", err)
			}
			if len(dropouts) > 0 {
				fmt.Printf("profiling dropouts (excluded from all tiers): %v\n", dropouts)
			}
			mgr, err = tiering.NewManager(tiering.Config{
				NumTiers: *numTiers, RetierEvery: tierOpts.RetierEvery, EWMABeta: tierOpts.EWMABeta,
				ClientsPerRound: *perRound, Seed: *seed,
			}, lat)
			if err != nil {
				fail("%v", err)
			}
			agg.SetManager(mgr)
		}
		resumedTiers := false
		if resumeCkpt != nil {
			switch err := agg.Resume(resumeCkpt); {
			case err == nil:
				resumedTiers = true
				fmt.Printf("resumed model, tiers, and cursors at version %d\n", resumeCkpt.Version)
			case errors.Is(err, flnet.ErrRosterChanged):
				// Some checkpointed workers did not come back: keep the
				// model but rebuild tiers over the roster that did.
				fmt.Printf("%v; resuming model only over a fresh profile\n", err)
				if err := agg.ResumeModel(resumeCkpt); err != nil {
					fail("resume: %v", err)
				}
			default:
				fail("resume: %v", err)
			}
		}
		var res *flnet.TieredAsyncRunResult
		var tiers []core.Tier
		var err2 error
		switch {
		case mgr != nil:
			res, err2 = agg.Run(nil)
			if err2 != nil {
				fail("tiered training: %v", err2)
			}
			for ti, members := range mgr.Tiers() {
				fmt.Printf("tier %d (final membership): workers %v → %d commits\n", ti+1, members, res.Commits[ti])
			}
			fmt.Printf("live tiering: %d re-tierings moved %d workers\n", res.Retiers, res.Reassigned)
		case resumedTiers:
			res, err2 = agg.Run(nil) // checkpointed membership, no re-profiling
			if err2 != nil {
				fail("tiered training: %v", err2)
			}
			for ti, members := range resumeCkpt.Tiers {
				fmt.Printf("tier %d (checkpointed membership): workers %v → %d commits\n", ti+1, members, res.Commits[ti])
			}
		default:
			var dropouts []int
			res, tiers, dropouts, err2 = agg.ProfileAndRun(*numTiers, *timeout)
			if len(dropouts) > 0 {
				fmt.Printf("profiling dropouts (excluded from all tiers): %v\n", dropouts)
			}
			if err2 != nil {
				fail("tiered training: %v", err2)
			}
			for _, tr := range tiers {
				fmt.Printf("tier %d (mean latency %.3fs): workers %v → %d commits\n",
					tr.ID+1, tr.MeanLatency, tr.Members, res.Commits[tr.ID])
			}
		}
		test := dataset.Generate(spec, 1000, *seed+999)
		model := arch(rand.New(rand.NewSource(*seed)))
		model.SetWeightsVector(res.Weights)
		acc, loss := model.Evaluate(test.X, test.Y, 256)
		last := res.Log[len(res.Log)-1]
		fmt.Printf("%d commits applied (last: tier %d round %d, staleness %d, weight %.3f), uplink %d bytes, downlink %d bytes\n",
			len(res.Log), last.Tier+1, last.TierRound, last.Staleness, last.Weight, res.UplinkBytes, res.DownlinkBytes)
		fmt.Printf("final global accuracy %.4f (loss %.4f)\n", acc, loss)

	case "child-aggregator":
		if *rootAddr == "" {
			fail("child-aggregator needs -root (the tree root's address)")
		}
		ch, err := flnet.NewChild(flnet.ChildConfig{
			ID: *id, Addr: *addr, RootAddr: *rootAddr,
			Workers: *workers, WorkerTimeout: 10 * time.Minute, FanInConfig: fanIn,
			Downlink: compOpts.Downlink, RPCTimeout: robOpts.RPCTimeout,
		})
		if err != nil {
			fail("%v", err)
		}
		defer ch.Close()
		fmt.Printf("child aggregator %d listening on %s for %d leaf workers, root %s\n",
			*id, ch.Addr(), *workers, *rootAddr)
		if err := ch.Run(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("child aggregator %d: done\n", *id)

	case "worker":
		local := dataset.Generate(spec, *samples, *seed+int64(*id)*31)
		fmt.Printf("worker %d: %d local samples, connecting to %s\n", *id, local.Len(), *addr)
		train := func(round int, weights []float64) ([]float64, int, error) {
			rng := rand.New(rand.NewSource(*seed + int64(*id) + int64(round)*7919))
			model := arch(rng)
			model.SetWeightsVector(weights)
			opt := nn.NewRMSprop(0.01, 0.995)
			local.Batches(10, rng, func(x *tensor.Tensor, y []int) {
				model.TrainBatch(x, y, opt)
			})
			return model.WeightsVector(), local.Len(), nil
		}
		if codec != nil {
			fmt.Printf("worker %d: compressing uplink updates with %s\n", *id, codec.Name())
		}
		err := flnet.RunWorker(*addr, flnet.WorkerConfig{
			ClientID: *id, NumSamples: local.Len(), Train: train, Codec: codec,
			Reconnect: robOpts.Reconnect, MaxReconnects: robOpts.MaxRetries,
			RPCTimeout: robOpts.RPCTimeout,
			OnReconnect: func(attempt int) {
				fmt.Printf("worker %d: connection lost, reconnect attempt %d\n", *id, attempt)
			},
			OnTierAssign: func(tier, numTiers int) {
				fmt.Printf("worker %d: assigned to tier %d of %d\n", *id, tier+1, numTiers)
			},
			OnTierReassign: func(from, to, numTiers int) {
				fmt.Printf("worker %d: re-tiered %d → %d of %d\n", *id, from+1, to+1, numTiers)
			},
		})
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("worker %d: done\n", *id)

	default:
		fail("need -role aggregator, tiered-aggregator, child-aggregator, or worker")
	}
}

// runTreeRoot drives a tiered-aggregator invoked with -children: the
// hierarchical topology where per-tier child-aggregator processes
// pre-reduce their tier's rounds and the root applies one vector per tier
// round. Tier membership is fixed by which child each leaf registered
// with, so no profiling pass runs here.
func runTreeRoot(agg *flnet.TieredAsyncAggregator, children, commits int, resumeCkpt *flcore.TieredCheckpoint, arch func(*rand.Rand) *nn.Model, spec dataset.Spec, seed int64) {
	fmt.Printf("tree root listening on %s, waiting for %d child aggregators...\n", agg.Addr(), children)
	if ma := agg.MetricsAddr(); ma != "" {
		fmt.Printf("metrics endpoint on http://%s/metrics\n", ma)
	}
	if err := agg.WaitForChildren(children, 10*time.Minute); err != nil {
		fail("%v", err)
	}
	if resumeCkpt != nil {
		switch err := agg.ResumeTree(resumeCkpt); {
		case err == nil:
			fmt.Printf("resumed model and per-tier cursors at version %d\n", resumeCkpt.Version)
		case errors.Is(err, flnet.ErrRosterChanged):
			// The tree came back with different leaves: keep the model,
			// restart the cursors over the re-registered membership.
			fmt.Printf("%v; resuming model only\n", err)
			if err := agg.ResumeModel(resumeCkpt); err != nil {
				fail("resume: %v", err)
			}
		default:
			fail("resume: %v", err)
		}
	}
	res, err := agg.RunTree()
	if err != nil {
		fail("tree training: %v", err)
	}
	for _, row := range agg.Metrics().Children {
		fmt.Printf("tier %d child %s: %d commits, %d uplink bytes, %d downlink bytes reported\n",
			row.Tier+1, row.Addr, res.Commits[row.Tier], row.UplinkBytes, row.DownlinkBytes)
	}
	test := dataset.Generate(spec, 1000, seed+999)
	model := arch(rand.New(rand.NewSource(seed)))
	model.SetWeightsVector(res.Weights)
	acc, loss := model.Evaluate(test.X, test.Y, 256)
	last := res.Log[len(res.Log)-1]
	fmt.Printf("%d commits applied (last: tier %d round %d, staleness %d, weight %.3f), uplink %d bytes, downlink %d bytes\n",
		len(res.Log), last.Tier+1, last.TierRound, last.Staleness, last.Weight, res.UplinkBytes, res.DownlinkBytes)
	fmt.Printf("final global accuracy %.4f (loss %.4f)\n", acc, loss)
}

// checkpointExists reports whether a resumable snapshot is on disk: the
// checkpoint file itself, or the rotated previous one if a crash landed
// between SaveFile's rotate and rename steps.
func checkpointExists(path string) bool {
	if _, err := os.Stat(path); err == nil {
		return true
	}
	_, err := os.Stat(path + ".prev")
	return err == nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tifl-node: "+format+"\n", args...)
	os.Exit(2)
}

// usedUpdates counts the updates aggregated over a synchronous run.
func usedUpdates(res *flnet.RunResult) int {
	n := 0
	for _, rs := range res.Rounds {
		n += rs.Used
	}
	return n
}
