package main

// layers.go is the only file of the benchmark that imports the program under
// test. It uses only API that ROADMAP items 2–4 keep: no Lockstep, no Proto*
// constants, no hand-built Envelope or Train payloads, no hierarchy.go, no
// core.DynamicSelector, no Manager.Pin, no sync Checkpoint file helpers. The
// protocol configs (flnet.TieredAsyncConfig, flcore.TieredAsyncConfig,
// flnet.ChildConfig) are filled by assignment, never by composite literal, so
// that item 2's shared embedded protocol struct still compiles against this
// file.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"time"

	tifl "repro"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/flnet"
	"repro/internal/nn"
	"repro/internal/simres"
	"repro/internal/tensor"
	"repro/internal/tiering"
)

// Fleets and populations are fixed-size, never scaled with nproc, so numbers
// compare across boxes. The full sizes give units of 1.2 to 1.8 seconds on a
// 2-core 2.1 GHz box; quick sizes exist only to exercise every path in the
// package test.
type sizes struct {
	cnnRounds           int     // sim_sync_cnn: rounds per unit
	fedatDuration       float64 // sim_fedat_mlp: simulated seconds per unit
	flatDim             int     // net_flat_*: model parameters
	flatDense, flatInt8 int     // net_flat_*: commits per unit
	treeCommits         int     // net_tree_train: commits per unit
	heldOut             int     // samples behind final_acc, evaluated outside the timed phase
}

var (
	fullSizes  = sizes{cnnRounds: 8, fedatDuration: 150, flatDim: 250_000, flatDense: 150, flatInt8: 100, treeCommits: 100, heldOut: 1000}
	quickSizes = sizes{cnnRounds: 1, fedatDuration: 12, flatDim: 4_000, flatDense: 12, flatInt8: 12, treeCommits: 25, heldOut: 100}
)

// warmUp is the discarded first unit's size: the same shapes and paths at a
// quarter of the work, enough to fill caches, pools and the heap.
func (sz sizes) warmUp() sizes {
	sz.cnnRounds = max(1, sz.cnnRounds/4)
	sz.fedatDuration /= 4
	sz.flatDense = max(4, sz.flatDense/4)
	sz.flatInt8 = max(4, sz.flatInt8/4)
	sz.treeCommits = treeCkptEvery
	sz.heldOut = 100
	return sz
}

const (
	population     = 50 // clients of the two simulated workloads, in 5 CPU groups
	cnnShard       = 20 // training samples per client; shards keep their size in quick mode so the probes' shapes stay the workloads'
	fedatShard     = 100
	treeShard      = 120
	simCohort      = 5
	netCohort      = 2
	stubSamples    = 100  // FedAvg weight a stub worker declares per update
	stubRate       = 0.03 // contraction of the stub's local pass towards its optimum
	treeCkptEvery  = 25
	imgSide        = 14
	cnnTargetAcc   = 0.80 // ≈ 90 % of the seed-1 final accuracy
	fedatTargetAcc = 0.60
	treeDim        = 256
)

// workloads lists what the benchmark runs, with the reason each is here.
var workloads = []workload{
	{"sim_sync_cnn", "paper system (50 clients, 5 tiers, Algorithm 2) on the CNN: kernel-bound conv path; compress and flnet idle", true, runSimSyncCNN},
	{"sim_fedat_mlp", "FedAT sim with int8 uplink, delta+int8 downlink, live re-tiering: the only run through TieredAsyncEngine and tiering.Manager", true, runSimFedATMLP},
	{"net_flat_dense", "flat TCP fleet, 250k-parameter dense model, stub training: wire-bound; tensor kernels and nn training idle", false,
		func(env *runEnv) (unit, error) { return runNetFlat(env, false) }},
	{"net_flat_int8", "same fleet with int8 uplink and delta+int8 downlink: few bytes, much codec CPU; splits wire from codec changes", false,
		func(env *runEnv) (unit, error) { return runNetFlat(env, true) }},
	{"net_tree_train", "root + per-tier child aggregators + leaf workers doing real training with durable checkpoints: every layer at once", false, runNetTree},
}

func cnnModel(rng *rand.Rand) *nn.Model { return nn.NewPaperMNISTCNN(rng, imgSide, imgSide, 1, 10) }
func fedatModel(rng *rand.Rand) *nn.Model {
	return nn.NewMLP(rng, dataset.CIFAR10Like.Dim, []int{32}, 10, 0)
}
func treeModel(rng *rand.Rand) *nn.Model { return nn.NewMLP(rng, treeDim, []int{128}, 10, 0) }

func rmsprop(lr float64) flcore.OptimizerFactory {
	return func(round int) nn.Optimizer {
		return nn.NewRMSprop(lr*math.Pow(0.995, float64(round)), 0.995)
	}
}

func cnnData(n int, seed int64) *dataset.Dataset {
	return dataset.GenerateImages("bench-cnn", 10, 1, imgSide, imgSide, n, 1.0, seed)
}

func fedatData(n int, seed int64) *dataset.Dataset {
	spec := dataset.CIFAR10Like
	spec.NoiseStd = 1.8
	return dataset.Generate(spec, n, seed)
}

func treeData(n int, seed int64) *dataset.Dataset {
	spec := dataset.Spec{Name: "bench-tree", NumClasses: 10, Dim: treeDim, NoiseStd: 3, PrototypeStd: 1, SubModes: 2}
	return dataset.Generate(spec, n, seed)
}

// buildPopulation is the set-up every training workload shares: an IID
// partition over n clients in equal CPU groups, profiled and tiered.
func buildPopulation(env *runEnv, root *span, gen func(n int, seed int64) *dataset.Dataset, n, perClient, inRunTest int, groups []float64, opts tifl.Options) (*tifl.System, *dataset.Dataset, error) {
	var train, test *dataset.Dataset
	env.tr.region(root, "dataset.generate", layerSetup, func() {
		train = gen(n*perClient, env.seed+1)
		test = gen(inRunTest, env.seed+2)
	})
	var clients []*flcore.Client
	env.tr.region(root, "flcore.build_clients", layerSetup, func() {
		parts := dataset.PartitionIID(train.Len(), n, rand.New(rand.NewSource(env.seed+3)))
		clients = flcore.BuildClients(train, test, parts, simres.AssignGroups(n, groups), 20, env.seed+4)
	})
	var sys *tifl.System
	var err error
	env.tr.region(root, "tifl.new", layerSetup, func() {
		sys, err = tifl.New(clients, opts)
	})
	return sys, test, err
}

// heldOutAcc evaluates final weights on samples no run ever saw, outside the
// timed phase, so the precision of final_acc does not cost timed work.
func heldOutAcc(env *runEnv, checksum uint64, model flcore.ModelFactory, weights []float64, gen func(n int, seed int64) *dataset.Dataset, n int) float64 {
	// Simulated units of one seed end on bit-identical weights (and are
	// checked to), so their accuracy is evaluated once per pass.
	if acc, ok := env.accs[checksum]; ok {
		return acc
	}
	m := model(rand.New(rand.NewSource(1)))
	m.SetWorkspace(nn.NewWorkspace())
	m.SetWeightsVector(weights)
	d := gen(n, env.seed+5)
	acc, _ := m.Evaluate(d.InputTensor(), d.Y, 100)
	env.accs[checksum] = acc
	return acc
}

func weightsChecksum(w []float64) (sum uint64, finite bool) {
	h := fnv.New64a()
	var b [8]byte
	finite = true
	for _, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
		}
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:]) //nolint:errcheck // hash writes cannot fail
	}
	return h.Sum64(), finite
}

// ---------------------------------------------------------------- sim_sync_cnn

func runSimSyncCNN(env *runEnv) (unit, error) {
	var u unit
	sz := env.sizes
	rep := env.begin("rep", nil)
	setup := env.begin("setup", rep)
	sys, test, err := buildPopulation(env, setup, cnnData, population, cnnShard, 50, simres.GroupsMNIST, tifl.Options{NumTiers: 5})
	if err != nil {
		return u, err
	}
	env.end(setup)
	u.setupS = setup.dur()

	var cfg tifl.Config
	cfg.Rounds = sz.cnnRounds
	cfg.ClientsPerRound = simCohort
	cfg.LocalEpochs = 1
	cfg.BatchSize = 10
	cfg.Seed = env.seed
	cfg.Model = cnnModel
	cfg.Optimizer = rmsprop(0.003)
	cfg.EvalEvery = 1 // every round costs the same, and time-to-target resolves to a round
	cfg.EvalBatch = 100
	cfg.Parallel = true
	run := env.begin("run", rep)
	cfg.OnRound = func(rec flcore.RoundRecord) { env.simCommit(&u, run, 0, rec.Round) }
	var res *tifl.Result
	env.timed(&u, func() {
		res = sys.Train(cfg, test, tifl.Adaptive(tifl.AdaptiveConfig{Interval: 4, TestPerTier: 10, Seed: env.seed}))
	})
	env.end(run)
	env.end(rep)

	u.commits = len(res.History)
	dense := int64(compress.DenseBytes(len(res.Weights)))
	evals := 0
	for _, rec := range res.History {
		u.attempted += simCohort
		u.failed += simCohort - len(rec.Selected)
		u.samples += int64(len(rec.Selected) * cnnShard)
		// The sync engine broadcasts dense snapshots and its latency model
		// charges them, but its result only totals the uplink.
		u.downBytes += int64(len(rec.Selected)) * dense
		if !math.IsNaN(rec.Acc) {
			evals++
			if u.simTargetS == 0 && rec.Acc >= cnnTargetAcc {
				u.simTargetS = rec.SimTime
			}
		}
	}
	u.upBytes = res.UplinkBytes
	u.checksum, u.finite = weightsChecksum(res.Weights)
	u.finalAcc = heldOutAcc(env, u.checksum, cnnModel, res.Weights, cnnData, sz.heldOut)
	u.exact = u.commits == sz.cnnRounds
	for i, rec := range res.History {
		u.exact = u.exact && rec.Round == i
	}
	u.wantUp = int64(u.attempted-u.failed) * dense
	u.ops = opCounts{
		// Algorithm 2 evaluates every tier's pooled shard after every round.
		evalSamples: int64(u.commits*5*10 + evals*test.Len()), evalProbe: "nn.cnn_eval_samples_s",
		fedavgs: int64(u.commits), fedavgDim: len(res.Weights), fedavgK: simCohort,
		selects: int64(u.commits), selectProbe: "core.adaptive_select_us",
	}
	u.clientRoundProbe = "flcore.client_round_ms_cnn"
	return u, nil
}

// --------------------------------------------------------------- sim_fedat_mlp

func runSimFedATMLP(env *runEnv) (unit, error) {
	var u unit
	sz := env.sizes
	rep := env.begin("rep", nil)
	setup := env.begin("setup", rep)
	int8c := tifl.Int8Codec()
	var opts tifl.Options
	opts.NumTiers = 5
	opts.Compression = int8c
	opts.Downlink = tifl.DeltaCodec(int8c)
	opts.RetierEvery = 25
	sys, test, err := buildPopulation(env, setup, fedatData, population, fedatShard, 500, simres.GroupsCIFAR, opts)
	if err != nil {
		return u, err
	}
	env.end(setup)
	u.setupS = setup.dur()

	var cfg tifl.TieredAsyncConfig
	cfg.Duration = sz.fedatDuration
	cfg.ClientsPerRound = simCohort
	cfg.EvalInterval = sz.fedatDuration / 10
	cfg.BatchSize = 10
	cfg.LocalEpochs = 1
	cfg.Seed = env.seed
	cfg.Model = fedatModel
	cfg.Optimizer = rmsprop(0.01)
	cfg.EvalBatch = 250
	run := env.begin("run", rep)
	// The sim trains a tier round when it dispatches it and applies it when
	// its simulated finish time comes up, so the interval between callbacks
	// is the wall cost of one commit-and-redispatch: one tier round.
	cfg.OnCommit = func(rec flcore.TierRoundRecord) { env.simCommit(&u, run, rec.Tier, rec.TierRound) }
	var res *tifl.TieredAsyncResult
	env.timed(&u, func() { res = sys.TrainTieredAsync(cfg, test) })
	env.end(run)
	env.end(rep)

	u.commits = len(res.TierRounds)
	dim := len(res.Weights)
	payload := int64(int8c.EncodedBytes(dim))
	dense := int64(compress.DenseBytes(dim))
	u.exact = true
	u.tierCommits = res.Commits
	for i, rec := range res.TierRounds {
		u.exact = u.exact && rec.Version == i+1
		u.attempted += simCohort
		u.failed += simCohort - len(rec.Selected)
		u.samples += int64(len(rec.Selected) * fedatShard)
		u.staleness = append(u.staleness, float64(rec.Staleness))
		u.broadcasts += len(rec.Selected)
		// down = d·dense + (k−d)·payload, solved for the dense count d.
		u.denseFallbacks += int((rec.DownlinkBytes - int64(len(rec.Selected))*payload) / (dense - payload))
	}
	for _, rec := range res.History {
		if u.simTargetS == 0 && rec.Acc >= fedatTargetAcc {
			u.simTargetS = rec.SimTime
		}
	}
	u.upBytes, u.downBytes = res.UplinkBytes, res.DownlinkBytes
	u.wantUp = int64(u.attempted-u.failed) * payload
	u.checksum, u.finite = weightsChecksum(res.Weights)
	u.finalAcc = heldOutAcc(env, u.checksum, fedatModel, res.Weights, fedatData, 2*sz.heldOut)
	u.ops = opCounts{
		// every periodic evaluation also scores each tier's pooled shard
		// (capped at 256 samples) for the Manager's accuracy feedback
		evalSamples: int64(len(res.History) * (test.Len() + 5*256)), evalProbe: "nn.mlp_small_eval_samples_s",
		// per update: error-feedback encode + decode; per tier round: one
		// chain advance (encode + decode) on the broadcast side
		codecEncodes: int64(u.attempted - u.failed + u.commits), codecDecodes: int64(u.attempted - u.failed + u.commits), codecDim: dim,
		fedavgs: int64(u.commits), fedavgDim: dim, fedavgK: simCohort,
		mixes:   int64(u.commits),
		selects: int64(u.commits), selectProbe: "tiering.cohort_us",
		observes: int64(u.attempted - u.failed), retiers: int64(u.commits / opts.RetierEvery),
	}
	u.clientRoundProbe = "flcore.client_round_ms_mlp_small"
	return u, nil
}

// ------------------------------------------------------------ socket plumbing

// tracedDial returns a Dial hook whose connections report to p; with tracing
// off it returns nil and the program dials TCP itself.
func tracedDial(p *peerTrace) func(addr string, timeout time.Duration) (net.Conn, error) {
	if p == nil {
		return nil
	}
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, p: p}, nil
	}
}

// tracedCodec passes every call through and reports Encode and Decode time.
type tracedCodec struct {
	compress.Codec
	p *peerTrace
}

func (c tracedCodec) Encode(w []float64) []byte {
	t0 := time.Now()
	out := c.Codec.Encode(w)
	t1 := time.Now()
	c.p.inCodec += t1.Sub(t0)
	c.p.emit("compress.encode", layerCodec, t0, t1, int64(len(out)))
	return out
}

func (c tracedCodec) Decode(payload []byte, n int) ([]float64, error) {
	t0 := time.Now()
	out, err := c.Codec.Decode(payload, n)
	t1 := time.Now()
	c.p.inCodec += t1.Sub(t0)
	c.p.emit("compress.decode", layerCodec, t0, t1, int64(len(payload)))
	return out, err
}

// worker assembles one leaf worker's config around train, with the Train,
// Dial and Codec seams traced when p is non-nil.
func workerConfig(id, samples int, codec compress.Codec, p *peerTrace, train flnet.TrainFunc) flnet.WorkerConfig {
	var wc flnet.WorkerConfig
	wc.ClientID = id
	wc.NumSamples = samples
	wc.Codec = codec
	wc.Train = train
	if p != nil {
		wc.Dial = tracedDial(p)
		if codec != nil {
			wc.Codec = tracedCodec{Codec: codec, p: p}
		}
		// A placement message is not a broadcast: what was read so far does
		// not belong to the next round.
		wc.OnTierAssign = func(int, int) { p.reading, p.blocked, p.rdBytes = false, 0, 0 }
		wc.Train = func(round int, weights []float64) ([]float64, int, error) {
			t0 := time.Now()
			p.round = round
			p.flushRead(t0)
			w, n, err := train(round, weights)
			p.trainEnd = time.Now()
			p.emit("worker.train", layerTrain, t0, p.trainEnd, 0)
			return w, n, err
		}
	}
	return wc
}

func (env *runEnv) peer(tier int, leaf, lossy bool) *peerTrace {
	if env.tr == nil {
		return nil
	}
	p := &peerTrace{tr: env.tr, tier: tier, leaf: leaf, lossy: lossy}
	if !leaf {
		p.round = -1 // the registration it writes first is no tier round
	}
	return p
}

// netResult folds a socket run's result log into the unit.
func (u *unit) netResult(res *flnet.TieredAsyncRunResult, want, perUpdateSamples int, upSize int64) []commitLog {
	u.commits = len(res.Log)
	u.exact = u.commits == want
	u.tierCommits = res.Commits
	log := make([]commitLog, len(res.Log))
	for i, c := range res.Log {
		u.exact = u.exact && c.Version == i+1
		u.attempted += netCohort
		u.failed += netCohort - c.Clients
		u.samples += int64(c.Clients * perUpdateSamples)
		u.roundMs = append(u.roundMs, c.Seconds*1e3)
		u.staleness = append(u.staleness, float64(c.Staleness))
		log[i] = commitLog{tier: c.Tier, round: c.TierRound, seconds: c.Seconds}
	}
	u.upBytes, u.downBytes = res.UplinkBytes, res.DownlinkBytes
	u.wantUp = int64(u.attempted-u.failed) * upSize
	u.checksum, u.finite = weightsChecksum(res.Weights)
	return log
}

// ---------------------------------------------------------------- net_flat_*

func runNetFlat(env *runEnv, int8 bool) (unit, error) {
	var u unit
	sz := env.sizes
	dim, commits := sz.flatDim, sz.flatDense
	var codec compress.Codec
	var down *compress.Downlink
	upSize := int64(compress.DenseBytes(dim))
	if int8 {
		commits = sz.flatInt8
		codec = compress.NewInt8(0)
		upSize = int64(codec.EncodedBytes(dim))
		down = tifl.DeltaCodec(codec)
	}
	target := randVec(dim, env.seed+7, 1) // the optimum every stub worker contracts towards

	rep := env.begin("rep", nil)
	setup := env.begin("setup", rep)
	var cfg flnet.TieredAsyncConfig
	cfg.GlobalCommits = commits
	cfg.ClientsPerRound = netCohort
	cfg.RoundTimeout = 30 * time.Second
	cfg.InitialWeights = make([]float64, dim)
	cfg.Seed = env.seed
	cfg.Downlink = down
	agg, err := flnet.NewTieredAsyncAggregator("127.0.0.1:0", cfg)
	if err != nil {
		return u, err
	}
	defer agg.Close()
	tiers := [][]int{{0, 1}, {2, 3}}
	var wg sync.WaitGroup
	env.tr.region(setup, "flnet.register", layerSetup, func() {
		for t, members := range tiers {
			for _, id := range members {
				out := make([]float64, dim)
				train := func(round int, w []float64) ([]float64, int, error) {
					for i, v := range w {
						out[i] = v + stubRate*(target[i]-v)
					}
					return out, stubSamples, nil
				}
				wc := workerConfig(id, stubSamples, codec, env.peer(t, true, int8), train)
				wg.Add(1)
				go func() {
					defer wg.Done()
					flnet.RunWorker(agg.Addr(), wc) //nolint:errcheck // a worker ends with its aggregator; a failed one shows as missing slots
				}()
			}
		}
		err = agg.WaitForWorkers(4, 30*time.Second)
	})
	if err != nil {
		return u, err
	}
	env.end(setup)
	u.setupS = setup.dur()

	run := env.begin("run", rep)
	var res *flnet.TieredAsyncRunResult
	env.timed(&u, func() { res, err = agg.Run(tiers) })
	env.end(run)
	agg.Close()
	wg.Wait()
	env.end(rep)
	if err != nil {
		return u, err
	}
	env.tr.assembleCommits(run, u.netResult(res, commits, stubSamples, upSize))

	// The stub fleet still optimises something: every local pass contracts
	// towards the shared target, so the share of the initial distance the
	// global model has closed is this workload's accuracy analogue.
	var d0, d1 float64
	for i, t := range target {
		d0 += t * t
		d1 += (res.Weights[i] - t) * (res.Weights[i] - t)
	}
	u.finalAcc = 1 - math.Sqrt(d1/d0)
	updates := int64(u.attempted - u.failed)
	if int8 {
		// per tier round one chain advance; per update one payload decode
		u.aggOps = aggOpCounts{dim: dim, chainEncodes: int64(u.commits), decodes: updates}
	} else {
		// per tier round one snapshot encode shared by the cohort; per update one decode
		u.aggOps = aggOpCounts{dim: dim, denseEncodes: int64(u.commits), denseDecodes: updates}
	}
	u.denseDim = dim
	return u, nil
}

// -------------------------------------------------------------- net_tree_train

// runNetTree assembles the tree exactly the way System.TrainTieredAsyncTree
// does — root RunTree, one flnet.Child per tier, leaf workers running the
// engine's per-client pass — but by hand, so that the Train, Dial and
// OnCheckpoint seams are reachable.
func runNetTree(env *runEnv) (unit, error) {
	var u unit
	sz := env.sizes
	int8c := compress.NewInt8(0)
	down := tifl.DeltaCodec(int8c)

	rep := env.begin("rep", nil)
	setup := env.begin("setup", rep)
	sys, _, err := buildPopulation(env, setup, treeData, 6, treeShard, 20, []float64{2, 0.5}, tifl.Options{NumTiers: 2})
	if err != nil {
		return u, err
	}
	clients := sys.Clients()
	var ecfg flcore.Config
	ecfg.Rounds = 1
	ecfg.ClientsPerRound = 1
	ecfg.LocalEpochs = 1
	ecfg.BatchSize = 10
	ecfg.Seed = env.seed
	ecfg.Model = treeModel
	ecfg.Optimizer = rmsprop(0.003)
	ecfg.Latency = simres.DefaultModel
	eng := flcore.NewEngine(ecfg, clients, nil)

	var cfg flnet.TieredAsyncConfig
	cfg.GlobalCommits = sz.treeCommits
	cfg.ClientsPerRound = netCohort
	cfg.TierWeight = core.FedATWeights()
	cfg.RoundTimeout = 30 * time.Second
	cfg.InitialWeights = eng.GlobalWeights()
	cfg.Seed = env.seed
	cfg.Downlink = down
	cfg.CheckpointEvery = treeCkptEvery
	cfg.CheckpointPath = filepath.Join(env.tmp, fmt.Sprintf("tree-%d.ckpt", env.unitIdx))
	cfg.OnCheckpoint = func(c *flcore.TieredCheckpoint) {
		u.checkpoints++
		now := time.Now()
		env.tr.add(&span{Name: "ckpt", Layer: layerMark, start: now, end: now, tier: -1})
	}
	root, err := flnet.NewTieredAsyncAggregator("127.0.0.1:0", cfg)
	if err != nil {
		return u, err
	}
	defer root.Close()

	var wg sync.WaitGroup
	var children []*flnet.Child
	defer func() {
		for _, ch := range children {
			ch.Close()
		}
	}()
	env.tr.region(setup, "flnet.register", layerSetup, func() {
		for t, tier := range sys.Tiers() {
			var cc flnet.ChildConfig
			cc.ID = t
			cc.RootAddr = root.Addr()
			cc.Workers = len(tier.Members)
			cc.WorkerTimeout = 30 * time.Second
			cc.RoundTimeout = 30 * time.Second
			cc.Downlink = down
			cc.Dial = tracedDial(env.peer(t, false, true))
			var ch *flnet.Child
			if ch, err = flnet.NewChild(cc); err != nil {
				return
			}
			children = append(children, ch)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ch.Run() //nolint:errcheck // a child ends with the root; a failed one stalls RunTree, which reports it
			}()
			for _, ci := range tier.Members {
				train := func(round int, w []float64) ([]float64, int, error) {
					up := eng.TrainClient(round, ci, w)
					return up.Weights, up.NumSamples, nil
				}
				wc := workerConfig(ci, clients[ci].NumSamples(), int8c, env.peer(t, true, true), train)
				wg.Add(1)
				go func() {
					defer wg.Done()
					flnet.RunWorker(ch.Addr(), wc) //nolint:errcheck // a worker ends with its child
				}()
			}
		}
		if err == nil {
			err = root.WaitForChildren(len(sys.Tiers()), 30*time.Second)
		}
	})
	if err != nil {
		return u, err
	}
	env.end(setup)
	u.setupS = setup.dur()

	run := env.begin("run", rep)
	var res *flnet.TieredAsyncRunResult
	env.timed(&u, func() { res, err = root.RunTree() })
	env.end(run)
	root.Close()
	for _, ch := range children {
		ch.Close()
	}
	wg.Wait()
	env.end(rep)
	if err != nil {
		return u, err
	}
	dim := len(res.Weights)
	env.tr.assembleCommits(run, u.netResult(res, sz.treeCommits, treeShard, int64(int8c.EncodedBytes(dim))))
	u.finalAcc = heldOutAcc(env, u.checksum, treeModel, res.Weights, treeData, 2*sz.heldOut)
	u.denseDim = dim
	u.clientRoundProbe = "flcore.client_round_ms_mlp"
	// per commit: the root's pull chain and the child's leaf chain advance,
	// the child rebuilds the pull, and each update's payload is decoded
	u.aggOps = aggOpCounts{dim: dim, chainEncodes: 2 * int64(u.commits), applies: int64(u.commits), decodes: int64(u.attempted - u.failed)}
	u.exact = u.exact && u.checkpoints == sz.treeCommits/treeCkptEvery
	if _, err := tifl.LoadTieredCheckpointFile(cfg.CheckpointPath); err != nil {
		return u, fmt.Errorf("durable checkpoint does not load back: %w", err)
	}
	return u, nil
}

// ---------------------------------------------------------------- layer probes

const (
	probeDim   = 250_000 // the net_flat_* model
	probeBatch = 10      // every workload trains at batch 10
)

func randVec(n int, seed int64, scale float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = scale * rng.NormFloat64()
	}
	return v
}

func randTensor(seed int64, shape ...int) *tensor.Tensor {
	return tensor.RandNormal(rand.New(rand.NewSource(seed)), 0, 1, shape...)
}

// stepProbe times Model.TrainBatch at batch 10 on one resident batch.
func stepProbe(model flcore.ModelFactory, data *dataset.Dataset) func() {
	m := model(rand.New(rand.NewSource(1)))
	m.SetWorkspace(nn.NewWorkspace())
	opt := nn.NewRMSprop(0.001, 0.995)
	var x *tensor.Tensor
	var y []int
	data.BatchesBuf(probeBatch, rand.New(rand.NewSource(2)), &dataset.BatchBuf{}, func(bx *tensor.Tensor, by []int) {
		if x == nil {
			x, y = bx.Clone(), append([]int(nil), by...)
		}
	})
	return func() { m.TrainBatch(x, y, opt) }
}

func evalProbe(model flcore.ModelFactory, data *dataset.Dataset) func() {
	m := model(rand.New(rand.NewSource(1)))
	m.SetWorkspace(nn.NewWorkspace())
	x := data.InputTensor()
	return func() { m.Evaluate(x, data.Y, 100) }
}

// clientRoundProbe times Engine.TrainClient, the whole per-client pass a sim
// dispatch or a leaf worker runs: replica reseed, weight load, one epoch of
// batches, weight read-back.
func clientRoundOp(model flcore.ModelFactory, lr float64, data *dataset.Dataset) func() {
	var cfg flcore.Config
	cfg.Rounds = 1
	cfg.ClientsPerRound = 1
	cfg.LocalEpochs = 1
	cfg.BatchSize = probeBatch
	cfg.Seed = 1
	cfg.Model = model
	cfg.Optimizer = rmsprop(lr)
	cfg.Latency = simres.DefaultModel
	clients := []*flcore.Client{{ID: 0, Train: data, CPU: 1}}
	eng := flcore.NewEngine(cfg, clients, nil)
	w := eng.GlobalWeights()
	round := 0
	return func() {
		eng.TrainClient(round, 0, w)
		round++
	}
}

// probeProfile is 50 profiled latencies in five groups, as tifl.New sees them.
func probeProfile() ([]*flcore.Client, map[int]float64) {
	train := fedatData(population*fedatShard, 1)
	parts := dataset.PartitionIID(train.Len(), population, rand.New(rand.NewSource(2)))
	clients := flcore.BuildClients(train, fedatData(500, 3), parts, simres.AssignGroups(population, simres.GroupsCIFAR), 20, 4)
	return clients, core.Profile(clients, simres.DefaultModel, core.DefaultProfiler).Latency
}

func probeManager() (*tiering.Manager, error) {
	_, lat := probeProfile()
	var cfg tiering.Config
	cfg.NumTiers = 5
	cfg.RetierEvery = 25
	cfg.ClientsPerRound = simCohort
	cfg.Seed = 1
	return tiering.NewManager(cfg, lat)
}

// probeCheckpoint is a net_tree_train-shaped snapshot: the tree MLP's
// weights, two tiers of three, int8 residuals for every client.
func probeCheckpoint() *flcore.TieredCheckpoint {
	dim := treeModel(rand.New(rand.NewSource(1))).NumParams()
	c := &flcore.TieredCheckpoint{}
	c.Format = flcore.TieredCheckpointFormat
	c.Seed = 1
	c.Version = treeCkptEvery
	c.Weights = randVec(dim, 1, 0.1)
	c.Rounds = []int{13, 12}
	c.Commits = []int{13, 12}
	c.Tiers = [][]int{{0, 1, 2}, {3, 4, 5}}
	c.Residuals = map[int][]float64{}
	for id := 0; id < 6; id++ {
		c.Residuals[id] = randVec(dim, int64(id+2), 1e-3)
	}
	return c
}

// stubFleet runs one flat fleet of `workers` identity-stub workers in one
// tier for `commits` commits and returns the per-commit round seconds and
// the set-up time per worker.
func stubFleet(dim, workers, commits int, tree bool) (roundS []float64, registerS float64, err error) {
	var cfg flnet.TieredAsyncConfig
	cfg.GlobalCommits = commits
	cfg.ClientsPerRound = workers
	cfg.RoundTimeout = 30 * time.Second
	cfg.InitialWeights = make([]float64, dim)
	cfg.Seed = 1
	agg, err := flnet.NewTieredAsyncAggregator("127.0.0.1:0", cfg)
	if err != nil {
		return nil, 0, err
	}
	defer agg.Close()
	leafAddr := agg.Addr()
	var wg sync.WaitGroup
	defer wg.Wait()
	if tree {
		var cc flnet.ChildConfig
		cc.ID = 0
		cc.RootAddr = agg.Addr()
		cc.Workers = workers
		cc.WorkerTimeout = 30 * time.Second
		cc.RoundTimeout = 30 * time.Second
		ch, err := flnet.NewChild(cc)
		if err != nil {
			return nil, 0, err
		}
		defer ch.Close()
		leafAddr = ch.Addr()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch.Run() //nolint:errcheck // ends with the root
		}()
	}
	t0 := time.Now()
	members := make([]int, workers)
	for id := range members {
		members[id] = id
		wc := workerConfig(id, stubSamples, nil, nil, func(round int, w []float64) ([]float64, int, error) {
			return w, stubSamples, nil
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			flnet.RunWorker(leafAddr, wc) //nolint:errcheck // ends with its aggregator
		}()
	}
	var res *flnet.TieredAsyncRunResult
	if tree {
		if err = agg.WaitForChildren(1, 30*time.Second); err == nil {
			registerS = time.Since(t0).Seconds() / float64(workers)
			res, err = agg.RunTree()
		}
	} else {
		if err = agg.WaitForWorkers(workers, 30*time.Second); err == nil {
			registerS = time.Since(t0).Seconds() / float64(workers)
			res, err = agg.Run([][]int{members})
		}
	}
	agg.Close()
	if err != nil {
		return nil, 0, err
	}
	for _, c := range res.Log[1:] { // the first commit pays connection warm-up
		roundS = append(roundS, c.Seconds)
	}
	return roundS, registerS, nil
}

func fleetCommits(px *probeCtx, full int) int {
	if px.quick {
		return 6
	}
	return full
}

const (
	movesConv   = "commits_per_s, samples_per_s, round_ms_p50 @ sim_sync_cnn; flat on net_flat_*"
	movesMLP    = "commits_per_s, samples_per_s, round_ms_p50 @ sim_fedat_mlp, net_tree_train; flat on net_flat_*"
	movesWire   = "commits_per_s, round_ms_p50 @ net_flat_dense; flat on sims"
	movesCodec  = "commits_per_s, round_ms_p50 @ net_flat_int8, then sim_fedat_mlp, net_tree_train; flat on net_flat_dense, sim_sync_cnn"
	movesCkpt   = "commits_per_s, round_ms_p50 @ net_tree_train (stall = ckpt_savefile_ms × snapshots ÷ wall); flat elsewhere"
	movesSetup  = "setup_s @ every workload that calls tifl.New"
	movesTiers  = "commits_per_s @ sim_fedat_mlp; any policy change moves sim.time_to_target_s"
	movesDense  = "commits_per_s @ net_flat_dense; flat on sims (2k-parameter model)"
	movesBytes  = "uplink_bytes_per_commit, downlink_bytes_per_commit"
	movesFlnetO = "round_ms_p50 @ net_tree_train, net_flat_int8"
)

// layerProbes are the standalone probes of this repository's layers, in
// dependency order: tensor → nn → dataset → flcore → core/tiering → compress
// → flnet.
var layerProbes = []probe{
	// tensor: kernels, at the shapes the CNN's second convolution and the
	// two MLPs produce at batch 10.
	{name: "tensor.matmul_gflops", unit: "GFLOP/s", better: "higher", moves: movesConv + " (conv input gradient)", scale: 1e9,
		make: func(*probeCtx) (func(), float64, error) {
			a, b, dst := randTensor(1, 128, 128), randTensor(2, 128, 128), tensor.New(128, 128)
			return func() { tensor.MatMulInto(dst, a, b) }, 2 * 128 * 128 * 128, nil
		}},
	{name: "tensor.matmul_abt_gflops", unit: "GFLOP/s", better: "higher", moves: movesConv + " (conv forward, 58 % of its profile)", scale: 1e9,
		make: func(*probeCtx) (func(), float64, error) {
			cols, w, dst := randTensor(1, 1000, 288), randTensor(2, 64, 288), tensor.New(1000, 64)
			return func() { tensor.MatMulABTInto(dst, cols, w) }, 2 * 1000 * 288 * 64, nil
		}},
	{name: "tensor.matmul_atb_gflops", unit: "GFLOP/s", better: "higher", moves: movesMLP + " (dense weight gradient)", scale: 1e9,
		make: func(*probeCtx) (func(), float64, error) {
			x, g, dst := randTensor(1, probeBatch, 1600), randTensor(2, probeBatch, 128), tensor.New(1600, 128)
			return func() { tensor.MatMulATBInto(dst, x, g) }, 2 * probeBatch * 1600 * 128, nil
		}},
	{name: "tensor.matmul_small_gflops", unit: "GFLOP/s", better: "higher", moves: movesMLP + " (dense forward)", scale: 1e9,
		make: func(*probeCtx) (func(), float64, error) {
			x, w, dst := randTensor(1, probeBatch, treeDim), randTensor(2, treeDim, 128), tensor.New(probeBatch, 128)
			return func() { tensor.MatMulInto(dst, x, w) }, 2 * probeBatch * treeDim * 128, nil
		}},
	{name: "tensor.im2col_mb_s", unit: "MB/s", better: "higher", moves: movesConv, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			x, dst := randTensor(1, probeBatch, 32, 12, 12), tensor.New(probeBatch*10*10, 32*9)
			return func() { tensor.Im2ColInto(dst, x, 3, 3, 1, 0) }, float64(8 * dst.Size()), nil
		}},
	{name: "tensor.col2im_mb_s", unit: "MB/s", better: "higher", moves: movesConv, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			cols, dst := randTensor(1, probeBatch*10*10, 32*9), tensor.New(probeBatch, 32, 12, 12)
			return func() { tensor.Col2ImInto(dst, cols, 3, 3, 1, 0) }, float64(8 * cols.Size()), nil
		}},
	{name: "tensor.maxpool_mb_s", unit: "MB/s", better: "higher", moves: movesConv, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			x, dst := randTensor(1, probeBatch, 64, 10, 10), tensor.New(probeBatch, 64, 5, 5)
			var arg []int
			return func() { arg = tensor.MaxPool2DInto(dst, arg, x, 2, 2) }, float64(8 * x.Size()), nil
		}},
	{name: "tensor.axpy_sharded_gb_s", unit: "GB/s", better: "higher", moves: movesDense, scale: 1e9,
		make: func(*probeCtx) (func(), float64, error) {
			const k, n = 20, 100_000
			dst, coeffs, srcs := make([]float64, n), make([]float64, k), make([][]float64, k)
			for i := range srcs {
				coeffs[i], srcs[i] = 1.0/k, randVec(n, int64(i), 1)
			}
			return func() { tensor.AxpySharded(dst, coeffs, srcs) }, 8 * k * n, nil
		}},
	{name: "tensor.pool_get_put_ns", unit: "ns", better: "lower", moves: movesConv + "; " + movesMLP, perOp: true, scale: 1e9,
		make: func(*probeCtx) (func(), float64, error) {
			var p tensor.Pool
			return func() { p.PutTensor(p.GetTensor(probeBatch, 128)) }, 1, nil
		}},

	// nn: train step, eval, optimizer, weight (de)serialisation.
	{name: "nn.cnn_step_samples_s", unit: "1/s", better: "higher", moves: movesConv, scale: 1,
		make: func(*probeCtx) (func(), float64, error) {
			return stepProbe(cnnModel, cnnData(cnnShard, 1)), probeBatch, nil
		}},
	{name: "nn.mlp_step_samples_s", unit: "1/s", better: "higher", moves: "samples_per_s @ net_tree_train (single-worker baseline)", scale: 1,
		make: func(*probeCtx) (func(), float64, error) {
			return stepProbe(treeModel, treeData(treeShard, 1)), probeBatch, nil
		}},
	{name: "nn.mlp_small_step_samples_s", unit: "1/s", better: "higher", moves: "samples_per_s @ sim_fedat_mlp", scale: 1,
		make: func(*probeCtx) (func(), float64, error) {
			return stepProbe(fedatModel, fedatData(fedatShard, 1)), probeBatch, nil
		}},
	{name: "nn.cnn_step_allocs", unit: "count", better: "lower", moves: "runtime.mallocs_per_commit @ sim_sync_cnn (0 single-threaded; what is left are the sharded kernels' goroutines)",
		value: func(*probeCtx) (float64, error) {
			return allocsPerOp(stepProbe(cnnModel, cnnData(cnnShard, 1)), 5), nil
		}},
	{name: "nn.mlp_step_allocs", unit: "count", better: "lower", moves: "runtime.mallocs_per_commit @ net_tree_train (0 single-threaded)",
		value: func(*probeCtx) (float64, error) {
			return allocsPerOp(stepProbe(treeModel, treeData(treeShard, 1)), 50), nil
		}},
	{name: "nn.cnn_eval_samples_s", unit: "1/s", better: "higher", moves: "commits_per_s @ sim_sync_cnn (Algorithm 2's per-tier evaluation, 11 % of its profile)", scale: 1,
		make: func(*probeCtx) (func(), float64, error) { return evalProbe(cnnModel, cnnData(100, 1)), 100, nil }},
	{name: "nn.mlp_eval_samples_s", unit: "1/s", better: "higher", moves: "final_acc evaluation only: outside every timed phase", scale: 1,
		make: func(*probeCtx) (func(), float64, error) { return evalProbe(treeModel, treeData(500, 1)), 500, nil }},
	{name: "nn.mlp_small_eval_samples_s", unit: "1/s", better: "higher", moves: "commits_per_s @ sim_fedat_mlp (periodic and per-tier evaluation)", scale: 1,
		make: func(*probeCtx) (func(), float64, error) { return evalProbe(fedatModel, fedatData(500, 1)), 500, nil }},
	{name: "nn.rmsprop_mparams_s", unit: "M/s", better: "higher", moves: movesConv + " (225k parameters stepped per batch)", scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			m := cnnModel(rand.New(rand.NewSource(1)))
			opt := nn.NewRMSprop(0.001, 0.995)
			params, grads := m.Params(), m.Grads()
			for _, g := range grads {
				g.Fill(0.01)
			}
			return func() { opt.Step(params, grads) }, float64(m.NumParams()), nil
		}},
	{name: "nn.encode_weights_mb_s", unit: "MB/s", better: "higher", moves: movesWire, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			w := randVec(probeDim, 1, 1)
			return func() { nn.EncodeWeights(w) }, 8 * probeDim, nil
		}},
	{name: "nn.decode_weights_mb_s", unit: "MB/s", better: "higher", moves: movesWire, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			buf := nn.EncodeWeights(randVec(probeDim, 1, 1))
			return func() {
				if _, err := nn.DecodeWeights(buf); err != nil {
					panic(err)
				}
			}, 8 * probeDim, nil
		}},

	// dataset: generation and batching.
	{name: "dataset.generate_samples_s", unit: "1/s", better: "higher", moves: "setup_s @ all", scale: 1,
		make: func(*probeCtx) (func(), float64, error) {
			return func() { cnnData(population*cnnShard, 1) }, population * cnnShard, nil
		}},
	{name: "dataset.batches_samples_s", unit: "1/s", better: "higher", moves: "samples_per_s @ sim_sync_cnn; flat on net_flat_*", scale: 1,
		make: func(*probeCtx) (func(), float64, error) {
			d, rng, buf := cnnData(200, 1), rand.New(rand.NewSource(1)), &dataset.BatchBuf{}
			return func() { d.BatchesBuf(probeBatch, rng, buf, func(*tensor.Tensor, []int) {}) }, 200, nil
		}},

	// flcore: client round, aggregation, the sim committer alone, checkpoint.
	{name: "flcore.client_round_ms_cnn", unit: "ms", better: "lower", moves: "round_ms_p50 @ sim_sync_cnn", perOp: true, scale: 1e3,
		make: func(*probeCtx) (func(), float64, error) {
			return clientRoundOp(cnnModel, 0.003, cnnData(cnnShard, 1)), 1, nil
		}},
	{name: "flcore.client_round_ms_mlp", unit: "ms", better: "lower", moves: "round_ms_p50 @ net_tree_train", perOp: true, scale: 1e3,
		make: func(*probeCtx) (func(), float64, error) {
			return clientRoundOp(treeModel, 0.003, treeData(treeShard, 1)), 1, nil
		}},
	{name: "flcore.client_round_ms_mlp_small", unit: "ms", better: "lower", moves: "round_ms_p50 @ sim_fedat_mlp", perOp: true, scale: 1e3,
		make: func(*probeCtx) (func(), float64, error) {
			return clientRoundOp(fedatModel, 0.01, fedatData(fedatShard, 1)), 1, nil
		}},
	{name: "flcore.fedavg_gb_s", unit: "GB/s", better: "higher", moves: movesDense, scale: 1e9,
		make: func(*probeCtx) (func(), float64, error) {
			const k, n = 20, 100_000
			ups, dst := make([]flcore.Update, k), make([]float64, n)
			for i := range ups {
				ups[i] = flcore.Update{ClientID: i, Weights: randVec(n, int64(i), 1), NumSamples: 100 + i}
			}
			return func() { flcore.FedAvgInto(dst, ups) }, 8 * k * n, nil
		}},
	{name: "flcore.fedavg_small_us", unit: "us", better: "lower", moves: "commits_per_s @ sim_fedat_mlp", perOp: true, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			const k, n = simCohort, 2_000
			ups, dst := make([]flcore.Update, k), make([]float64, n)
			for i := range ups {
				ups[i] = flcore.Update{ClientID: i, Weights: randVec(n, int64(i), 1), NumSamples: 100}
			}
			return func() { flcore.FedAvgInto(dst, ups) }, 1, nil
		}},
	{name: "flcore.commitmix_gb_s", unit: "GB/s", better: "higher", moves: movesDense, scale: 1e9,
		make: func(*probeCtx) (func(), float64, error) {
			g, c := randVec(probeDim, 1, 1), randVec(probeDim, 2, 1)
			return func() { flcore.CommitMix(g, c, 0.6, 1, 1, 0.5) }, 2 * 8 * probeDim, nil
		}},
	{name: "flcore.sim_stub_commits_per_s", unit: "1/s", better: "higher", moves: "commits_per_s @ sim_fedat_mlp (engine, heap and cohort overhead alone)",
		value: func(px *probeCtx) (float64, error) {
			// 1-sample logistic clients: training is as close to free as the
			// engine allows, so what is left is the committer itself.
			d := fedatData(population, 1)
			parts := dataset.PartitionIID(d.Len(), population, rand.New(rand.NewSource(2)))
			clients := flcore.BuildClients(d, nil, parts, simres.AssignGroups(population, simres.GroupsCIFAR), 0, 3)
			lat := core.Profile(clients, simres.DefaultModel, core.DefaultProfiler).Latency
			tiers := core.TierMembers(core.BuildTiers(lat, 5, core.Quantile))
			var cfg flcore.TieredAsyncConfig
			cfg.Duration = 60
			if px.quick {
				cfg.Duration = 10
			}
			cfg.ClientsPerRound = simCohort
			cfg.Seed = 1
			cfg.Model = func(rng *rand.Rand) *nn.Model { return nn.NewLogistic(rng, dataset.CIFAR10Like.Dim, 10) }
			cfg.Optimizer = rmsprop(0.01)
			cfg.Latency = simres.DefaultModel
			var rates []float64
			for i := 0; i <= probeBatches; i++ {
				t0 := time.Now()
				res := flcore.RunTieredAsync(cfg, tiers, clients, nil)
				if i > 0 {
					rates = append(rates, float64(len(res.TierRounds))/time.Since(t0).Seconds())
				}
			}
			return median(rates), nil
		}},
	{name: "flcore.lazy_acquire_us", unit: "us", better: "lower", moves: "commits_per_s @ population-scale sims (no workload here uses a lazy source: flat on all five)", perOp: true, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			d := fedatData(population*fedatShard, 1)
			parts := dataset.PartitionIID(d.Len(), population, rand.New(rand.NewSource(2)))
			src := flcore.NewLazyClients(population, func(id int) *flcore.Client {
				return flcore.BuildClient(d, nil, parts[id], 1, 0, 3, id)
			})
			id := 0
			return func() {
				src.Release(src.Acquire(id % population))
				id++
			}, 1, nil
		}},
	{name: "flcore.ckpt_encode_mb_s", unit: "MB/s", better: "higher", moves: movesCkpt, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			c := probeCheckpoint()
			data, err := c.Encode()
			return func() {
				if _, err := c.Encode(); err != nil {
					panic(err)
				}
			}, float64(len(data)), err
		}},
	{name: "flcore.ckpt_decode_mb_s", unit: "MB/s", better: "higher", moves: "resume time only: flat on all five workloads", scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			data, err := probeCheckpoint().Encode()
			return func() {
				if _, err := flcore.DecodeTieredCheckpoint(data); err != nil {
					panic(err)
				}
			}, float64(len(data)), err
		}},
	{name: "flcore.ckpt_savefile_ms", unit: "ms", better: "lower", moves: movesCkpt, perOp: true, scale: 1e3,
		make: func(px *probeCtx) (func(), float64, error) {
			c, path := probeCheckpoint(), filepath.Join(px.tmp, "probe.ckpt")
			return func() {
				if err := c.SaveFile(path); err != nil { // encode + write + fsync + rename
					panic(err)
				}
			}, 1, nil
		}},
	{name: "flcore.ckpt_bytes", unit: "B", better: "lower", moves: movesCkpt,
		value: func(*probeCtx) (float64, error) {
			data, err := probeCheckpoint().Encode()
			return float64(len(data)), err
		}},

	// core / tiering: profile, tier, select, re-tier.
	{name: "core.profile_us_per_client", unit: "us", better: "lower", moves: movesSetup, perOp: true, scale: 1e6 / population,
		make: func(*probeCtx) (func(), float64, error) {
			clients, _ := probeProfile()
			return func() { core.Profile(clients, simres.DefaultModel, core.DefaultProfiler) }, 1, nil
		}},
	{name: "core.buildtiers_us", unit: "us", better: "lower", moves: movesSetup, perOp: true, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			_, lat := probeProfile()
			return func() { core.BuildTiers(lat, 5, core.Quantile) }, 1, nil
		}},
	{name: "core.adaptive_select_us", unit: "us", better: "lower", moves: "commits_per_s @ sim_sync_cnn", perOp: true, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			clients, lat := probeProfile()
			sel := core.NewAdaptiveSelector(core.BuildTiers(lat, 5, core.Quantile), clients, core.AdaptiveConfig{ClientsPerRound: simCohort, Interval: 4, TestPerTier: 10})
			rng, r := rand.New(rand.NewSource(1)), 0
			return func() {
				sel.Select(r, rng)
				r++
			}, 1, nil
		}},
	{name: "core.adaptive_afterround_ms", unit: "ms", better: "lower", moves: "commits_per_s @ sim_sync_cnn (11 % of its profile)", perOp: true, scale: 1e3,
		make: func(*probeCtx) (func(), float64, error) {
			train := cnnData(population*cnnShard, 1)
			parts := dataset.PartitionIID(train.Len(), population, rand.New(rand.NewSource(2)))
			clients := flcore.BuildClients(train, cnnData(100, 3), parts, simres.AssignGroups(population, simres.GroupsMNIST), 20, 4)
			lat := core.Profile(clients, simres.DefaultModel, core.DefaultProfiler).Latency
			sel := core.NewAdaptiveSelector(core.BuildTiers(lat, 5, core.Quantile), clients, core.AdaptiveConfig{ClientsPerRound: simCohort, Interval: 4, TestPerTier: 10})
			m := cnnModel(rand.New(rand.NewSource(1)))
			m.SetWorkspace(nn.NewWorkspace())
			r := 0
			return func() {
				sel.AfterRound(r, func(d *dataset.Dataset) float64 {
					acc, _ := m.Evaluate(d.InputTensor(), d.Y, 100)
					return acc
				})
				r++
			}, 1, nil
		}},
	{name: "tiering.observe_ns", unit: "ns", better: "lower", moves: movesTiers, perOp: true, scale: 1e9,
		make: func(*probeCtx) (func(), float64, error) {
			m, err := probeManager()
			i := 0
			return func() {
				m.Observe(i%population, 1+float64(i%7))
				i++
			}, 1, err
		}},
	{name: "tiering.cohort_us", unit: "us", better: "lower", moves: movesTiers, perOp: true, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			m, err := probeManager()
			r := 0
			return func() {
				m.Cohort(r%5, r, simCohort)
				r++
			}, 1, err
		}},
	{name: "tiering.maybe_retier_us", unit: "us", better: "lower", moves: movesTiers, perOp: true, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			m, err := probeManager()
			v := 0
			return func() {
				// Every call lands on a rebuild point, with estimates that
				// drifted since the last one.
				m.Observe(v%population, 1+float64(v%11))
				v += 25
				m.MaybeRetier(v)
			}, 1, err
		}},

	// compress: uplink codecs and downlink chains on the 250k-parameter model.
	{name: "compress.int8_encode_mb_s", unit: "MB/s", better: "higher", moves: movesCodec, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			c, w := compress.NewInt8(0), randVec(probeDim, 1, 0.01)
			return func() { c.Encode(w) }, 8 * probeDim, nil
		}},
	{name: "compress.int8_decode_mb_s", unit: "MB/s", better: "higher", moves: movesCodec, scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			c := compress.NewInt8(0)
			payload := c.Encode(randVec(probeDim, 1, 0.01))
			return func() {
				if _, err := c.Decode(payload, probeDim); err != nil {
					panic(err)
				}
			}, 8 * probeDim, nil
		}},
	{name: "compress.topk_encode_mb_s", unit: "MB/s", better: "higher", moves: "no workload uses top-k (ext_downlink: quantize, don't sparsify): flat on all five", scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			c, w := compress.NewTopK(0.1), randVec(probeDim, 1, 0.01)
			return func() { c.Encode(w) }, 8 * probeDim, nil
		}},
	{name: "compress.topk_decode_mb_s", unit: "MB/s", better: "higher", moves: "flat on all five workloads", scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			c := compress.NewTopK(0.1)
			payload := c.Encode(randVec(probeDim, 1, 0.01))
			return func() {
				if _, err := c.Decode(payload, probeDim); err != nil {
					panic(err)
				}
			}, 8 * probeDim, nil
		}},
	{name: "compress.encode_delta_int8_mb_s", unit: "MB/s", better: "higher", moves: movesCodec + " (the worker's error-feedback path)", scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			c, src, delta := compress.NewInt8(0), randVec(probeDim, 1, 0.01), make([]float64, probeDim)
			var residual []float64
			return func() {
				copy(delta, src)
				_, _, residual = compress.EncodeDelta(c, delta, residual)
			}, 8 * probeDim, nil
		}},
	{name: "compress.chain_xor_encode_mb_s", unit: "MB/s", better: "higher", moves: "no workload broadcasts the lossless delta: flat on all five", scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) { return chainProbe(&compress.Downlink{}) }},
	{name: "compress.chain_int8_encode_mb_s", unit: "MB/s", better: "higher", moves: movesCodec + " (once per tier round, aggregator side)", scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			return chainProbe(&compress.Downlink{Codec: compress.NewInt8(0)})
		}},
	{name: "compress.apply_delta_xor_mb_s", unit: "MB/s", better: "higher", moves: "flat on all five workloads", scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) { return applyProbe(&compress.Downlink{}) }},
	{name: "compress.apply_delta_int8_mb_s", unit: "MB/s", better: "higher", moves: movesCodec + " (every worker, every round)", scale: 1e6,
		make: func(*probeCtx) (func(), float64, error) {
			return applyProbe(&compress.Downlink{Codec: compress.NewInt8(0)})
		}},
	{name: "compress.int8_ratio", unit: "ratio", better: "higher", moves: movesBytes,
		value: func(*probeCtx) (float64, error) {
			return float64(compress.DenseBytes(probeDim)) / float64(compress.NewInt8(0).EncodedBytes(probeDim)), nil
		}},
	{name: "compress.xor_delta_ratio", unit: "ratio", better: "higher", moves: movesBytes + " under the lossless downlink",
		value: func(*probeCtx) (float64, error) {
			ch := (&compress.Downlink{}).NewChain()
			base := randVec(probeDim, 1, 1)
			ch.Adopt(base)
			payload, _ := ch.Encode(nextVersion(base, 1))
			return float64(compress.DenseBytes(probeDim)) / float64(len(payload)), nil
		}},

	// flnet: registration, a dense round trip, and the fixed per-commit
	// protocol cost flat and through one child.
	{name: "flnet.register_ms_per_worker", unit: "ms", better: "lower", moves: "setup_s @ net_*",
		value: func(px *probeCtx) (float64, error) {
			var v []float64
			for i := 0; i < 3; i++ {
				_, reg, err := stubFleet(8, 4, 2, false)
				if err != nil {
					return 0, err
				}
				v = append(v, reg*1e3)
			}
			return median(v), nil
		}},
	{name: "flnet.roundtrip_dense_mb_s", unit: "MB/s", better: "higher", moves: "commits_per_s @ net_flat_dense, against ceiling.loopback_mb_s",
		value: func(px *probeCtx) (float64, error) {
			rounds, _, err := stubFleet(probeDim, 1, fleetCommits(px, 24), false)
			return 2 * float64(compress.DenseBytes(probeDim)) / median(rounds) / 1e6, err
		}},
	{name: "flnet.commit_overhead_us", unit: "us", better: "lower", moves: movesFlnetO,
		value: func(px *probeCtx) (float64, error) {
			rounds, _, err := stubFleet(8, 1, fleetCommits(px, 400), false)
			return median(rounds) * 1e6, err
		}},
	{name: "flnet.tree_commit_overhead_us", unit: "us", better: "lower", moves: movesFlnetO,
		value: func(px *probeCtx) (float64, error) {
			rounds, _, err := stubFleet(8, 1, fleetCommits(px, 400), true)
			return median(rounds) * 1e6, err
		}},
}

// nextVersion is a model one small training step away from base, the kind of
// neighbour a downlink delta is taken against.
func nextVersion(base []float64, seed int64) []float64 {
	step := randVec(len(base), seed+100, 1e-3)
	for i, b := range base {
		step[i] += b
	}
	return step
}

// chainProbe advances a downlink chain between two neighbouring versions.
func chainProbe(d *compress.Downlink) (func(), float64, error) {
	ch := d.NewChain()
	a := randVec(probeDim, 1, 1)
	b := nextVersion(a, 1)
	ch.Adopt(a)
	flip := false
	return func() {
		if flip = !flip; flip {
			ch.Encode(b)
		} else {
			ch.Encode(a)
		}
	}, 8 * probeDim, nil
}

func applyProbe(d *compress.Downlink) (func(), float64, error) {
	ch := d.NewChain()
	base := randVec(probeDim, 1, 1)
	ch.Adopt(base)
	payload, id := ch.Encode(nextVersion(base, 1))
	return func() {
		if _, err := compress.ApplyDelta(id, payload, base); err != nil {
			panic(err)
		}
	}, 8 * probeDim, nil
}
