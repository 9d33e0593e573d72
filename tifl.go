// Package tifl is the public API of this reproduction of "TiFL: A
// Tier-based Federated Learning System" (Chai et al., HPDC 2020).
//
// TiFL mitigates the straggler problem of synchronous cross-device
// federated learning: it profiles client response latencies, groups clients
// into tiers, and selects each round's participants from a single tier — by
// a fixed policy (Table 1 of the paper) or adaptively based on per-tier
// test accuracy under per-tier credit budgets (Algorithm 2).
//
// Quickstart:
//
//	clients := ...                             // your federated population
//	sys, err := tifl.New(clients, tifl.Options{})
//	res := sys.Train(cfg, testSet, tifl.Adaptive(tifl.AdaptiveConfig{ClientsPerRound: 5}))
//
// See examples/ for runnable end-to-end programs and internal/experiments
// for the paper's full evaluation harness.
package tifl

import (
	"fmt"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/estimate"
	"repro/internal/flcore"
	"repro/internal/flnet"
	"repro/internal/privacy"
	"repro/internal/simres"
	"repro/internal/tiering"
)

// Re-exported building blocks, so downstream users need only this package.
type (
	// Client is one federated data party (see flcore.Client).
	Client = flcore.Client
	// Config holds federated training hyperparameters (see flcore.Config).
	Config = flcore.Config
	// Result is a finished training job (see flcore.Result).
	Result = flcore.Result
	// Dataset is a labeled feature dataset (see dataset.Dataset).
	Dataset = dataset.Dataset
	// Tier is one latency group of clients (see core.Tier).
	Tier = core.Tier
	// StaticPolicy is a fixed tier-probability policy (see core.StaticPolicy).
	StaticPolicy = core.StaticPolicy
	// AdaptiveConfig parameterizes Algorithm 2 (see core.AdaptiveConfig).
	AdaptiveConfig = core.AdaptiveConfig
	// ProfilerConfig controls latency profiling (see core.ProfilerConfig).
	ProfilerConfig = core.ProfilerConfig
	// LatencyModel maps resources to response latency (see simres.LatencyModel).
	LatencyModel = simres.LatencyModel
	// Guarantee is an (ε, δ) differential-privacy guarantee.
	Guarantee = privacy.Guarantee
	// TieredAsyncConfig configures FedAT-style tiered-asynchronous training
	// (see flcore.TieredAsyncConfig).
	TieredAsyncConfig = flcore.TieredAsyncConfig
	// TieredAsyncResult is a finished tiered-asynchronous job with its
	// per-tier commit log (see flcore.TieredAsyncResult).
	TieredAsyncResult = flcore.TieredAsyncResult
	// TierWeightFunc supplies cross-tier aggregation weights (see
	// flcore.TierWeightFunc).
	TierWeightFunc = flcore.TierWeightFunc
	// NetTieredAsyncResult is a finished distributed tiered-asynchronous
	// job with its per-commit log (see flnet.TieredAsyncRunResult).
	NetTieredAsyncResult = flnet.TieredAsyncRunResult
	// Codec compresses client updates on their way to the aggregator (see
	// compress.Codec). Int8Codec, TopKCodec, and ParseCodec build them.
	Codec = compress.Codec
	// Downlink delta-compresses the broadcast (aggregator → worker)
	// direction against each worker's last-acked model version (see
	// compress.Downlink). Delta, DeltaCodec, and ParseDownlink build them;
	// nil means dense snapshots.
	Downlink = compress.Downlink
	// TieredCheckpoint is a crash-safe snapshot of a tiered-asynchronous
	// run — simulated or distributed (see flcore.TieredCheckpoint).
	TieredCheckpoint = flcore.TieredCheckpoint
)

// LoadTieredCheckpointFile reads a durable TieredCheckpoint written by a
// tiered-async run (NetOptions.CheckpointPath, or the sim engine's
// SaveFile), falling back to the rotated previous snapshot when the newest
// file is truncated or corrupt (see flcore.LoadTieredCheckpointFile).
func LoadTieredCheckpointFile(path string) (*TieredCheckpoint, error) {
	return flcore.LoadTieredCheckpointFile(path)
}

// Update-compression constructors, re-exported so downstream users need
// only this package.

// Int8Codec is uniform 8-bit quantization with per-chunk scales (~8x
// smaller uplink updates; see compress.Int8).
func Int8Codec() Codec { return compress.NewInt8(0) }

// TopKCodec keeps only the given fraction of each update's coordinates
// (fraction 0.1 ≈ 10x smaller uplink updates; see compress.TopK).
func TopKCodec(fraction float64) Codec { return compress.NewTopK(fraction) }

// ParseCodec builds a codec from a spec string: "none", "int8", or
// "topk@0.1" (see compress.Parse) — the syntax of tifl-node's -codec flag.
func ParseCodec(spec string) (Codec, error) { return compress.Parse(spec) }

// Delta is the lossless downlink mode: broadcasts travel as the
// DEFLATE-compressed XOR of float64 bit patterns against each worker's
// last-acked version, reconstructing bit-exactly (see compress.Downlink).
func Delta() *Downlink { return &compress.Downlink{} }

// DeltaCodec is a lossy downlink mode: the broadcast delta runs through
// the given codec, with the encoding error kept as a server-side
// per-tier error-feedback residual. Prefer quantizing codecs (Int8Codec):
// sparsified broadcast destabilizes FedAT's commit mixing (see the
// ext_downlink experiment).
func DeltaCodec(c Codec) *Downlink { return &compress.Downlink{Codec: c} }

// ParseDownlink builds a downlink mode from a spec string: "dense",
// "delta", or "delta+<codec>" (see compress.ParseDownlink) — the syntax
// of tifl-node's -downlink-codec flag.
func ParseDownlink(spec string) (*Downlink, error) { return compress.ParseDownlink(spec) }

// The paper's Table 1 policies, re-exported.
var (
	PolicySlow    = core.PolicySlow
	PolicyUniform = core.PolicyUniform
	PolicyRandom  = core.PolicyRandom
	PolicyFast    = core.PolicyFast
	PolicyFast1   = core.PolicyFast1
	PolicyFast2   = core.PolicyFast2
	PolicyFast3   = core.PolicyFast3
)

// Options configures profiling and tiering for a System.
type Options struct {
	// Latency is the resource model used for profiling and training
	// latencies; zero value uses simres.DefaultModel.
	Latency LatencyModel
	// Profiler overrides the profiling pass; zero value uses
	// core.DefaultProfiler.
	Profiler ProfilerConfig
	// NumTiers is m, the number of latency tiers (default 5, the paper's
	// setting).
	NumTiers int
	// EqualWidthTiers selects the paper's equal-width histogram split
	// instead of the default balanced quantile split.
	EqualWidthTiers bool
	// CompressionOptions supplies the default update codec for every
	// training job on this system: client updates are compressed with
	// error feedback and the latency model charges for encoded bytes. A
	// job's config can still override it by setting its own Codec;
	// AdaptiveCompression applies to distributed jobs only.
	CompressionOptions
	// TieringOptions makes the tiered-async jobs re-tier mid-run instead
	// of freezing the profiled tiers (internal/tiering). They apply to
	// TrainTieredAsync, TrainTieredAsyncNet, and TrainTieredAsyncTree;
	// NetOptions can override them per distributed job.
	TieringOptions
}

// System is a profiled and tiered federation, ready to train under any
// selection policy.
type System struct {
	clients  []*Client
	latency  LatencyModel
	tiers    []Tier
	dropouts []int
	codec    Codec           // default update compression (Options.Compression)
	profile  map[int]float64 // profiled per-client latencies (Manager seeding)
	opts     Options         // live-tiering defaults
}

// New profiles the clients and builds tiers. It returns an error if the
// population is empty or profiling excludes every client.
func New(clients []*Client, opts Options) (*System, error) {
	if len(clients) == 0 {
		return nil, fmt.Errorf("tifl: no clients")
	}
	lm := opts.Latency
	if lm == (LatencyModel{}) {
		lm = simres.DefaultModel
	}
	pc := opts.Profiler
	if pc.SyncRounds == 0 {
		pc = core.DefaultProfiler
	}
	m := opts.NumTiers
	if m == 0 {
		m = 5
	}
	prof := core.Profile(clients, lm, pc)
	if len(prof.Latency) == 0 {
		return nil, fmt.Errorf("tifl: all %d clients dropped out during profiling", len(clients))
	}
	strategy := core.Quantile
	if opts.EqualWidthTiers {
		strategy = core.EqualWidth
	}
	tiers := core.BuildTiers(prof.Latency, m, strategy)
	return &System{
		clients: clients, latency: lm, tiers: tiers, dropouts: prof.Dropouts,
		codec: opts.Compression, profile: prof.Latency, opts: opts,
	}, nil
}

// Tiers returns the latency tiers, fastest first.
func (s *System) Tiers() []Tier { return s.tiers }

// Dropouts returns clients excluded during profiling.
func (s *System) Dropouts() []int { return s.dropouts }

// Clients returns the profiled population.
func (s *System) Clients() []*Client { return s.clients }

// Policy selects how each round's clients are chosen.
type Policy struct {
	kind     policyKind
	static   StaticPolicy
	adaptive AdaptiveConfig
}

type policyKind int

const (
	kindVanilla policyKind = iota
	kindStatic
	kindAdaptive
)

// Vanilla is conventional FL: |C| clients uniformly from the whole pool.
func Vanilla() Policy { return Policy{kind: kindVanilla} }

// Static selects tiers by the fixed probabilities of p (Section 4.3).
func Static(p StaticPolicy) Policy { return Policy{kind: kindStatic, static: p} }

// Adaptive selects tiers by Algorithm 2 (Section 4.4).
func Adaptive(cfg AdaptiveConfig) Policy { return Policy{kind: kindAdaptive, adaptive: cfg} }

// Selector materializes the policy against this system's tiers; the result
// plugs into a flcore.Engine. clientsPerRound is |C|.
func (s *System) Selector(p Policy, clientsPerRound int) flcore.Selector {
	switch p.kind {
	case kindVanilla:
		return &flcore.RandomSelector{NumClients: len(s.clients), ClientsPerRound: clientsPerRound}
	case kindStatic:
		return core.NewStaticSelector(s.tiers, p.static, clientsPerRound)
	case kindAdaptive:
		cfg := p.adaptive
		if cfg.ClientsPerRound == 0 {
			cfg.ClientsPerRound = clientsPerRound
		}
		return core.NewAdaptiveSelector(s.tiers, s.clients, cfg)
	default:
		panic(fmt.Sprintf("tifl: unknown policy kind %d", p.kind))
	}
}

// Train runs a federated training job over this system's clients with the
// given policy, evaluating on test.
func (s *System) Train(cfg Config, test *Dataset, p Policy) *Result {
	return s.Engine(cfg, test).Run(s.Selector(p, cfg.ClientsPerRound))
}

// Engine builds a training engine over this system's clients for callers
// that need the lower-level API: checkpoint/resume (flcore.Checkpoint),
// custom round loops, or manual update handling. The system's latency
// model is applied when cfg leaves it zero.
func (s *System) Engine(cfg Config, test *Dataset) *flcore.Engine {
	if cfg.Latency == (LatencyModel{}) {
		cfg.Latency = s.latency
	}
	if cfg.Codec == nil {
		cfg.Codec = s.codec
	}
	return flcore.NewEngine(cfg, s.clients, test)
}

// FedATWeights is FedAT's slower-tier-favoring cross-tier weighting (see
// core.FedATWeights), the default for TrainTieredAsync.
func FedATWeights() TierWeightFunc { return core.FedATWeights() }

// UniformTierWeights mixes every tier commit at the neutral base rate (see
// core.UniformTierWeights).
func UniformTierWeights() TierWeightFunc { return core.UniformTierWeights() }

// tieringManager builds the live tiering Manager from the system's
// profiled latencies when the effective options ask for one (RetierEvery
// > 0 or AdaptiveSelection); nil keeps the profiled tiers frozen.
func (s *System) tieringManager(o Options, clientsPerRound int, seed int64) (flcore.TierManager, error) {
	if !o.Live() {
		return nil, nil
	}
	mgr, err := tiering.NewManager(tiering.Config{
		NumTiers:        len(s.tiers),
		RetierEvery:     o.RetierEvery,
		EWMABeta:        o.EWMABeta,
		EqualWidth:      o.EqualWidthTiers,
		ClientsPerRound: clientsPerRound,
		Seed:            seed,
		Adaptive:        o.AdaptiveSelection,
		Credits:         o.Credits,
	}, s.profile)
	if err != nil {
		return nil, fmt.Errorf("tifl: building tiering manager: %w", err)
	}
	return mgr, nil
}

// TrainTieredAsync runs FedAT-style tiered-asynchronous training over this
// system's tiers: each tier runs its own synchronous mini-FedAvg rounds,
// tiers advance asynchronously over simulated time, and every committed
// tier round is mixed into the global model with a staleness-discounted,
// slower-tier-favoring weight. The system's latency model and FedAT's
// cross-tier weights are applied when cfg leaves them zero. Each tier
// round's cohort trains concurrently (see flcore.TieredAsyncConfig for why
// results are independent of the core count and what that asks of the
// Model and Optimizer factories). When the
// system's Options enable live tiering (RetierEvery / AdaptiveSelection),
// a tiering.Manager owns membership for the run: observed latencies feed
// its EWMA estimates and clients migrate between the tier loops at its
// rebuild points.
func (s *System) TrainTieredAsync(cfg TieredAsyncConfig, test *Dataset) *TieredAsyncResult {
	if cfg.Latency == (LatencyModel{}) {
		cfg.Latency = s.latency
	}
	if cfg.TierWeight == nil {
		cfg.TierWeight = core.FedATWeights()
	}
	if cfg.Codec == nil {
		cfg.Codec = s.codec
	}
	if cfg.Downlink == nil {
		cfg.Downlink = s.opts.Downlink
	}
	if cfg.Manager == nil {
		mgr, err := s.tieringManager(s.opts, cfg.ClientsPerRound, cfg.Seed)
		if err != nil {
			panic(err) // invalid Options surface at construction, like flcore's config panics
		}
		cfg.Manager = mgr
	}
	if cfg.Manager != nil {
		return flcore.RunTieredAsync(cfg, nil, s.clients, test)
	}
	return flcore.RunTieredAsync(cfg, core.TierMembers(s.tiers), s.clients, test)
}

// NetOptions configures the socket layer of a distributed tiered-async run
// (TrainTieredAsyncNet).
type NetOptions struct {
	// Addr is the aggregator listen address (default "127.0.0.1:0", an
	// ephemeral loopback port).
	Addr string
	// GlobalCommits is the number of tier-round commits to apply before
	// finishing — the wall-clock analogue of TieredAsyncConfig.Duration.
	GlobalCommits int
	// RoundTimeout bounds each tier mini-round (default 60s).
	RoundTimeout time.Duration
	// WorkerTimeout bounds the registration wait (default 30s).
	WorkerTimeout time.Duration
	// CompressionOptions is the wire codec policy for this job: workers
	// negotiate Compression at registration (trained deltas travel as
	// compressed MsgCompressedUpdate payloads with the error-feedback
	// residual kept worker-side; defaults to the training config's Codec
	// or the system's Options.Compression, so a simulated and a
	// distributed run of the same job compress identically), and
	// AdaptiveCompression makes the codec tier-aware — the slower half of
	// the profiled tiers negotiates the configured codec (top-k@10% when
	// none is configured) while fast-tier workers stay dense, and live
	// re-tierings renegotiate a migrating worker's codec over the
	// reassignment envelope so it follows its tier.
	CompressionOptions
	// CheckpointOptions snapshots the distributed run every
	// CheckpointEvery applied commits as a durable TieredCheckpoint at
	// CheckpointPath. See cmd/tifl-node for the resume flow.
	CheckpointOptions
	// MetricsAddr, when set (e.g. "127.0.0.1:9090"), serves the
	// aggregator's live observability endpoint: GET /metrics returns a
	// flnet.MetricsSnapshot as JSON, GET /healthz returns 200.
	MetricsAddr string
	// TieringOptions overrides the system Options' live-tiering fields for
	// this distributed job when non-zero (TieringOptions.Overlay
	// precedence). Not supported by TrainTieredAsyncTree.
	TieringOptions
	// RobustnessOptions turns on the self-healing layer for this job:
	// worker reconnect loops, per-RPC deadlines, bounded idempotent
	// redispatch, and rejoin grace windows. Zero values keep the strict
	// fail-stop behaviour.
	RobustnessOptions
}

// TrainTieredAsyncNet runs the same FedAT-style protocol as
// TrainTieredAsync, but over real TCP: it starts a
// flnet.TieredAsyncAggregator on net.Addr, launches one in-process flnet
// worker per client (each training via the engine's deterministic
// per-client pass, so local computation matches the simulation exactly),
// partitions the workers into this system's profiled tiers, and drives
// per-tier mini-FedAvg rounds with asynchronous staleness-weighted commits
// until net.GlobalCommits commits have been applied. cfg supplies the
// training hyperparameters; its Duration, EvalInterval, and OnCommit fields
// are ignored — pacing is real wall clock here. The final model is
// evaluated on test when it is non-nil.
func (s *System) TrainTieredAsyncNet(cfg TieredAsyncConfig, net NetOptions, test *Dataset) (*NetTieredAsyncResult, float64, error) {
	eng, err := s.distributedDefaults("TrainTieredAsyncNet", &cfg, &net)
	if err != nil {
		return nil, 0, err
	}
	topts := s.opts
	topts.TieringOptions = net.TieringOptions
	mgr, err := s.tieringManager(topts, cfg.ClientsPerRound, cfg.Seed)
	if err != nil {
		return nil, 0, err
	}
	agg, err := flnet.NewTieredAsyncAggregator(net.Addr, aggregatorConfig(cfg, net, eng.GlobalWeights(), mgr))
	if err != nil {
		return nil, 0, err
	}
	defer agg.Close()
	tierOf := core.TierOf(s.tiers)
	for i := range s.clients {
		s.startWorker(agg.Addr(), eng, net, i, tierOf[i]) // exits with the aggregator
	}
	if err := agg.WaitForWorkers(len(s.clients), net.WorkerTimeout); err != nil {
		return nil, 0, err
	}
	var tiers [][]int
	if mgr == nil {
		tiers = core.TierMembers(s.tiers)
	}
	res, err := agg.Run(tiers)
	if err != nil {
		return nil, 0, err
	}
	return res, finalAccuracy(eng, res.Weights, test, cfg.EvalBatch), nil
}

// TrainTieredAsyncTree runs the same FedAT-style protocol as
// TrainTieredAsyncNet, but over the hierarchical topology: one
// flnet.Child aggregator per profiled tier (each on its own ephemeral
// loopback port, pre-reducing its tier's mini-FedAvg rounds at the edge)
// behind one tree root, with every leaf worker registered at its tier's
// child rather than the root. Leaves negotiate codecs with their child
// under the same CompressionOptions policy as the flat run, and the
// children report uplink traffic upstream into the root's metrics
// endpoint. Live tiering is not supported over the tree — membership is
// fixed at the profiled tiers — so effective TieringOptions asking for a
// Manager (RetierEvery / AdaptiveSelection) are an error.
func (s *System) TrainTieredAsyncTree(cfg TieredAsyncConfig, net NetOptions, test *Dataset) (*NetTieredAsyncResult, float64, error) {
	eng, err := s.distributedDefaults("TrainTieredAsyncTree", &cfg, &net)
	if err != nil {
		return nil, 0, err
	}
	if net.TieringOptions.Live() {
		return nil, 0, fmt.Errorf("tifl: live tiering (RetierEvery/AdaptiveSelection) is not supported over the tree topology; use TrainTieredAsyncNet")
	}
	root, err := flnet.NewTieredAsyncAggregator(net.Addr, aggregatorConfig(cfg, net, eng.GlobalWeights(), nil))
	if err != nil {
		return nil, 0, err
	}
	defer root.Close()
	for t, tier := range s.tiers {
		ch, err := flnet.NewChild(flnet.ChildConfig{
			ID: t, RootAddr: root.Addr(), Workers: len(tier.Members),
			WorkerTimeout: net.WorkerTimeout, RoundTimeout: net.RoundTimeout,
			Downlink: net.Downlink, RejoinWait: net.RejoinWait,
			RPCTimeout: net.RPCTimeout, MaxRetries: net.MaxRetries,
		})
		if err != nil {
			return nil, 0, fmt.Errorf("tifl: starting child aggregator %d: %w", t, err)
		}
		defer ch.Close()
		go ch.Run() //nolint:errcheck // child exits with the root
		for _, ci := range tier.Members {
			s.startWorker(ch.Addr(), eng, net, ci, t) // exits with its child
		}
	}
	if err := root.WaitForChildren(len(s.tiers), net.WorkerTimeout); err != nil {
		return nil, 0, err
	}
	res, err := root.RunTree()
	if err != nil {
		return nil, 0, err
	}
	return res, finalAccuracy(eng, res.Weights, test, cfg.EvalBatch), nil
}

// distributedDefaults fills the defaults of a distributed job into cfg and
// net — what net leaves zero comes from cfg, then from the system's Options —
// and returns the engine the in-process workers train through. That engine
// stays dense: workers compress at the wire (flnet.WorkerConfig.Codec), and
// doing it in both places would double-apply the codec and split the
// error-feedback residual. name is the calling driver's, for the error text.
func (s *System) distributedDefaults(name string, cfg *TieredAsyncConfig, net *NetOptions) (*flcore.Engine, error) {
	if cfg.Latency == (LatencyModel{}) {
		cfg.Latency = s.latency
	}
	if cfg.TierWeight == nil {
		cfg.TierWeight = core.FedATWeights()
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 10
	}
	if cfg.LocalEpochs == 0 {
		cfg.LocalEpochs = 1
	}
	if net.Addr == "" {
		net.Addr = "127.0.0.1:0"
	}
	if net.RoundTimeout == 0 {
		net.RoundTimeout = 60 * time.Second
	}
	if net.WorkerTimeout == 0 {
		net.WorkerTimeout = 30 * time.Second
	}
	if cfg.Model == nil || cfg.Optimizer == nil {
		return nil, fmt.Errorf("tifl: %s needs Model and Optimizer factories", name)
	}
	if net.Compression == nil {
		net.Compression = cfg.Codec
	}
	if net.Compression == nil {
		net.Compression = s.codec
	}
	if !net.AdaptiveCompression {
		net.AdaptiveCompression = s.opts.AdaptiveCompression
	}
	if net.Downlink == nil {
		net.Downlink = cfg.Downlink
	}
	if net.Downlink == nil {
		net.Downlink = s.opts.Downlink
	}
	net.TieringOptions = net.TieringOptions.Overlay(s.opts.TieringOptions)
	return flcore.NewEngine(flcore.Config{
		Rounds: 1, ClientsPerRound: 1, LocalEpochs: cfg.LocalEpochs,
		BatchSize: cfg.BatchSize, Seed: cfg.Seed,
		Model: cfg.Model, Optimizer: cfg.Optimizer, Latency: cfg.Latency,
	}, s.clients, nil), nil
}

// aggregatorConfig is the root's configuration once the defaults are filled;
// mgr is nil over the tree, where no worker migrates (ReassignCodec unused).
func aggregatorConfig(cfg TieredAsyncConfig, net NetOptions, init []float64, mgr flcore.TierManager) flnet.TieredAsyncConfig {
	return flnet.TieredAsyncConfig{
		GlobalCommits: net.GlobalCommits, ClientsPerRound: cfg.ClientsPerRound,
		Alpha: cfg.Alpha, StalenessExp: cfg.StalenessExp, TierWeight: cfg.TierWeight,
		RoundTimeout: net.RoundTimeout, InitialWeights: init, Seed: cfg.Seed,
		Manager: mgr, ReassignCodec: net.ReassignPolicy(), Downlink: net.Downlink,
		CheckpointEvery: net.CheckpointEvery, CheckpointPath: net.CheckpointPath,
		MetricsAddr: net.MetricsAddr, SendTimeout: net.RPCTimeout,
		MaxRetries: net.MaxRetries, RejoinWait: net.RejoinWait,
	}
}

// startWorker launches client idx's in-process worker against addr (the flat
// aggregator or its tier's child), with the codec net gives its profiled tier.
func (s *System) startWorker(addr string, eng *flcore.Engine, net NetOptions, idx, tier int) {
	go flnet.RunWorker(addr, flnet.WorkerConfig{ //nolint:errcheck // worker exits with what it registered at
		ClientID: idx, NumSamples: s.clients[idx].NumSamples(),
		Codec:     net.TierCodec(tier, len(s.tiers)),
		Reconnect: net.Reconnect, MaxReconnects: net.MaxRetries, RPCTimeout: net.RPCTimeout,
		Train: func(round int, weights []float64) ([]float64, int, error) {
			u := eng.TrainClient(round, idx, weights)
			return u.Weights, u.NumSamples, nil
		},
	})
}

// finalAccuracy evaluates the finished job's weights on test (0 when nil).
func finalAccuracy(eng *flcore.Engine, weights []float64, test *Dataset, evalBatch int) float64 {
	if test == nil {
		return 0
	}
	model := eng.GlobalModel()
	model.SetWeightsVector(weights)
	acc, _ := model.Evaluate(test.InputTensor(), test.Y, evalBatch)
	return acc
}

// EstimateTrainingTime applies the paper's estimation model (Eq. 6) to a
// static policy over this system's tiers.
func (s *System) EstimateTrainingTime(p StaticPolicy, rounds int) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if len(p.Probs) != len(s.tiers) {
		return 0, fmt.Errorf("tifl: policy %q has %d probabilities for %d tiers", p.Name, len(p.Probs), len(s.tiers))
	}
	return estimate.TrainingTime(core.TierLatencies(s.tiers), p.Probs, rounds), nil
}

// PrivacyGuarantee reports the per-round client-level DP guarantee under
// tier-based selection with the given tier weights θ (Section 4.6), given
// each client's local round is base-DP.
func (s *System) PrivacyGuarantee(base Guarantee, thetas []float64, clientsPerRound int) (Guarantee, error) {
	if len(thetas) != len(s.tiers) {
		return Guarantee{}, fmt.Errorf("tifl: %d tier weights for %d tiers", len(thetas), len(s.tiers))
	}
	sizes := make([]int, len(s.tiers))
	for i, t := range s.tiers {
		sizes[i] = len(t.Members)
	}
	g, _ := privacy.AmplifyTiered(base, thetas, sizes, clientsPerRound)
	return g, nil
}
