package flcore

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/simres"
	"repro/internal/tensor"
)

// Tiered-asynchronous federated learning (FedAT-style, Chai et al., SC
// 2021): the hybrid between TiFL's synchronous tier-based rounds and the
// fully asynchronous FedAsync baseline (async.go). Each tier runs its own
// synchronous mini-FedAvg loop — every tier round selects clients from that
// tier only, trains them from the tier's pulled snapshot of the global
// model, and FedAvg-aggregates their updates — but the tiers advance
// independently over the shared simulated clock: fast tiers commit many
// rounds while a slow tier finishes one. Every committed tier round is
// mixed into the global model with a rate that is discounted by staleness
// (how many commits landed since the tier pulled) and scaled by a
// cross-tier weight that favors slower tiers (FedAT's weighted
// aggregation), so infrequent slow-tier contributions are not drowned out.
//
// All randomness is keyed on (Seed, tier round, client) exactly like the
// synchronous engine — a client belongs to one tier, so the keying is
// collision-free — which makes runs reproducible and comparable
// wall-clock-for-wall-clock with both the sync and async engines.

// TierMove is one client migrating between tiers at a re-tiering point.
type TierMove struct {
	// Client is the migrating client index; From/To its old and new tier.
	Client, From, To int
}

// TierManager is the live tiering subsystem contract both tiered-async
// engines (this simulated one and flnet.TieredAsyncAggregator) consume.
// The canonical implementation is internal/tiering.Manager: it owns tier
// membership, folds observed per-client latencies into EWMA estimates,
// periodically rebuilds tiers (core.BuildTiers with hysteresis), and draws
// each tier round's cohort — uniformly, or in the sim via Algorithm-2
// adaptive sizing (accuracy-driven tier probabilities under per-tier
// credit budgets). The
// interface lives here rather than in internal/tiering so flcore does not
// import the packages built on top of it (core imports flcore already).
//
// All methods must be deterministic given the same call sequence: every
// engine makes its calls through one Committer, between commits, so the
// simulated engine and the socket runtime replay identical sequences
// whenever their commits apply in the same order, which is what keeps
// their global models byte-identical through a migration.
type TierManager interface {
	// Tiers returns the current membership, fastest tier first. The result
	// is a copy; it stays valid after later re-tierings.
	Tiers() [][]int
	// Observe folds one observed response latency (seconds) into the
	// client's running estimate. Engines call it once per committed update.
	Observe(client int, seconds float64)
	// Adaptive reports whether cohorts follow Algorithm-2 adaptive
	// selection, which needs per-tier accuracies fed to ObserveAccuracy.
	// The sim evaluates tier shards only for such a Manager; the socket
	// runtime, which evaluates nothing, refuses one.
	Adaptive() bool
	// ObserveAccuracy records per-tier test accuracies (index = tier) for
	// Algorithm-2 adaptive selection. The sim calls it at every
	// EvalInterval boundary of an adaptive run.
	ObserveAccuracy(accs []float64)
	// Cohort draws tier t's participants for its local round — the live
	// replacement for the static TierCohort draw, identically seed-keyed.
	// want is the base cohort size (adaptive selection may shrink or grow
	// it within the tier).
	Cohort(tier, tierRound, want int) []int
	// MaybeRetier is called after every global commit with the new version.
	// At rebuild points it re-tiers from the current latency estimates and
	// returns the new membership, the migrations, and true; otherwise
	// (including rebuilds that moved nobody) it returns false.
	MaybeRetier(version int) (tiers [][]int, moves []TierMove, changed bool)
}

// TierWeightFunc maps a committing tier to its cross-tier aggregation
// weight given the per-tier commit counts so far (commits[k] includes the
// current commit of tier `tier`). The weight is a multiplier on the base
// mixing rate Alpha: 1 is neutral, above 1 boosts the tier's commits,
// below 1 damps them. Implementations live in internal/core (FedAT's
// inverted-frequency weights); nil means neutral for every tier.
type TierWeightFunc func(tier int, commits []int) float64

// TieredAsyncConfig configures a tiered-asynchronous run.
//
// A tier round's cohort trains concurrently, on min(GOMAXPROCS,
// ClientsPerRound) goroutines (one, for cohorts with next to no training
// to do). The result does not depend on that count:
// each client's pass is keyed on (Seed, tier round, client) and touches no
// state another client's pass writes, and the round is aggregated and
// accounted afterwards in selection order. In exchange Model, Optimizer,
// Latency and the clients' Drift functions must be safe for concurrent
// calls — the contract Config.Parallel states for the synchronous engine.
// Manager, TierWeight, OnCommit and OnCheckpoint are only ever called from
// the goroutine that called Run.
type TieredAsyncConfig struct {
	// CommitterConfig is the run's protocol spec, shared with the socket
	// runtime (flnet.TieredAsyncConfig); Downlink charges the simulated
	// broadcasts exactly as the sockets send them.
	CommitterConfig
	// Duration is the simulated training time budget in seconds.
	Duration float64
	// EvalInterval evaluates the global model every so many simulated
	// seconds (0 = only at the end). An adaptive Manager needs it positive:
	// its per-tier accuracies are scored at these evaluations.
	EvalInterval float64
	// BatchSize is the local mini-batch size (default 10, the paper's
	// setting).
	BatchSize int
	// LocalEpochs is the local epochs per selected client per tier round
	// (default 1).
	LocalEpochs int
	// Model builds a fresh model replica (see ModelFactory).
	Model ModelFactory
	// Optimizer receives the committing tier's LOCAL round index: each
	// tier's synchronous loop owns its round-indexed schedule (LR decay
	// advances at the tier's own pace, as in FedAT), so a slow tier that
	// has only run a few rounds trains near the start of the schedule
	// even late in simulated time. Keying the schedule on the global
	// commit version instead would decay it numTiers-fold faster than
	// the sync and async engines under the same Optimizer factory.
	Optimizer OptimizerFactory
	// Latency maps client resources to simulated response latency; it must
	// be able to produce non-zero latencies or simulated time cannot
	// advance.
	Latency simres.LatencyModel
	// EvalBatch bounds evaluation batch size (0 = whole set at once).
	EvalBatch int
	// OnCommit, if set, receives every tier-round commit as it is applied
	// (the tiered analogue of Config.OnRound).
	OnCommit func(rec TierRoundRecord)
	// Codec, if set, applies error-feedback update compression exactly as
	// in the synchronous engine (Config.Codec) — the cross-tier commit
	// compression FedAT motivates: slow tiers stop paying a dense model
	// transfer per commit.
	Codec compress.Codec
	// ChurnRate, when positive, flaps each drawn cohort member out of its
	// round with this probability, by a coin keyed on (Seed, tier, tier
	// round, client): the member is unreachable, as a disconnected socket
	// worker is, and its acks are forgotten, as a reconnect's are. Must be
	// < 1; a round whose whole cohort flapped redraws.
	ChurnRate float64
}

func (c *TieredAsyncConfig) withDefaults() {
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 10
	}
}

// TierRoundRecord captures one committed tier round.
type TierRoundRecord struct {
	// Tier is the committing tier (0 = fastest), TierRound its local round
	// counter, Version the global commit index this commit produced.
	Tier, TierRound, Version int
	// Selected are the tier members trained this round.
	Selected []int
	// Staleness is the number of global commits that landed between this
	// tier's pull and its commit.
	Staleness int
	// Weight is the effective mixing rate applied (alpha after tier
	// weighting and staleness discount).
	Weight float64
	// Latency is the tier round's duration (max over selected clients);
	// SimTime the simulated time at commit.
	Latency, SimTime float64
	// UplinkBytes is the tier round's total encoded update traffic.
	UplinkBytes int64
	// DownlinkBytes is the tier round's total broadcast traffic as charged
	// on the wire: delta payloads for chain-eligible clients under
	// downlink compression, dense snapshots otherwise.
	DownlinkBytes int64
}

// TieredAsyncResult extends Result with the per-tier commit log.
type TieredAsyncResult struct {
	Result
	// TierRounds is every committed tier round in commit order.
	TierRounds []TierRoundRecord
	// Commits counts committed rounds per tier.
	Commits []int
	// Retiers counts membership rebuilds that actually moved clients
	// (Manager runs only); Migrations is the total clients moved.
	Retiers, Migrations int
	// DownlinkBytes is the run's total broadcast traffic as charged on the
	// wire (see TierRoundRecord.DownlinkBytes).
	DownlinkBytes int64
}

// tierRun is one in-flight tier round in the event queue: its commit, the
// simulated time it lands at, and its duration (the slowest member's
// latency).
type tierRun struct {
	Commit
	finish, latency float64
}

// split returns the clients whose updates the round aggregated and their
// observed seconds, in cohort order.
func (r *tierRun) split() (clients []int, secs []float64) {
	clients, secs = make([]int, len(r.Observed)), make([]float64, len(r.Observed))
	for i, o := range r.Observed {
		clients[i], secs[i] = o.Client, o.Seconds
	}
	return clients, secs
}

type tierRunHeap []*tierRun

func (h tierRunHeap) Len() int { return len(h) }
func (h tierRunHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].Tier < h[j].Tier // deterministic tie-break
}
func (h tierRunHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *tierRunHeap) Push(x any)   { *h = append(*h, x.(*tierRun)) }
func (h *tierRunHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TieredAsyncEngine drives tiered-asynchronous training: one synchronous
// mini-FedAvg loop per tier, asynchronous staleness-weighted commits into
// the shared global model.
type TieredAsyncEngine struct {
	Cfg TieredAsyncConfig
	// Clients is the resident population when the engine was built over an
	// eager source (NewTieredAsyncEngine); nil for population-scale engines
	// built over a lazy ClientSource, which materialize clients per round.
	Clients []*Client
	Test    *dataset.Dataset

	// src is where the engine gets its clients: an EagerClients wrapper
	// around Clients, or a LazyClients factory for population-scale runs.
	src ClientSource

	eng   *Engine    // reused for TrainClient's deterministic local pass
	com   *Committer // the FedAT server update: model, version, cursors, membership, totals
	clock simres.Clock

	// Run-loop state lives on the engine (not in Run locals) so Snapshot
	// can capture a mid-run engine and Restore can rebuild one: the event
	// queue of in-flight tier rounds and the next eval boundary.
	pending  tierRunHeap
	nextEval float64
	resumed  bool

	// Downlink state: one chain per tier (nil without a Downlink) and the
	// ledger every tier round bills its members through.
	chains []*compress.Chain
	acks   *AckLedger

	// The simTrainer's per-round staging, and its last round's latency (the
	// slowest member's).
	acquired     []*Client
	replies      []Reply
	roundLatency float64

	// tierTest caches the per-tier pooled evaluation shards for an adaptive
	// Manager's accuracy feedback; rebuilt lazily when membership changes.
	tierTest []*dataset.Dataset
}

// NewTieredAsyncEngine is NewTieredAsyncEngineFrom over a resident client
// slice (an EagerClients source).
func NewTieredAsyncEngine(cfg TieredAsyncConfig, tiers [][]int, clients []*Client, test *dataset.Dataset) *TieredAsyncEngine {
	return NewTieredAsyncEngineFrom(cfg, tiers, NewEagerClients(clients), test)
}

// NewTieredAsyncEngineFrom validates the configuration and tier membership
// and builds the engine over src. Tiers are ordered fastest first
// (core.BuildTiers order), non-empty and disjoint; with Cfg.Manager set they
// may be nil, and the Manager owns membership for the run. With a
// LazyClients source only a round's cohort is ever materialized, and the
// per-client bookkeeping (residuals, Manager EWMAs, acks) covers the
// ever-selected clients only; construction validates tiers with a transient
// bitmap, never a map of the population. Randomness is keyed on (Seed,
// tier round, client); a client migrated by live re-tiering may revisit a
// key it trained under in its old tier — still deterministic, no longer
// collision-free.
func NewTieredAsyncEngineFrom(cfg TieredAsyncConfig, tiers [][]int, src ClientSource, test *dataset.Dataset) *TieredAsyncEngine {
	cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.Duration <= 0 || cfg.Model == nil || cfg.Optimizer == nil {
		panic(fmt.Sprintf("flcore: invalid TieredAsyncConfig %+v", cfg))
	}
	if src == nil {
		panic("flcore: tiered-async needs a ClientSource")
	}
	if tiers == nil && cfg.Manager != nil {
		tiers = cfg.Manager.Tiers()
	}
	if zeroLatency(cfg.Latency) {
		panic("flcore: TieredAsyncConfig.Latency produces zero response latency; simulated time cannot advance")
	}
	if cfg.ChurnRate < 0 || cfg.ChurnRate >= 1 {
		panic(fmt.Sprintf("flcore: ChurnRate %v outside [0,1)", cfg.ChurnRate))
	}
	if cfg.Manager != nil && cfg.Manager.Adaptive() && cfg.EvalInterval <= 0 {
		panic("flcore: an adaptive Manager needs EvalInterval > 0: nothing else feeds it per-tier accuracies")
	}
	if len(tiers) == 0 {
		panic("flcore: tiered-async needs at least one tier")
	}
	n := src.NumClients()
	seen := make([]bool, n)
	for i, members := range tiers {
		if len(members) == 0 {
			panic(fmt.Sprintf("flcore: tier %d is empty", i))
		}
		for _, ci := range members {
			if ci < 0 || ci >= n {
				panic(fmt.Sprintf("flcore: tier %d member %d out of range [0,%d)", i, ci, n))
			}
			if seen[ci] {
				panic(fmt.Sprintf("flcore: client %d in two tiers", ci))
			}
			seen[ci] = true
		}
	}
	global := cfg.Model(rand.New(rand.NewSource(cfg.Seed)))
	var clients []*Client
	if eager, ok := src.(*EagerClients); ok {
		// Eager populations keep the historical semantics: the slice stays
		// addressable on the engine and each job starts with clean
		// error-feedback residuals. A fresh LazyClients source starts clean
		// by construction and owns its residuals itself.
		clients = eager.Slice()
		resetResiduals(clients)
	}
	syncCfg := Config{
		Rounds: 1, ClientsPerRound: 1, LocalEpochs: cfg.LocalEpochs,
		BatchSize: cfg.BatchSize, Seed: cfg.Seed,
		Model: cfg.Model, Optimizer: cfg.Optimizer, Latency: cfg.Latency,
		Codec: cfg.Codec,
		// A tier round is |C| clients training at the same time.
		Parallel: true,
	}
	e := &TieredAsyncEngine{
		Cfg:      cfg,
		Clients:  clients,
		Test:     test,
		src:      src,
		eng:      &Engine{Cfg: syncCfg, Clients: clients, global: global},
		com:      NewCommitter(cfg.CommitterConfig, tiers, global.WeightsVector()),
		nextEval: cfg.EvalInterval,
	}
	e.resetDownlink()
	return e
}

// resetDownlink (re)initializes the per-tier delta chains and the ack
// ledger — fresh construction and checkpoint restore alike, since a resumed
// run cannot trust any client's held version and must fall back to dense.
func (e *TieredAsyncEngine) resetDownlink() {
	e.chains = make([]*compress.Chain, len(e.com.Tiers()))
	for t := range e.chains {
		e.chains[t] = e.Cfg.Downlink.NewChain()
	}
	e.acks = &AckLedger{}
}

// numClients returns the registered population size N.
func (e *TieredAsyncEngine) numClients() int { return e.src.NumClients() }

// TierCohort draws tier t's participants for its local round r from the
// tier's member list: everyone when want covers the tier, otherwise a
// permutation prefix from an rng keyed on (seed, tier round, tier). A client
// belongs to exactly one tier, so the keying never collides with the
// per-client training streams. Exported so the socket runtime
// (flnet.TieredAsyncAggregator) draws cohorts identical to the simulated
// engine's under the same seed and tier membership.
func TierCohort(seed int64, tierRound, tier int, members []int, want int) []int {
	if want >= len(members) {
		return append([]int(nil), members...)
	}
	rng := rand.New(rand.NewSource(mix(seed, tierRound, -(100 + tier))))
	perm := rng.Perm(len(members))
	out := make([]int, want)
	for i := range out {
		out[i] = members[perm[i]]
	}
	return out
}

// dispatch runs tier t's next round from the Committer's pull (the model
// right after the tier's own last commit, trained from without a copy:
// nothing commits before dispatch returns) and queues its completion event
// in run, whose buffers it reuses (nil on a tier's first dispatch). A round
// whose whole cohort churned out consumes its round index and redraws, as a
// socket tier redraws a dead cohort; the attempt bound is a backstop that
// drops the tier, as an empty membership does.
func (e *TieredAsyncEngine) dispatch(t int, now float64, run *tierRun) {
	if run == nil {
		run = &tierRun{}
	}
	for attempt := 0; attempt <= 1000; attempt++ {
		p := e.com.Pull(t)
		if len(p.Cohort) == 0 {
			return
		}
		if RunTierRound(p, e.chains[t], e.acks, (*simTrainer)(e), &run.Commit) == RoundCommitted {
			run.latency, run.finish = e.roundLatency, now+e.roundLatency
			heap.Push(&e.pending, run)
			return
		}
	}
}

// simTrainer is the engine as RunTierRound's Trainer. Its churn coin flaps
// a member out of a round as a disconnect would, forgetting its acks as a
// reconnect does; every reached member replies at once.
type simTrainer TieredAsyncEngine

func (s *simTrainer) Reach(tier, round, member int) (int, bool) {
	if s.Cfg.ChurnRate > 0 && churnFlap(s.Cfg.Seed, tier, round, member, s.Cfg.ChurnRate) {
		s.acks.Forget(member)
		return 0, false
	}
	return 0, true
}

// Train acquires the cohort through the source for exactly its training —
// with a lazy source at most one cohort of client state is resident —
// acquiring and releasing on this goroutine in cohort order. Under a
// downlink chain each member's latency is charged its bill's bytes.
func (s *simTrainer) Train(req *RoundRequest) ([]Reply, int64, RoundStatus) {
	s.acquired = grow(s.acquired, len(req.Bills))
	var down int64
	for i, b := range req.Bills {
		s.acquired[i] = s.src.Acquire(b.Member)
		down += int64(b.Bytes)
	}
	charged := req.Bills
	if req.ChainVersion == 0 {
		charged = nil // the dense run keeps its historical latency path
	}
	updates := s.eng.trainCohort(req.Round, s.acquired, req.Base, charged)
	s.roundLatency = MaxLatency(updates)
	for i, c := range s.acquired {
		s.src.Release(c)
		s.acquired[i] = nil // a lazy client's shard must not outlive its round
	}
	s.replies = grow(s.replies, len(updates))
	for i, u := range updates {
		s.replies[i] = Reply{Update: u, Bill: i}
	}
	return s.replies, down, RoundCommitted
}

// churnFlap is the deterministic per-(tier, round, client) churn coin,
// keyed disjointly from both the cohort draw (-(100+tier)) and the
// per-client training streams.
func churnFlap(seed int64, tier, round, client int, rate float64) bool {
	rng := rand.New(rand.NewSource(mix(mix(seed, round, -(500+tier)), client, -977)))
	return rng.Float64() < rate
}

// zeroLatency reports whether the model can only produce zero latencies —
// a duration-bounded event loop over such a model would never terminate.
func zeroLatency(m simres.LatencyModel) bool {
	return m.CostPerSample <= 0 && m.CommLatency <= 0 && m.CommPerParam <= 0
}

// CommitMix folds one committed tier round into the global weight vector in
// place: the effective rate is alpha scaled by the cross-tier weight and
// discounted by staleness as (staleness+1)^(−stalenessExp), clamped to 1.
// It returns the effective rate applied. This is THE FedAT mixing rule —
// shared with the socket runtime (flnet.TieredAsyncAggregator) so the
// simulated and distributed global models cannot drift apart.
func CommitMix(global, commit []float64, alpha, tierWeight float64, staleness int, stalenessExp float64) float64 {
	a := alpha * tierWeight * math.Pow(float64(staleness)+1, -stalenessExp)
	if a > 1 {
		a = 1
	}
	// Chunk-parallel over elements: each element's mix is independent, so
	// sharding cannot change results (tensor.Mix rounds each product
	// before the sum, as the historical serial loop did on amd64).
	tensor.ParallelChunks(len(global), 3*len(global), func(lo, hi int) {
		tensor.Mix(global[lo:hi], commit[lo:hi], a)
	})
	return a
}

// Run executes tiered-asynchronous training until the simulated duration
// elapses, returning the result with history sampled at EvalInterval
// boundaries (Round counts global commits) plus the full commit log. On an
// engine restored from a TieredCheckpoint, Run continues the interrupted
// job: the in-flight tier rounds come back from the checkpoint instead of
// a fresh dispatch, and Commits/Retiers/Migrations/UplinkBytes report
// cumulative totals across the whole job, not just this call.
func (e *TieredAsyncEngine) Run() *TieredAsyncResult {
	res := &TieredAsyncResult{}
	if !e.resumed {
		heap.Init(&e.pending)
		for t := range e.com.Tiers() {
			e.dispatch(t, 0, nil)
		}
	}

	evalNow := func(now float64) {
		rec := RoundRecord{Round: e.com.Version(), SimTime: now, Acc: math.NaN(), Loss: math.NaN()}
		if e.Test != nil {
			e.eng.global.SetWeightsVector(e.com.Weights())
			rec.Acc, rec.Loss = e.eng.global.Evaluate(e.Test.InputTensor(), e.Test.Y, e.Cfg.EvalBatch)
		}
		res.History = append(res.History, rec)
		// Algorithm-2 accuracy feedback: evaluate the global model on each
		// tier's pooled member test shards and hand the accuracies to an
		// adaptive Manager, which drives its tier probabilities from them.
		if e.Cfg.Manager != nil && e.Cfg.Manager.Adaptive() {
			e.Cfg.Manager.ObserveAccuracy(e.tierAccuracies())
		}
	}

	for e.pending.Len() > 0 {
		run := heap.Pop(&e.pending).(*tierRun)
		if run.finish > e.Cfg.Duration {
			break
		}
		e.clock.Advance(run.finish - e.clock.Now())
		now := e.clock.Now()
		for e.Cfg.EvalInterval > 0 && now >= e.nextEval {
			evalNow(e.nextEval)
			e.nextEval += e.Cfg.EvalInterval
		}

		rec, moves, err := e.com.Apply(run.Commit)
		if err != nil {
			// The engine built every field of the commit itself; only a
			// broken TierWeight policy can land here.
			panic(err.Error())
		}
		if len(moves) > 0 {
			// Migrations take effect at each tier's next dispatch; the
			// in-flight runs in the heap keep their cohorts. The pooled
			// per-tier evaluation shards are stale now, and a moved client's
			// acks are void for the rounds pulled from here on.
			e.tierTest = nil
			for _, mv := range moves {
				e.acks.Move(mv.Client, rec.Version)
			}
		}
		rec.Selected, _ = run.split()
		rec.Latency, rec.SimTime = run.latency, now
		res.TierRounds = append(res.TierRounds, rec)
		if e.Cfg.OnCommit != nil {
			e.Cfg.OnCommit(rec)
		}
		e.dispatch(run.Tier, now, run)
		// The snapshot point: the commit is applied, the Manager fed, and
		// the committing tier re-dispatched, so the heap holds every
		// in-flight round and the checkpoint is a clean between-commits cut.
		if e.Cfg.OnCheckpoint != nil && e.com.CheckpointDue() {
			c, err := e.Snapshot()
			if err != nil {
				panic(fmt.Sprintf("flcore: periodic checkpoint failed: %v", err))
			}
			e.Cfg.OnCheckpoint(c)
		}
	}
	evalNow(e.clock.Now())
	final := res.History[len(res.History)-1]
	res.FinalAcc, res.FinalLoss = final.Acc, final.Loss
	res.TotalTime = e.clock.Now()
	res.Weights = append([]float64(nil), e.com.Weights()...)
	tot := e.com.Totals()
	res.Commits = tot.Commits
	res.Retiers, res.Migrations = tot.Retiers, tot.Migrations
	res.UplinkBytes, res.DownlinkBytes = tot.UplinkBytes, tot.DownlinkBytes
	return res
}

// tierTestCap bounds each tier's pooled evaluation shard for adaptive
// accuracy feedback (the TestData_t cap of Algorithm 2, sized for the
// commit-frequency of the tiered engines).
const tierTestCap = 256

// tierAccuracies evaluates the current global model on every tier's pooled
// member test shards, NaN for a tier without any. Pools are cached per
// membership epoch; they are built through the source, so managed lazy runs
// stay byte-identical to eager ones.
func (e *TieredAsyncEngine) tierAccuracies() []float64 {
	if e.tierTest == nil {
		e.tierTest = TierTestPools(e.com.Tiers(), e.src, tierTestCap, e.Cfg.Seed)
	}
	accs := make([]float64, len(e.tierTest))
	e.eng.global.SetWeightsVector(e.com.Weights())
	for t, d := range e.tierTest {
		accs[t] = math.NaN()
		if d != nil {
			accs[t], _ = e.eng.global.Evaluate(d.InputTensor(), d.Y, e.Cfg.EvalBatch)
		}
	}
	return accs
}

// TierTestPools assembles each tier's evaluation set (TestData_t in TiFL's
// Algorithm 2) by pooling its members' local test shards, capped at
// maxPerTier samples (0 = unlimited) by a subset keyed on seed+tier; a tier
// whose members hold no test data gets nil. Only accuracies computed on
// these sets reach a scheduler, so the aggregator never observes raw data
// or class distributions. Each member is acquired from src only for the
// shard copy, but the sweep covers every member: a population-scale run
// should not pair a lazy source with adaptive selection.
func TierTestPools(tiers [][]int, src ClientSource, maxPerTier int, seed int64) []*dataset.Dataset {
	out := make([]*dataset.Dataset, len(tiers))
	for t, members := range tiers {
		var parts []*dataset.Dataset
		for _, ci := range members {
			c := src.Acquire(ci)
			if c.Test != nil && c.Test.Len() > 0 {
				parts = append(parts, c.Test)
			}
			src.Release(c)
		}
		if len(parts) == 0 {
			continue
		}
		pooled := dataset.Concat(parts...)
		if maxPerTier > 0 && pooled.Len() > maxPerTier {
			rng := rand.New(rand.NewSource(seed + int64(t)))
			pooled = pooled.Subset(rng.Perm(pooled.Len())[:maxPerTier])
		}
		out[t] = pooled
	}
	return out
}

// RunTieredAsync is the one-shot convenience wrapper mirroring RunAsync.
func RunTieredAsync(cfg TieredAsyncConfig, tiers [][]int, clients []*Client, test *dataset.Dataset) *TieredAsyncResult {
	return NewTieredAsyncEngine(cfg, tiers, clients, test).Run()
}
