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
// each tier round's cohort — uniformly, or via Algorithm-2 adaptive sizing
// (accuracy-driven tier probabilities under per-tier credit budgets). The
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
	// ObserveAccuracy records per-tier test accuracies (index = tier) for
	// Algorithm-2 adaptive selection. Engines without evaluation data
	// (the socket runtime) never call it; the Manager then falls back to
	// commit-share-driven probabilities.
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

// CommObserver is the optional comm-aware extension of TierManager: a
// Manager implementing it receives the full per-client round observation —
// the client-measured compute seconds, the end-to-end response time, and
// the wire bytes the round moved for that client — instead of the bare
// Observe(seconds) call. Both tiered-async engines probe for it at commit
// time, so re-tiering can rank clients by what a round actually costs
// (transfer included) rather than compute latency alone. The canonical
// implementation is internal/tiering.Manager, which keys the behavior on
// its CommAware config so observation-richness alone never changes
// placement.
type CommObserver interface {
	ObserveRound(client int, seconds, endToEnd float64, bytes int64)
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
	// seconds (0 = only at the end).
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
	// round with this probability: a deterministic coin keyed on
	// (ChurnSeed, tier, tier round, client) models the worker being
	// disconnected when the round dispatched. A flapped client's update
	// never reaches FedAvg and its downlink-delta ack is forgotten —
	// mirroring the socket runtime, where a reconnecting worker
	// re-registers with no held base and falls back to a dense broadcast.
	// Must be < 1; rounds whose whole cohort flapped consume their round
	// index and redraw, exactly like dead-cohort rounds over sockets.
	ChurnRate float64
	// ChurnSeed keys the flap coins independently of the training streams
	// (0 = derive from Seed), so the same run can be replayed under a
	// different churn pattern without touching model randomness.
	ChurnSeed int64
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

// tierRun is one in-flight tier round in the event queue.
type tierRun struct {
	tier      int
	tierRound int
	pulledVer int     // global version at dispatch (pull) time
	finish    float64 // simulated completion time
	selected  []int
	weights   []float64 // tier-level FedAvg of the round's client updates
	latency   float64
	lats      []float64 // per-client observed latencies, parallel to selected
	upBytes   int64     // total encoded uplink bytes of the round's updates
	downBytes int64     // total broadcast bytes charged for the round
	bytes     []int64   // per-client down+up wire bytes, parallel to selected
}

type tierRunHeap []*tierRun

func (h tierRunHeap) Len() int { return len(h) }
func (h tierRunHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].tier < h[j].tier // deterministic tie-break
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

	// Downlink-delta state (Cfg.Downlink only): one chain per tier and the
	// (tier, chain state) of every ever-selected client's last
	// participation — the sim mirror of the socket runtime's per-worker ack
	// tracking, kept sparse like the residual maps so population-scale runs
	// stay affordable.
	downChains []*compress.Chain
	acked      map[int]ackRef

	// dispatch's per-round staging, resliced every tier round, and Run's
	// per-commit one.
	downs    []int64
	acquired []*Client
	observed []Observation

	// tierTest caches the per-tier pooled evaluation shards for adaptive
	// accuracy feedback; rebuilt lazily when membership changes.
	tierTest []*dataset.Dataset
}

// NewTieredAsyncEngine validates the configuration and tier membership and
// builds the engine from a resident client slice. It is a thin shim over
// NewTieredAsyncEngineFrom with an EagerClients source — the slice-based
// and source-based constructors were unified behind the same engine, so
// every behaviour documented there (determinism, Manager ownership,
// per-client bookkeeping) holds identically here; only client
// materialization differs. Tiers are ordered fastest first
// (core.BuildTiers order); every tier must be non-empty and the tiers
// disjoint. When
// Cfg.Manager is set, tiers may be nil — membership then comes from the
// Manager, which owns it for the rest of the run. Randomness stays keyed on
// (Seed, tier round, client); under live re-tiering a migrated client can
// revisit a (round, client) key it trained under in its old tier, which
// reuses that key's random stream — still fully deterministic, just no
// longer collision-free across the whole run.
func NewTieredAsyncEngine(cfg TieredAsyncConfig, tiers [][]int, clients []*Client, test *dataset.Dataset) *TieredAsyncEngine {
	return NewTieredAsyncEngineFrom(cfg, tiers, NewEagerClients(clients), test)
}

// NewTieredAsyncEngineFrom is the source-based constructor: the engine's
// clients come from src instead of a resident slice, which is what makes
// million-client populations affordable — with a LazyClients source only
// the round's cohort is ever materialized, and all server-side per-client
// bookkeeping (error-feedback residuals, Manager EWMAs) stays keyed on the
// ever-selected clients only. Construction itself holds no per-client
// state: tier validation uses a transient membership bitmap, never a map of
// the population.
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

// ackRef is one client's last participation under the downlink-delta
// scheme: the tier whose round it trained in and the chain state
// (compress.Chain.Version) that round broadcast.
type ackRef struct{ tier, ver int }

// resetDownlink (re)initializes the per-tier delta chains and the ack map
// — fresh construction and checkpoint restore alike, since a resumed run
// cannot trust any client's held version and must fall back to dense.
func (e *TieredAsyncEngine) resetDownlink() {
	if e.Cfg.Downlink == nil {
		return
	}
	e.downChains = make([]*compress.Chain, len(e.com.Tiers()))
	for t := range e.downChains {
		e.downChains[t] = e.Cfg.Downlink.NewChain()
	}
	e.acked = make(map[int]ackRef)
}

// numClients returns the registered population size N.
func (e *TieredAsyncEngine) numClients() int { return e.src.NumClients() }

// Source returns the engine's client source.
func (e *TieredAsyncEngine) Source() ClientSource { return e.src }

// GlobalWeights returns the current global weight vector (not a copy).
func (e *TieredAsyncEngine) GlobalWeights() []float64 { return e.com.Weights() }

// Clock returns the engine's simulated clock.
func (e *TieredAsyncEngine) Clock() *simres.Clock { return &e.clock }

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

// dispatch runs tier t's next synchronous mini-round from the Committer's
// pull — the global model as it stands right after the tier's own last
// commit — and queues its completion event. The round's clients are
// drawn with an rng keyed on (Seed, tier round, tier), and each client's
// local pass is keyed on (Seed, tier round, client), so neither dispatch
// order nor how many goroutines Engine.trainCohort trains the cohort on can
// perturb results. run is the tier's just-committed round, whose buffers
// the new round takes over (nil on a tier's first dispatch).
func (e *TieredAsyncEngine) dispatch(t int, now float64, run *tierRun) {
	p := e.com.Pull(t)
	selected := p.Cohort
	if len(selected) == 0 {
		// Defensive: the Manager guarantees non-empty tiers, but a
		// membership that somehow shrank to nothing has no runnable round
		// — drop the tier from the event loop instead of panicking.
		return
	}
	if e.Cfg.ChurnRate > 0 {
		// A fully-flapped round consumes its round index and redraws —
		// the same advance-and-retry the socket runtime applies to rounds
		// whose whole cohort died. The flap coins are keyed per round, so
		// with ChurnRate < 1 a runnable cohort arrives almost surely; the
		// attempt bound is a defensive backstop, dropping the tier like an
		// emptied membership would.
		selected = e.churnFilter(t, p.Round, selected)
		for attempts := 0; len(selected) == 0 && attempts < 1000; attempts++ {
			if p = e.com.Pull(t); len(p.Cohort) == 0 {
				return
			}
			selected = e.churnFilter(t, p.Round, p.Cohort)
		}
		if len(selected) == 0 {
			return
		}
	}
	// The round trains straight from the global vector: nothing commits
	// until dispatch has returned, so the pull needs no copy.
	r, pulled := p.Round, p.Weights
	// Downlink charging: every client is charged a dense snapshot unless
	// the tier's delta chain covers it — the chain advances exactly once
	// per round (shared payload, the O(1)-per-round encode), a client whose
	// last participation in this tier is still in the chain's ring is
	// charged the catch-up from there (the socket runtime's bill, by the
	// same chain method), and the round then trains from the chain's
	// post-round base so lossy broadcasts affect the model here exactly as
	// they do over sockets. Every cohort member replies in the sim, so it
	// acks at dispatch.
	dense := int64(compress.DenseBytes(len(pulled)))
	e.downs = grow(e.downs, len(selected))
	downs := e.downs
	for i := range downs {
		downs[i] = dense
	}
	var charged []int64 // nil keeps the dense run on its historical latency path
	if e.Cfg.Downlink != nil {
		ch := e.downChains[t]
		if !ch.HasBase() {
			ch.Adopt(pulled)
		} else {
			ch.Encode(pulled)
		}
		for i, ci := range selected {
			if a, ok := e.acked[ci]; ok && a.tier == t {
				if _, n := ch.CatchUp(a.ver); n > 0 {
					downs[i] = int64(n)
				}
			}
			e.acked[ci] = ackRef{tier: t, ver: ch.Version()}
		}
		pulled = ch.Base() // read-only until the round below has trained
		charged = downs
	}
	// The round's cohort is materialized through the source for exactly the
	// span of its local training: acquire everyone (so the round is a unit
	// of client-state lifetime), train, aggregate, release. With a lazy
	// source this is THE memory bound of a population-scale run — at most
	// one cohort of client state is ever resident. Acquire and Release stay
	// on this goroutine, in selection order; only the training between them
	// fans out.
	e.acquired = grow(e.acquired, len(selected))
	acquired := e.acquired
	for i, ci := range selected {
		acquired[i] = e.src.Acquire(ci)
	}
	updates := e.eng.trainCohort(r, acquired, pulled, charged)
	if run == nil {
		run = &tierRun{}
	}
	run.weights = grow(run.weights, len(pulled))
	FedAvgInto(run.weights, updates)
	for i, c := range acquired {
		e.src.Release(c)
		acquired[i] = nil // a lazy client's shard must not outlive its round
	}
	lat := MaxLatency(updates)
	run.lats = grow(run.lats, len(updates))
	run.bytes = grow(run.bytes, len(updates))
	run.upBytes, run.downBytes = 0, 0
	for i, u := range updates {
		run.upBytes += int64(u.WireBytes)
		run.downBytes += downs[i]
		run.bytes[i] = downs[i] + int64(u.WireBytes)
		run.lats[i] = u.Latency
	}
	run.tier, run.tierRound, run.pulledVer = t, r, p.Version
	run.finish, run.latency, run.selected = now+lat, lat, selected
	heap.Push(&e.pending, run)
}

// churnFilter drops a round's flapped clients: each coin models the member
// being disconnected when the round dispatched, so its update never reaches
// the round's FedAvg and — mirroring a socket-runtime reconnect, which
// re-registers holding no downlink base — its delta-chain ack is forgotten
// and its next participation is charged a dense snapshot.
func (e *TieredAsyncEngine) churnFilter(t, r int, selected []int) []int {
	cs := e.Cfg.ChurnSeed
	if cs == 0 {
		cs = e.Cfg.Seed
	}
	kept := make([]int, 0, len(selected))
	for _, ci := range selected {
		if churnFlap(cs, t, r, ci, e.Cfg.ChurnRate) {
			delete(e.acked, ci)
			continue
		}
		kept = append(kept, ci)
	}
	return kept
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
	// sharding cannot change results (the per-element expression is
	// unchanged from the historical serial loop).
	tensor.ParallelChunks(len(global), 3*len(global), func(lo, hi int) {
		g := global[lo:hi]
		c := commit[lo:hi:hi]
		for i := range g {
			g[i] = (1-a)*g[i] + a*c[i]
		}
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
		// tier's pooled member test shards and hand the accuracies to the
		// Manager, which drives its tier-selection probabilities from them.
		if e.Cfg.Manager != nil {
			if accs := e.tierAccuracies(); accs != nil {
				e.Cfg.Manager.ObserveAccuracy(accs)
			}
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

		// What the Manager hears: in the simulation the per-client latency
		// already is the end-to-end round cost, so it doubles as both
		// signals, plus the round's wire bytes.
		e.observed = grow(e.observed, len(run.selected))
		for i, ci := range run.selected {
			e.observed[i] = Observation{Client: ci, Seconds: run.lats[i], EndToEnd: run.lats[i]}
			if run.bytes != nil {
				e.observed[i].Bytes = run.bytes[i]
			}
		}
		rec, moves, err := e.com.Apply(Commit{
			Tier: run.tier, TierRound: run.tierRound, PulledVersion: run.pulledVer,
			Weights: run.weights, Observed: e.observed,
			UplinkBytes: run.upBytes, DownlinkBytes: run.downBytes,
		})
		if err != nil {
			// The engine built every field of the commit itself; only a
			// broken TierWeight policy can land here.
			panic(err.Error())
		}
		if len(moves) > 0 {
			// Migrations take effect at each tier's next dispatch; the
			// in-flight runs in the heap keep their cohorts. The pooled
			// per-tier evaluation shards are stale now, and a moved client's
			// ack is forgotten, as the socket runtime voids it for the rounds
			// pulled after the move: moved back before it trains elsewhere,
			// it is re-sent dense.
			e.tierTest = nil
			for _, mv := range moves {
				delete(e.acked, mv.Client)
			}
		}
		rec.Selected, rec.Latency, rec.SimTime = run.selected, run.latency, now
		res.TierRounds = append(res.TierRounds, rec)
		if e.Cfg.OnCommit != nil {
			e.Cfg.OnCommit(rec)
		}
		e.dispatch(run.tier, now, run)
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
// member test shards (the tiered-async analogue of core.TierTestData —
// only accuracies ever reach the Manager, so the privacy posture matches
// the synchronous adaptive selector). Pools are cached per membership
// epoch and capped at tierTestCap samples with a (Seed, tier)-keyed
// subset. Returns nil when no tier has any client test data.
func (e *TieredAsyncEngine) tierAccuracies() []float64 {
	if e.tierTest == nil {
		e.tierTest = make([]*dataset.Dataset, len(e.com.Tiers()))
		for t, members := range e.com.Tiers() {
			var parts []*dataset.Dataset
			// Pooling runs through the source so managed lazy runs stay
			// byte-identical to eager ones; each member is materialized only
			// for the duration of the shard copy. This is an O(|tier|) sweep
			// per membership epoch — population-scale runs should not pair a
			// lazy source with Manager accuracy feedback (ext_million uses
			// static tiers).
			for _, ci := range members {
				c := e.src.Acquire(ci)
				if c.Test != nil && c.Test.Len() > 0 {
					parts = append(parts, c.Test)
				}
				e.src.Release(c)
			}
			if len(parts) == 0 {
				continue
			}
			pooled := dataset.Concat(parts...)
			if pooled.Len() > tierTestCap {
				rng := rand.New(rand.NewSource(mix(e.Cfg.Seed, -7, t)))
				pooled = pooled.Subset(rng.Perm(pooled.Len())[:tierTestCap])
			}
			e.tierTest[t] = pooled
		}
	}
	accs := make([]float64, len(e.tierTest))
	any := false
	e.eng.global.SetWeightsVector(e.com.Weights())
	for t := range accs {
		accs[t] = math.NaN()
		if e.tierTest[t] != nil {
			accs[t], _ = e.eng.global.Evaluate(e.tierTest[t].InputTensor(), e.tierTest[t].Y, e.Cfg.EvalBatch)
			any = true
		}
	}
	if !any {
		return nil
	}
	return accs
}

// RunTieredAsync is the one-shot convenience wrapper mirroring RunAsync.
func RunTieredAsync(cfg TieredAsyncConfig, tiers [][]int, clients []*Client, test *dataset.Dataset) *TieredAsyncResult {
	return NewTieredAsyncEngine(cfg, tiers, clients, test).Run()
}
