package flcore

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/nn"
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
// Tier rounds train side by side, as FedAT's tiers do: a round's member
// passes run on a pool of GOMAXPROCS trainers while other tiers' rounds
// train and Run's goroutine commits. The result does not depend on the
// pool: each client's pass is keyed on (Seed, tier round, client) and
// touches no state another pass writes, a round is aggregated in selection
// order, and commits apply in the serial event order (see next). In
// exchange Model, Optimizer, Latency and the clients' Drift functions must
// be safe for concurrent calls, now also across different tiers' rounds
// and with Run's goroutine, which reads Latency and Drift to bound a
// round's finish — the contract Config.Parallel states for the synchronous
// engine. Manager, TierWeight, OnCommit and OnCheckpoint are only ever
// called from the goroutine that called Run.
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
	// EvalBatch groups the evaluation loss: each batch's mean is formed
	// in one pass (0 = the whole set as one batch). It does not bound
	// memory: nn.Model.Evaluate forwards a model with a Conv2D in blocks
	// of 10 samples whatever EvalBatch is.
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

// tierRun is one tier's in-flight round: its commit, the simulated time it
// lands at, and its duration (the slowest member's latency) once trained;
// before that, what its trainers read and write. A tier reuses its tierRun,
// and every buffer in it, from one round to the next.
type tierRun struct {
	Commit
	finish, latency float64

	// floor bounds finish from below from the moment of dispatch (the
	// latency model's LatencyFloor over the members, added to start).
	start, floor float64
	pull         TierPull // Weights nil: a dense round trains from base
	req          RoundRequest
	down         int64
	clients      []*Client   // the cohort, acquired, in bill order
	base         []float64   // the tier's copy of a dense pull
	slots        [][]float64 // each member's trained weights, in bill order
	updates      []Update
	panics       []any // a member pass's panic, raised again at the join
	replies      []Reply
	left         atomic.Int32  // member passes not yet trained
	done         chan struct{} // receives once left reaches 0
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
	// queue of trained in-flight tier rounds and the next eval boundary.
	pending  tierRunHeap
	nextEval float64
	resumed  bool

	// Downlink state: one chain per tier (nil without a Downlink) and the
	// ledger every tier round bills its members through.
	chains []*compress.Chain
	acks   *AckLedger

	// training are the dispatched rounds not yet joined, in no order; passes
	// feeds their member passes to the trainer pool while Run runs.
	training []*tierRun
	passes   chan memberPass
	trainers sync.WaitGroup

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
	if err := cfg.Latency.Validate(); err != nil {
		panic(err.Error())
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
	rng := rand.New(nn.NewSource(mix(seed, tierRound, -(100 + tier))))
	perm := rng.Perm(len(members))
	out := make([]int, want)
	for i := range out {
		out[i] = members[perm[i]]
	}
	return out
}

// dispatch starts tier t's next round from the Committer's pull: the
// round's dispatch half (reach, chain advance, bills) runs here, its member
// passes go to the trainer pool, and the round waits in e.training for its
// join, reusing run's buffers (nil on a tier's first dispatch). A round
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
		if billTierRound(p, e.chains[t], e.acks, e.reach, &run.req) {
			e.train(run, p, now)
			return
		}
	}
}

// reach is the sim's Reach: its churn coin flaps a member out of a round
// as a disconnect would, forgetting its acks as a reconnect does.
func (e *TieredAsyncEngine) reach(tier, round, member int) (int, bool) {
	if e.Cfg.ChurnRate > 0 && churnFlap(e.Cfg.Seed, tier, round, member, e.Cfg.ChurnRate) {
		e.acks.Forget(member)
		return 0, false
	}
	return 0, true
}

// memberPass is one member's local pass of a dispatched round.
type memberPass struct {
	run *tierRun
	i   int
}

// train acquires run's billed cohort through the source, in bill order —
// with a lazy source one cohort per in-flight tier is resident — bounds the
// round's finish from below and queues its member passes. A dense round
// trains from the tier's copy of the pull, as commits land in the global
// vector while it trains; a chained one from the chain's base, which only
// the tier's next dispatch moves. Under a chain each member's latency is
// charged its bill's bytes.
func (e *TieredAsyncEngine) train(run *tierRun, p TierPull, now float64) {
	req := &run.req
	if run.done == nil {
		run.done = make(chan struct{}, 1)
	}
	if req.ChainVersion == 0 {
		run.base = append(run.base[:0], p.Weights...)
		req.Base = run.base
	}
	p.Weights = nil
	run.pull, run.start, run.down = p, now, 0
	n := len(req.Bills)
	run.clients, run.slots = grow(run.clients, n), grow(run.slots, n)
	run.updates, run.replies, run.panics = grow(run.updates, n), grow(run.replies, n), grow(run.panics, n)
	floor := 0.0
	for i, b := range req.Bills {
		c := e.src.Acquire(b.Member)
		run.clients[i], run.panics[i] = c, nil
		run.down += int64(b.Bytes)
		if f := e.eng.latencyFloor(req.Round, c, len(req.Base), run.charge(i)); f > floor {
			floor = f
		}
	}
	run.floor = now + floor
	run.left.Store(int32(n))
	e.training = append(e.training, run)
	for i := range n {
		e.passes <- memberPass{run, i}
	}
}

// charge is the downlink bytes member i is charged: its bill's under a
// chain, or -1, the dense round's historical latency path.
func (r *tierRun) charge(i int) int {
	if r.req.ChainVersion == 0 {
		return -1
	}
	return r.req.Bills[i].Bytes
}

// trainPasses is one trainer of the pool: it runs member passes on its own
// scratch until Run closes the queue. A pass writes only its member's
// slot, update and residual, and the round's last pass signals its join.
func (e *TieredAsyncEngine) trainPasses(s *trainScratch) {
	defer e.trainers.Done()
	defer e.eng.putScratch(s)
	for p := range e.passes {
		run, i := p.run, p.i
		func() {
			defer func() { run.panics[i] = recover() }()
			run.updates[i] = e.eng.trainOn(s, run.req.Round, run.clients[i], run.req.Base, run.charge(i), run.slots[i])
			run.slots[i] = run.updates[i].Weights
			run.replies[i] = Reply{Update: run.updates[i], Bill: i}
		}()
		if run.left.Add(-1) == 0 {
			run.done <- struct{}{}
		}
	}
}

// join waits for e.training[k] to finish training and takes it out: it
// releases the cohort, in bill order, raises a pass's panic, and runs the
// round's commit half, after which the round waits in the event heap. Its
// acks land before any later dispatch could read or forget them, as a
// member can sit in another tier's cohort only after a re-tiering, which
// joins every round first.
func (e *TieredAsyncEngine) join(k int) {
	run := e.training[k]
	e.training = slices.Delete(e.training, k, k+1)
	<-run.done
	for i, c := range run.clients {
		e.src.Release(c)
		run.clients[i] = nil // a lazy client's shard must not outlive its round
	}
	for _, p := range run.panics {
		if p != nil {
			panic(p)
		}
	}
	run.latency = MaxLatency(run.updates)
	run.finish = run.start + run.latency
	commitTierRound(run.pull, e.acks, &run.req, run.replies, run.down, &run.Commit)
	heap.Push(&e.pending, run)
}

// joinAll joins every dispatched round.
func (e *TieredAsyncEngine) joinAll() {
	for len(e.training) > 0 {
		e.join(len(e.training) - 1)
	}
}

// next takes out the round that commits next — the earliest by (finish,
// tier), the event heap's order — or returns nil when none is in flight.
// It pops the heap's earliest trained round only when that finishes
// strictly before every untrained round's floor, so before its finish;
// otherwise it joins the untrained round with the lowest floor and looks
// again. The commit order is therefore the one a serial loop that trains
// at dispatch produces, whatever the trainers' progress.
func (e *TieredAsyncEngine) next() *tierRun {
	for {
		k := -1
		for i, r := range e.training {
			if k < 0 || r.floor < e.training[k].floor || (r.floor == e.training[k].floor && r.pull.Tier < e.training[k].pull.Tier) {
				k = i
			}
		}
		if k < 0 || (e.pending.Len() > 0 && e.pending[0].finish < e.training[k].floor) {
			if e.pending.Len() == 0 {
				return nil
			}
			return heap.Pop(&e.pending).(*tierRun)
		}
		e.join(k)
	}
}

// startTrainers starts the trainer pool: GOMAXPROCS trainers with one
// scratch each. stopTrainers, once every round is joined, stops it.
func (e *TieredAsyncEngine) startTrainers() {
	e.passes = make(chan memberPass, min(e.numClients(), 1<<12))
	for range runtime.GOMAXPROCS(0) {
		e.trainers.Add(1)
		go e.trainPasses(e.eng.getScratch())
	}
}

func (e *TieredAsyncEngine) stopTrainers() {
	close(e.passes)
	e.trainers.Wait()
	e.passes = nil
}

// churnFlap is the deterministic per-(tier, round, client) churn coin,
// keyed disjointly from both the cohort draw (-(100+tier)) and the
// per-client training streams.
func churnFlap(seed int64, tier, round, client int, rate float64) bool {
	rng := rand.New(nn.NewSource(mix(mix(seed, round, -(500+tier)), client, -977)))
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
	e.startTrainers()
	defer e.stopTrainers()
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

	for {
		run := e.next()
		if run == nil || run.finish > e.Cfg.Duration {
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
			// in-flight rounds keep their cohorts, and are joined first so
			// that a moved client's next pass follows its last one. The
			// pooled per-tier evaluation shards are stale now, and a moved
			// client's acks are void for the rounds pulled from here on.
			e.joinAll()
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
		// the committing tier re-dispatched, so once Snapshot joins them the
		// heap holds every in-flight round and the checkpoint is a clean
		// between-commits cut.
		if e.Cfg.OnCheckpoint != nil && e.com.CheckpointDue() {
			c, err := e.Snapshot()
			if err != nil {
				panic(fmt.Sprintf("flcore: periodic checkpoint failed: %v", err))
			}
			e.Cfg.OnCheckpoint(c)
		}
	}
	e.joinAll()
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
