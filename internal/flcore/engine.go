package flcore

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/compress"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/simres"
	"repro/internal/tensor"
)

// ModelFactory builds a fresh (randomly initialized) model replica. The
// engine creates one replica per client per round — weights are immediately
// overwritten with the global model, so only the architecture matters; the
// rng drives dropout so local training is deterministic per (seed, round,
// client) even under parallel execution.
type ModelFactory func(rng *rand.Rand) *nn.Model

// OptimizerFactory builds the local optimizer for a given round, letting
// schedules like the paper's RMSprop 0.01 with 0.995 decay depend on the
// round index.
type OptimizerFactory func(round int) nn.Optimizer

// Config holds the training hyperparameters of a federated job. The
// defaults in the paper: |K|=50 clients, |C|=5 per round, local batch size
// 10, 1 local epoch, 500 rounds (2000 for FEMNIST).
type Config struct {
	Rounds          int
	ClientsPerRound int
	LocalEpochs     int
	BatchSize       int
	Seed            int64
	Model           ModelFactory
	Optimizer       OptimizerFactory
	Latency         simres.LatencyModel
	// EvalEvery evaluates the global model on the global test set every k
	// rounds (0 disables periodic eval; the final round is always
	// evaluated).
	EvalEvery int
	// EvalBatch groups the evaluation loss: each batch's mean is formed
	// in one pass (0 = the whole set as one batch). It does not bound
	// memory: nn.Model.Evaluate forwards a model with a Conv2D in blocks
	// of 10 samples whatever EvalBatch is.
	EvalBatch int
	// Parallel trains the selected clients concurrently (see syncTrainer).
	// Results are deterministic either way because all randomness is keyed
	// on (Seed, round, client). The Model, Optimizer, EpochsFor and
	// TransformUpdate callbacks and the clients' Drift functions are then
	// called from several goroutines at once — never for the same client —
	// and must be safe for that. Engine.Run also scores an evaluated
	// round's global test set on a replica of the model while the next
	// round trains, so that round's record reaches History and OnRound once
	// its evaluation finishes, after the next round's training.
	Parallel bool
	// TransformUpdate, if set, post-processes each client's update before
	// aggregation — the hook where client-level differential privacy
	// (clipping + Gaussian noise on the weight delta, internal/privacy)
	// plugs in. global is the round's starting weight vector.
	TransformUpdate func(round int, global []float64, u *Update)
	// ProxMu, when positive, adds FedProx's proximal term μ/2·‖w−w_g‖² to
	// every client's local objective (the paper's reference [23] baseline).
	ProxMu float64
	// OnRound, if set, receives every round's record as it completes —
	// the hook internal/trace uses to stream JSONL run traces. Records
	// arrive in round order, and GlobalWeights then holds the record's
	// round's model. Under Parallel an evaluated round's record arrives once
	// its evaluation finishes, which overlaps the next round's training.
	OnRound func(rec RoundRecord)
	// EpochsFor, if set, overrides LocalEpochs per client per round —
	// FedProx-style partial work on stragglers (slow clients train fewer
	// epochs so they respond in time).
	EpochsFor func(c *Client, round int) int
	// Codec, if set, compresses every client's uplink update with
	// error feedback: the client's weight delta (plus the residual its
	// codec dropped in earlier rounds) is encoded, the aggregator sees the
	// decoded reconstruction, and the encoding error stays client-side for
	// the next round. The latency model then charges for actual encoded
	// bytes (dense download + compressed upload) instead of a dense
	// parameter round trip. nil trains uncompressed.
	Codec compress.Codec
}

func (c *Config) validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("flcore: Rounds = %d", c.Rounds)
	case c.ClientsPerRound <= 0:
		return fmt.Errorf("flcore: ClientsPerRound = %d", c.ClientsPerRound)
	case c.LocalEpochs <= 0:
		return fmt.Errorf("flcore: LocalEpochs = %d", c.LocalEpochs)
	case c.Model == nil:
		return fmt.Errorf("flcore: Model factory is nil")
	case c.Optimizer == nil:
		return fmt.Errorf("flcore: Optimizer factory is nil")
	}
	return c.Latency.Validate()
}

// RoundRecord captures one global round for the result history.
type RoundRecord struct {
	Round    int
	Selected []int
	// Latency is this round's response latency (max over selected clients).
	Latency float64
	// SimTime is cumulative simulated training time after this round.
	SimTime float64
	// Acc/Loss are global test metrics, NaN when the round was not
	// evaluated.
	Acc, Loss float64
	// UplinkBytes is the round's total encoded update traffic (sum of the
	// selected clients' wire payloads).
	UplinkBytes int64
}

// Result is a finished federated training job.
type Result struct {
	History   []RoundRecord
	FinalAcc  float64
	FinalLoss float64
	TotalTime float64 // simulated seconds for all rounds
	// UplinkBytes is the total encoded client→server update traffic over
	// the whole job — the quantity update compression shrinks.
	UplinkBytes int64
	Weights     []float64
}

// Engine drives synchronous federated rounds over a fixed client
// population, per Algorithm 1 with a pluggable Selector.
type Engine struct {
	Cfg        Config
	Clients    []*Client
	GlobalTest *dataset.Dataset

	global  *nn.Model
	weights []float64
	clock   simres.Clock

	// scratch holds one trainScratch per concurrently training goroutine:
	// the workspace (pooled layer buffers), the cached model replica, and
	// the mini-batch staging. Steady-state rounds reuse all of it, so local
	// training allocates almost nothing. A plain stack (not a sync.Pool) so
	// warmed-up replicas survive garbage collections for the engine's whole
	// lifetime; it never outgrows the engine's worker-goroutine count.
	mu      sync.Mutex
	scratch []*trainScratch

	// eval is Run's global-test evaluator under Cfg.Parallel.
	eval *globalEval
}

// trainScratch is the per-goroutine reusable state of TrainClient.
type trainScratch struct {
	ws      *nn.Workspace
	rep     *nn.Replica
	bbuf    dataset.BatchBuf
	payload []byte // the codec path's payload buffer, reused every round
}

func (e *Engine) getScratch() *trainScratch {
	e.mu.Lock()
	if n := len(e.scratch); n > 0 {
		s := e.scratch[n-1]
		e.scratch = e.scratch[:n-1]
		e.mu.Unlock()
		return s
	}
	e.mu.Unlock()
	return &trainScratch{ws: nn.NewWorkspace(), rep: nn.NewReplica(e.Cfg.Model)}
}

func (e *Engine) putScratch(s *trainScratch) {
	e.mu.Lock()
	e.scratch = append(e.scratch, s)
	e.mu.Unlock()
}

// NewEngine builds an engine; it panics on invalid configuration so
// misconfigured experiments fail loudly at construction.
func NewEngine(cfg Config, clients []*Client, globalTest *dataset.Dataset) *Engine {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if len(clients) == 0 {
		panic("flcore: no clients")
	}
	global := cfg.Model(rand.New(rand.NewSource(cfg.Seed)))
	// The global model is only ever evaluated from the engine's own round
	// loop, so it gets its own workspace: periodic evaluations reuse their
	// activation buffers instead of allocating per eval batch.
	global.SetWorkspace(nn.NewWorkspace())
	resetResiduals(clients)
	return &Engine{
		Cfg:        cfg,
		Clients:    clients,
		GlobalTest: globalTest,
		global:     global,
		weights:    global.WeightsVector(),
	}
}

// resetResiduals clears every client's error-feedback state. Engines call
// it at construction so each training job starts with clean residuals —
// reusing one client population across jobs (as tifl.System does) must not
// leak one run's compression error into the next, and a fresh flnet worker
// starts with a nil residual too, keeping sim and net equivalent.
func resetResiduals(clients []*Client) {
	for _, c := range clients {
		c.residual = nil
	}
}

// GlobalWeights returns the current global weight vector (not a copy).
func (e *Engine) GlobalWeights() []float64 { return e.weights }

// GlobalModel returns the engine's global model with current weights.
func (e *Engine) GlobalModel() *nn.Model { return e.global }

// mix derives a deterministic sub-seed from (seed, a, b) via splitmix64.
func mix(seed int64, a, b int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(a+1) + 0xBF58476D1CE4E5B9*uint64(b+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// SelectionRNG is round r's selector source, the rng Engine.Run hands
// Selector.Select. The socket runtime's synchronous driver
// (flnet.Aggregator.Run) calls it too, so one selector and one seed pick the
// same clients in simulation and over sockets.
func SelectionRNG(seed int64, round int) *rand.Rand {
	return rand.New(rand.NewSource(mix(seed, round, -7)))
}

// TrainClient runs one client's local training for the round and returns
// its update; exported so the distributed runtime (internal/flnet) can run
// the identical computation on worker nodes.
func (e *Engine) TrainClient(round int, clientIdx int, globalWeights []float64) Update {
	s := e.getScratch()
	defer e.putScratch(s)
	return e.trainOn(s, round, e.Clients[clientIdx], globalWeights, -1, nil)
}

// trainOn is one client's local pass on the calling goroutine's scratch. c
// need not be resident in e.Clients: every random stream is keyed on (Seed,
// round, Client.ID), so a lazily materialized client (ClientSource) trains
// bit-identically to its eager twin.
//
// downBytes >= 0 is an explicit downlink charge: the broadcast reached this
// client as downBytes wire bytes (a shared delta payload under downlink
// compression, or a dense snapshot it was not eligible for) and the latency
// model charges downBytes + the update's encoded size for the round's
// communication. downBytes < 0 keeps the historical dense charging
// (chargedBytes). The rng draw sequence is identical either way, so
// switching charging modes never perturbs training randomness.
//
// The pass trains in out, the caller's slot, which is reallocated only when
// it is too small; nil gives the update a fresh vector. The replica's
// parameters are bound to that slot for the pass (nn.Model.BindWeights), so
// the global weights are copied once, into out, and the replica holds no
// weight vector of its own; it is unbound when the pass ends, so it keeps
// no slot alive. out must not alias globalWeights, and it is the caller's
// slot, never a client's.
func (e *Engine) trainOn(s *trainScratch, round int, c *Client, globalWeights []float64, downBytes int, out []float64) Update {
	// Replica.Acquire reproduces rand.New(rand.NewSource(mix(...))) followed
	// by a fresh factory build, bit-exactly, while reusing the cached model
	// and its workspace-pooled scratch — the rng stream, and therefore every
	// dropout draw and batch shuffle below, is unchanged.
	model, rng := s.rep.Acquire(mix(e.Cfg.Seed, round, c.ID))
	model.SetWorkspace(s.ws)
	if cap(out) < len(globalWeights) {
		out = make([]float64, len(globalWeights))
	}
	out = out[:len(globalWeights)]
	copy(out, globalWeights)
	model.BindWeights(out)
	defer model.UnbindWeights()
	opt := e.Cfg.Optimizer(round)
	if sp, ok := opt.(nn.StatePooled); ok {
		// Per-round optimizer state (momentum/second-moment caches) comes
		// from the goroutine's workspace pool; it starts zeroed either way.
		sp.AttachStatePool(s.ws.Pool())
		defer sp.ReleaseState()
	}
	if e.Cfg.ProxMu > 0 {
		opt = nn.NewProximal(opt, e.Cfg.ProxMu, globalWeights)
	}
	epochs := e.epochs(c, round)
	for ep := 0; ep < epochs; ep++ {
		c.Train.BatchesBuf(e.Cfg.BatchSize, rng, &s.bbuf, func(x *tensor.Tensor, y []int) {
			model.TrainBatch(x, y, opt)
		})
	}
	wire := compress.DenseBytes(len(out))
	if e.compressed() {
		// Error-feedback compression: encode delta+residual into the
		// scratch's payload buffer, keep the encoding error on the client,
		// and hand the aggregator the exact reconstruction the wire payload
		// decodes to, written over the trained weights — so the simulated
		// engine and a real flnet worker produce identical updates.
		s.payload, c.residual = compress.EncodeFeedbackInto(s.payload, e.Cfg.Codec, out, globalWeights, c.residual, out)
		wire = len(s.payload)
	}
	lat := e.Cfg.Latency.LatencyBytes(c.EffectiveCPU(round), c.NumSamples(), epochs,
		e.chargedBytes(len(out), downBytes, wire), c.Bandwidth, rng)
	u := Update{ClientID: c.ID, Weights: out, NumSamples: c.NumSamples(), Latency: lat, WireBytes: wire}
	if e.Cfg.TransformUpdate != nil {
		e.Cfg.TransformUpdate(round, globalWeights, &u)
	}
	return u
}

// compressed reports whether updates go out through Cfg.Codec. The dense
// codec (IDNone) is a wire format, not a compression: it counts as nil, so
// a "none" run stays bit-identical to an uncompressed one (flnet workers
// and tifl-node special-case it the same way).
func (e *Engine) compressed() bool {
	return e.Cfg.Codec != nil && e.Cfg.Codec.ID() != compress.IDNone
}

// chargedBytes is the transfer a pass of a dim-entry model is charged: the
// broadcast (downBytes, or a dense model when negative) plus wire uplink
// bytes, or, uncompressed and with no explicit charge, LatencyFull's dense
// round trip of dim parameters.
func (e *Engine) chargedBytes(dim, downBytes, wire int) int {
	switch {
	case downBytes >= 0:
		return downBytes + wire
	case e.compressed():
		return compress.DenseBytes(dim) + wire
	default:
		return 16 * dim
	}
}

// latencyFloor bounds from below the latency trainOn draws for c's pass of
// round on a dim-entry model charged downBytes, before it trains: an
// encoded uplink, whose size is known only after the pass, counts as zero
// bytes.
func (e *Engine) latencyFloor(round int, c *Client, dim, downBytes int) float64 {
	wire := compress.DenseBytes(dim)
	if e.compressed() {
		wire = 0
	}
	return e.Cfg.Latency.LatencyFloor(c.EffectiveCPU(round), c.NumSamples(), e.epochs(c, round),
		e.chargedBytes(dim, downBytes, wire), c.Bandwidth)
}

// epochs is c's local epoch count in round: EpochsFor's, or LocalEpochs.
func (e *Engine) epochs(c *Client, round int) int {
	if e.Cfg.EpochsFor != nil {
		if n := e.Cfg.EpochsFor(c, round); n > 0 {
			return n
		}
	}
	return e.Cfg.LocalEpochs
}

// Run executes Cfg.Rounds synchronous rounds with the given selector and
// returns the result history: sel draws each round's cohort, RunTierRound
// trains it, and a synchronous Committer commits its FedAvg.
//
// Under Cfg.Parallel an evaluated round's global-test score is computed on
// its own replica while AfterRound, the next Select and the next round's
// training proceed; the next round joins it after training and before its
// commit, and only then records the round and calls OnRound, so OnRound
// still sees that round's model in GlobalWeights. Every bit of the result
// is the same either way.
func (e *Engine) Run(sel Selector) *Result {
	res := &Result{}
	roster := make([]int, len(e.Clients))
	for i := range roster {
		roster[i] = i
	}
	k := NewSyncCommitter(e.Cfg.Seed, roster, e.weights)
	tr := &syncTrainer{e: e}
	var c Commit
	inFlight := false // e.eval is scoring the round before this one
	defer func() {
		if inFlight { // unwinding a panic: free the replica for the next Run
			<-e.eval.done
		}
	}()
	for r := 0; r < e.Cfg.Rounds; r++ {
		selected := sel.Select(r, SelectionRNG(e.Cfg.Seed, r))
		if len(selected) == 0 {
			panic(fmt.Sprintf("flcore: selector returned no clients in round %d", r))
		}
		RunTierRound(TierPull{Version: k.Version(), Weights: e.weights, Round: r, Cohort: selected}, nil, nil, tr, &c)
		if inFlight {
			inFlight = false
			e.record(res, e.eval.wait())
		}
		if _, _, err := k.Apply(c); err != nil {
			panic(err)
		}
		e.global.SetWeightsVector(e.weights)
		lat := MaxLatency(tr.updates)
		e.clock.Advance(lat)

		rec := RoundRecord{Round: r, Selected: selected, Latency: lat, SimTime: e.clock.Now(), Acc: math.NaN(), Loss: math.NaN(), UplinkBytes: c.UplinkBytes}
		last := r == e.Cfg.Rounds-1
		if e.GlobalTest != nil && (last || (e.Cfg.EvalEvery > 0 && r%e.Cfg.EvalEvery == 0)) {
			if e.Cfg.Parallel {
				e.startEval(rec)
				inFlight = true
			} else {
				rec.Acc, rec.Loss = e.global.Evaluate(e.GlobalTest.InputTensor(), e.GlobalTest.Y, e.Cfg.EvalBatch)
			}
		}
		if !inFlight {
			e.record(res, rec)
		}

		if obs, ok := sel.(LatencyObserver); ok {
			obs.ObserveLatencies(r, tr.updates)
		}
		if obs, ok := sel.(RoundObserver); ok {
			obs.AfterRound(r, func(d *dataset.Dataset) float64 {
				acc, _ := e.global.Evaluate(d.InputTensor(), d.Y, e.Cfg.EvalBatch)
				return acc
			})
		}
	}
	if inFlight {
		inFlight = false
		e.record(res, e.eval.wait())
	}
	res.TotalTime, res.UplinkBytes = e.clock.Now(), k.Totals().UplinkBytes
	res.Weights = append([]float64(nil), e.weights...)
	final := res.History[len(res.History)-1]
	res.FinalAcc, res.FinalLoss = final.Acc, final.Loss
	return res
}

// record appends a finished round to the history and hands it to OnRound.
func (e *Engine) record(res *Result, rec RoundRecord) {
	res.History = append(res.History, rec)
	if e.Cfg.OnRound != nil {
		e.Cfg.OnRound(rec)
	}
}

// globalEval scores GlobalTest off Run's goroutine on a replica of the
// global model with its own workspace, so the global model stays free for
// AfterRound and the next round meanwhile.
type globalEval struct {
	model    *nn.Model
	rec      RoundRecord   // the round being scored
	panicked any           // the evaluation's panic, if it had one
	done     chan struct{} // one value per evaluation
}

// startEval copies the global weights into the replica (built on first use)
// and scores GlobalTest with them into rec's Acc and Loss on a goroutine.
func (e *Engine) startEval(rec RoundRecord) {
	g := e.eval
	if g == nil {
		g = &globalEval{model: e.Cfg.Model(rand.New(rand.NewSource(e.Cfg.Seed))), done: make(chan struct{}, 1)}
		g.model.SetWorkspace(nn.NewWorkspace())
		e.eval = g
	}
	g.model.SetWeightsVector(e.weights)
	g.rec, g.panicked = rec, nil
	go func() {
		defer func() {
			g.panicked = recover()
			g.done <- struct{}{}
		}()
		g.rec.Acc, g.rec.Loss = g.model.Evaluate(e.GlobalTest.InputTensor(), e.GlobalTest.Y, e.Cfg.EvalBatch)
	}()
}

// wait joins the evaluation and returns its scored record; a panic in the
// evaluation is raised again here, on the caller's goroutine.
func (g *globalEval) wait() RoundRecord {
	<-g.done
	if g.panicked != nil {
		panic(g.panicked)
	}
	return g.rec
}

// syncTrainer is Run's Trainer. It reaches every member, and Train trains
// each bill's client from the round's base into the bill's slot of updates
// and replies, which it overwrites on its next call. The bill's trained
// weights go into the bill's vector of slots, kept from round to round as
// the tiered sim's tierRun keeps its own.
//
// With Cfg.Parallel, min(GOMAXPROCS, len(cohort)) goroutines — the caller's
// among them, and the caller's alone for a cohort too small to be worth
// waking a core for (cohortWorkers) — pull indices from a shared counter,
// each on its own trainScratch, all taken before any starts so the engine
// holds as many as its widest round and no more. The result cannot depend
// on the worker count or on which goroutine trains whom: a client's pass
// reads the shared weights, draws only from its own (Seed, round,
// Client.ID) stream, and writes only its own residual and its own slot.
// Everything order-sensitive (FedAvg, latency max, byte accounting) runs
// afterwards, in cohort order.
type syncTrainer struct {
	e       *Engine
	cohort  []*Client
	slots   [][]float64 // each slot's trained weights, in bill order
	updates []Update
	replies []Reply
	scratch []*trainScratch // the round's workers' scratch, the caller's first
}

func (t *syncTrainer) Reach(_, _, _ int) (int, bool) { return 0, true }

func (t *syncTrainer) Train(req *RoundRequest) ([]Reply, int64, RoundStatus) {
	e, n := t.e, len(req.Bills)
	var down int64
	t.cohort = grow(t.cohort, n)
	for i, b := range req.Bills {
		t.cohort[i] = e.Clients[b.Member]
		down += int64(b.Bytes)
	}
	t.slots, t.updates, t.replies = grow(t.slots, n), grow(t.updates, n), grow(t.replies, n)
	var next atomic.Int64
	work := func(s *trainScratch) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			t.updates[i] = e.trainOn(s, req.Round, t.cohort[i], req.Base, -1, t.slots[i])
			t.slots[i] = t.updates[i].Weights
			t.replies[i] = Reply{Update: t.updates[i], Bill: i}
		}
	}
	t.scratch = grow(t.scratch, e.cohortWorkers(t.cohort, len(req.Base)))
	for w := range t.scratch {
		t.scratch[w] = e.getScratch()
	}
	var wg sync.WaitGroup
	for _, s := range t.scratch[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(s)
		}()
	}
	work(t.scratch[0])
	wg.Wait()
	for _, s := range t.scratch {
		e.putScratch(s)
	}
	return t.replies, down, RoundCommitted
}

// cohortParallelWork is the estimated multiply-add count of a cohort's local
// training below which it trains on the calling goroutine alone. Measured on
// a 2-core box with cohorts of 5 on a 482-parameter MLP: at 1 and 4 samples
// per client (7k and 29k multiply-adds, rounds of ~120-150 µs) a second
// goroutine costs 12-15 % of the round rate, at 12 samples (87k) it gains
// 6-13 %, and the gain grows from there.
const cohortParallelWork = 1 << 16

// cohortWorkers is how many goroutines train the cohort: one without
// Cfg.Parallel or when the cohort's estimated work (three multiply-adds per
// parameter per sample per epoch: the forward product and the two backward
// ones) is under cohortParallelWork, else min(GOMAXPROCS, len(clients)).
func (e *Engine) cohortWorkers(clients []*Client, dim int) int {
	if !e.Cfg.Parallel {
		return 1
	}
	samples := 0
	for _, c := range clients {
		samples += c.NumSamples()
	}
	if 3*samples*e.Cfg.LocalEpochs*dim < cohortParallelWork {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), len(clients))
}

// grow reslices s to n elements, reallocating only when it is too small.
// The elements keep whatever the previous use left in them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
