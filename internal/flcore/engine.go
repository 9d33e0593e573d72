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
	// EvalBatch bounds eval batch size (0 = whole set at once).
	EvalBatch int
	// Parallel trains the selected clients concurrently (see trainCohort).
	// Results are deterministic either way because all randomness is keyed
	// on (Seed, round, client). The Model, Optimizer, EpochsFor and
	// TransformUpdate callbacks and the clients' Drift functions are then
	// called from several goroutines at once — never for the same client —
	// and must be safe for that.
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
	// the hook internal/trace uses to stream JSONL run traces.
	OnRound func(rec RoundRecord)
	// TargetAccuracy, when positive, stops training early once the global
	// test accuracy reaches it (requires periodic evaluation); the paper's
	// FL formulation runs "until a certain number of rounds are completed
	// or a desired accuracy is reached".
	TargetAccuracy float64
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
	return nil
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

// AccuracyAt returns the last evaluated accuracy at or before simulated
// time t, for accuracy-over-wall-clock curves (Fig. 3e/f).
func (r *Result) AccuracyAt(t float64) float64 {
	best := math.NaN()
	for _, rec := range r.History {
		if rec.SimTime > t {
			break
		}
		if !math.IsNaN(rec.Acc) {
			best = rec.Acc
		}
	}
	return best
}

// Engine drives synchronous federated rounds over a fixed client
// population, per Algorithm 1 with a pluggable Selector.
type Engine struct {
	Cfg        Config
	Clients    []*Client
	GlobalTest *dataset.Dataset

	global    *nn.Model
	weights   []float64
	clock     simres.Clock
	completed int // rounds finished so far (supports checkpoint/resume)

	// scratch holds one trainScratch per concurrently training goroutine:
	// the workspace (pooled layer buffers), the cached model replica, and
	// the mini-batch staging. Steady-state rounds reuse all of it, so local
	// training allocates almost nothing. A plain stack (not a sync.Pool) so
	// warmed-up replicas survive garbage collections for the engine's whole
	// lifetime; it never outgrows the engine's worker-goroutine count.
	mu      sync.Mutex
	scratch []*trainScratch

	// updates is trainCohort's result, resliced every round.
	updates []Update
}

// trainScratch is the per-goroutine reusable state of TrainClient.
type trainScratch struct {
	ws    *nn.Workspace
	rep   *nn.Replica
	bbuf  dataset.BatchBuf
	delta []float64 // error-feedback delta staging (codec path)
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

// Clock returns the engine's simulated clock.
func (e *Engine) Clock() *simres.Clock { return &e.clock }

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
	return e.trainOn(s, round, e.Clients[clientIdx], globalWeights, -1)
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
// bit-identically (including the parameter-based LatencyFull path for
// uncompressed uplinks). The rng draw sequence is identical either way, so
// switching charging modes never perturbs training randomness.
func (e *Engine) trainOn(s *trainScratch, round int, c *Client, globalWeights []float64, downBytes int) Update {
	// Replica.Acquire reproduces rand.New(rand.NewSource(mix(...))) followed
	// by a fresh factory build, bit-exactly, while reusing the cached model
	// and its workspace-pooled scratch — the rng stream, and therefore every
	// dropout draw and batch shuffle below, is unchanged.
	model, rng := s.rep.Acquire(mix(e.Cfg.Seed, round, c.ID))
	model.SetWorkspace(s.ws)
	model.SetWeightsVector(globalWeights)
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
	epochs := e.Cfg.LocalEpochs
	if e.Cfg.EpochsFor != nil {
		if n := e.Cfg.EpochsFor(c, round); n > 0 {
			epochs = n
		}
	}
	for ep := 0; ep < epochs; ep++ {
		c.Train.BatchesBuf(e.Cfg.BatchSize, rng, &s.bbuf, func(x *tensor.Tensor, y []int) {
			model.TrainBatch(x, y, opt)
		})
	}
	weightsOut := model.WeightsVector()
	wire := compress.DenseBytes(len(weightsOut))
	var lat float64
	// The dense codec (IDNone) is a wire format, not a compression: treat
	// it like nil so a "none" run stays bit-identical to an uncompressed
	// one (flnet workers and tifl-node special-case it the same way).
	if e.Cfg.Codec != nil && e.Cfg.Codec.ID() != compress.IDNone {
		// Error-feedback compression: encode delta+residual, keep the
		// encoding error on the client, and hand the aggregator the exact
		// reconstruction the wire payload decodes to — so the simulated
		// engine and a real flnet worker produce identical updates.
		s.delta = grow(s.delta, len(weightsOut))
		delta := s.delta
		for i := range delta {
			delta[i] = weightsOut[i] - globalWeights[i]
		}
		// The reconstruction replaces the delta in its own scratch vector.
		var payload []byte
		payload, c.residual = compress.EncodeFeedback(e.Cfg.Codec, delta, c.residual, delta)
		for i, rec := range delta {
			weightsOut[i] = globalWeights[i] + rec
		}
		wire = len(payload)
		down := compress.DenseBytes(len(weightsOut))
		if downBytes >= 0 {
			down = downBytes
		}
		lat = e.Cfg.Latency.LatencyBytes(c.EffectiveCPU(round), c.NumSamples(), epochs,
			down+wire, c.Bandwidth, rng)
	} else if downBytes >= 0 {
		lat = e.Cfg.Latency.LatencyBytes(c.EffectiveCPU(round), c.NumSamples(), epochs,
			downBytes+wire, c.Bandwidth, rng)
	} else {
		lat = e.Cfg.Latency.LatencyFull(c.EffectiveCPU(round), c.NumSamples(), epochs, len(weightsOut), c.Bandwidth, rng)
	}
	u := Update{ClientID: c.ID, Weights: weightsOut, NumSamples: c.NumSamples(), Latency: lat, WireBytes: wire}
	if e.Cfg.TransformUpdate != nil {
		e.Cfg.TransformUpdate(round, globalWeights, &u)
	}
	return u
}

// Run executes the remaining federated rounds (all of Cfg.Rounds on a
// fresh engine, or the tail after Restore) with the given selector and
// returns the result history for the rounds it ran.
func (e *Engine) Run(sel Selector) *Result {
	res := &Result{}
	for r := e.completed; r < e.Cfg.Rounds; r++ {
		selected := sel.Select(r, SelectionRNG(e.Cfg.Seed, r))
		if len(selected) == 0 {
			panic(fmt.Sprintf("flcore: selector returned no clients in round %d", r))
		}
		updates := e.trainRound(r, selected)
		FedAvgInto(e.weights, updates)
		e.global.SetWeightsVector(e.weights)
		lat := MaxLatency(updates)
		e.clock.Advance(lat)
		var upBytes int64
		for _, u := range updates {
			upBytes += int64(u.WireBytes)
		}
		res.UplinkBytes += upBytes

		rec := RoundRecord{Round: r, Selected: selected, Latency: lat, SimTime: e.clock.Now(), Acc: math.NaN(), Loss: math.NaN(), UplinkBytes: upBytes}
		last := r == e.Cfg.Rounds-1
		if e.GlobalTest != nil && (last || (e.Cfg.EvalEvery > 0 && r%e.Cfg.EvalEvery == 0)) {
			rec.Acc, rec.Loss = e.global.Evaluate(e.GlobalTest.InputTensor(), e.GlobalTest.Y, e.Cfg.EvalBatch)
		}
		res.History = append(res.History, rec)
		if e.Cfg.OnRound != nil {
			e.Cfg.OnRound(rec)
		}

		if obs, ok := sel.(LatencyObserver); ok {
			obs.ObserveLatencies(r, updates)
		}
		if obs, ok := sel.(RoundObserver); ok {
			obs.AfterRound(r, func(d *dataset.Dataset) float64 {
				acc, _ := e.global.Evaluate(d.InputTensor(), d.Y, e.Cfg.EvalBatch)
				return acc
			})
		}
		e.completed = r + 1
		if e.Cfg.TargetAccuracy > 0 && !math.IsNaN(rec.Acc) && rec.Acc >= e.Cfg.TargetAccuracy {
			break // desired accuracy reached (Section 3.1 stop condition)
		}
	}
	res.TotalTime = e.clock.Now()
	res.Weights = append([]float64(nil), e.weights...)
	if len(res.History) == 0 { // resumed past the final round
		res.FinalAcc, res.FinalLoss = math.NaN(), math.NaN()
		return res
	}
	final := res.History[len(res.History)-1]
	res.FinalAcc, res.FinalLoss = final.Acc, final.Loss
	return res
}

// trainRound trains the round's selection from the global weights and
// returns the updates in selection order.
func (e *Engine) trainRound(round int, selected []int) []Update {
	cohort := make([]*Client, len(selected))
	for i, ci := range selected {
		cohort[i] = e.Clients[ci]
	}
	return e.trainCohort(round, cohort, e.weights, nil)
}

// trainCohort is the one place a cohort trains — a synchronous round's
// selection or a tier's mini-round: clients[i] trains from weights, charged
// downs[i] downlink bytes (downs nil = the historical dense charging, see
// trainOn), and lands in slot i of the returned slice, which the engine owns
// and overwrites on the next call.
//
// With Cfg.Parallel, min(GOMAXPROCS, len(clients)) goroutines — the caller's
// among them, and the caller's alone for a cohort too small to be worth
// waking a core for (cohortWorkers) — pull indices from a shared counter,
// each on its own trainScratch. The result cannot depend on the worker count
// or on which goroutine trains whom: a client's pass reads the shared
// weights, draws only from its own (Seed, round, Client.ID) stream, and
// writes only its own residual and its own slot. Everything order-sensitive
// (FedAvg, latency max, byte accounting) is the caller's, over the slots in
// cohort order.
func (e *Engine) trainCohort(round int, clients []*Client, weights []float64, downs []int64) []Update {
	// The last cohort's weight vectors are dead; dropped here they are
	// garbage while this one trains instead of live heap until overwritten.
	clear(e.updates[:cap(e.updates)])
	e.updates = grow(e.updates, len(clients))
	updates := e.updates
	var next atomic.Int64
	work := func() {
		s := e.getScratch()
		defer e.putScratch(s)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(clients) {
				return
			}
			down := -1
			if downs != nil {
				down = int(downs[i])
			}
			updates[i] = e.trainOn(s, round, clients[i], weights, down)
		}
	}
	var wg sync.WaitGroup
	for w := e.cohortWorkers(clients, len(weights)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return updates
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
