package flcore

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/simres"
)

// Asynchronous federated learning baseline (FedAsync-style). The TiFL paper
// argues synchronous FL is preferable for secure aggregation and privacy
// (Section 2) but contrasts against asynchronous designs; this engine makes
// that comparison measurable. Clients train continuously: whenever one
// finishes, the server immediately mixes its update into the global model
// with a staleness-discounted rate α·(staleness+1)^(−a) and dispatches a
// new task. Time is the same simulated latency model as the synchronous
// engine, so wall-clock comparisons are apples-to-apples.

// asyncAlpha and asyncStalenessExp are the base server mixing rate α and
// the staleness discount exponent a of α·(staleness+1)^(−a).
const (
	asyncAlpha        = 0.6
	asyncStalenessExp = 0.5
)

// AsyncConfig configures an asynchronous run.
type AsyncConfig struct {
	// Duration is the simulated training time budget in seconds.
	Duration float64
	// Concurrency is how many clients train at any moment (the async
	// analogue of |C|).
	Concurrency int
	// EvalInterval evaluates the global model every so many simulated
	// seconds (0 = only at the end).
	EvalInterval float64
	BatchSize    int
	LocalEpochs  int
	Seed         int64
	Model        ModelFactory
	Optimizer    OptimizerFactory
	Latency      simres.LatencyModel
	// EvalBatch groups the evaluation loss, as Config.EvalBatch does; it
	// does not bound memory.
	EvalBatch int
}

func (c *AsyncConfig) withDefaults() {
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 10
	}
}

// pending is one in-flight client task.
type pending struct {
	clientIdx int
	startVer  int     // global version when dispatched
	finish    float64 // simulated completion time
	weights   []float64
	samples   int
	wireBytes int // encoded uplink size of this update
}

type pendingHeap []*pending

func (h pendingHeap) Len() int           { return len(h) }
func (h pendingHeap) Less(i, j int) bool { return h[i].finish < h[j].finish }
func (h pendingHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x any)        { *h = append(*h, x.(*pending)) }
func (h *pendingHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// RunAsync executes asynchronous training over the clients until the
// simulated duration elapses, returning a Result whose history is sampled
// at EvalInterval boundaries (Round counts applied updates).
func RunAsync(cfg AsyncConfig, clients []*Client, test *dataset.Dataset) *Result {
	cfg.withDefaults()
	if cfg.Duration <= 0 || cfg.Concurrency <= 0 || cfg.Model == nil || cfg.Optimizer == nil {
		panic(fmt.Sprintf("flcore: invalid AsyncConfig %+v", cfg))
	}
	if err := cfg.Latency.Validate(); err != nil {
		panic(err.Error())
	}
	if zeroLatency(cfg.Latency) {
		panic("flcore: AsyncConfig.Latency produces zero response latency; simulated time cannot advance")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	global := cfg.Model(rand.New(rand.NewSource(cfg.Seed)))
	weights := global.WeightsVector()
	version := 0

	// trainOnce runs one local pass for a dispatch at global version v.
	syncCfg := Config{
		Rounds: 1, ClientsPerRound: 1, LocalEpochs: cfg.LocalEpochs,
		BatchSize: cfg.BatchSize, Seed: cfg.Seed,
		Model: cfg.Model, Optimizer: cfg.Optimizer, Latency: cfg.Latency,
	}
	eng := &Engine{Cfg: syncCfg, Clients: clients}

	dispatch := func(now float64, h *pendingHeap, version int) {
		ci := rng.Intn(len(clients))
		u := eng.TrainClient(version, ci, weights)
		heap.Push(h, &pending{
			clientIdx: ci, startVer: version,
			finish:  now + u.Latency,
			weights: u.Weights, samples: u.NumSamples,
			wireBytes: u.WireBytes,
		})
	}

	h := &pendingHeap{}
	heap.Init(h)
	for i := 0; i < cfg.Concurrency; i++ {
		dispatch(0, h, version)
	}

	res := &Result{}
	nextEval := cfg.EvalInterval
	evalNow := func(now float64) {
		rec := RoundRecord{Round: version, Latency: 0, SimTime: now, Acc: math.NaN(), Loss: math.NaN()}
		if test != nil {
			global.SetWeightsVector(weights)
			rec.Acc, rec.Loss = global.Evaluate(test.InputTensor(), test.Y, cfg.EvalBatch)
		}
		res.History = append(res.History, rec)
	}

	now := 0.0
	for h.Len() > 0 {
		p := heap.Pop(h).(*pending)
		if p.finish > cfg.Duration {
			break
		}
		now = p.finish
		for cfg.EvalInterval > 0 && now >= nextEval {
			evalNow(nextEval)
			nextEval += cfg.EvalInterval
		}
		staleness := float64(version - p.startVer)
		alpha := asyncAlpha * math.Pow(staleness+1, -asyncStalenessExp)
		for i := range weights {
			weights[i] = (1-alpha)*weights[i] + alpha*p.weights[i]
		}
		version++
		res.UplinkBytes += int64(p.wireBytes)
		dispatch(now, h, version)
	}
	evalNow(now)
	final := res.History[len(res.History)-1]
	res.FinalAcc, res.FinalLoss = final.Acc, final.Loss
	res.TotalTime = now
	res.Weights = append([]float64(nil), weights...)
	return res
}
