package flnet

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flcore"
	"repro/internal/nn"
)

// echoTrain returns a TrainFunc that adds delta to every weight; sample
// count fixed at n. Optional sleep simulates a straggler.
func echoTrain(delta float64, n int, sleep time.Duration) TrainFunc {
	return func(round int, weights []float64) ([]float64, int, error) {
		if sleep > 0 {
			time.Sleep(sleep)
		}
		out := make([]float64, len(weights))
		for i, w := range weights {
			out[i] = w + delta
		}
		return out, n, nil
	}
}

// trainGate makes a schedule with instant training deterministic: on a
// 2-core box one tier's loop can take every global commit before another
// tier's loop is first scheduled. Workers wrapped by hold (or holdFrom, from
// a given round on) block in Train until the gate is released — by the
// worker wrapped by openFrom being asked for the given round, proof that
// its tier's earlier rounds have committed, or by a test's own release
// call. No sleeps involved.
type trainGate struct {
	open chan struct{}
	once sync.Once
}

func newTrainGate() *trainGate { return &trainGate{open: make(chan struct{})} }

func (g *trainGate) release() { g.once.Do(func() { close(g.open) }) }

func (g *trainGate) hold(train TrainFunc) TrainFunc { return g.holdFrom(0, train) }

func (g *trainGate) holdFrom(from int, train TrainFunc) TrainFunc {
	return func(round int, weights []float64) ([]float64, int, error) {
		if round >= from {
			<-g.open
		}
		return train(round, weights)
	}
}

func (g *trainGate) openFrom(from int, train TrainFunc) TrainFunc {
	return func(round int, weights []float64) ([]float64, int, error) {
		if round >= from {
			g.release()
		}
		return train(round, weights)
	}
}

// startWorkers launches workers in goroutines and returns a wait function.
func startWorkers(t *testing.T, addr string, cfgs []WorkerConfig) func() {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(cfgs))
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg WorkerConfig) {
			defer wg.Done()
			errs[i] = RunWorker(addr, cfg)
		}(i, cfg)
	}
	return func() {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("worker %d: %v", cfgs[i].ClientID, err)
			}
		}
	}
}

func TestSingleRoundFedAvgOverTCP(t *testing.T) {
	init := []float64{1, 2, 3}
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 2, InitialWeights: init, Seed: 1,
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	wait := startWorkers(t, agg.Addr(), []WorkerConfig{
		{ClientID: 0, NumSamples: 1, Train: echoTrain(+1, 1, 0)},
		{ClientID: 1, NumSamples: 3, Train: echoTrain(-1, 3, 0)},
	})
	if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run(agg.UniformSelector(2))
	if err != nil {
		t.Fatal(err)
	}
	wait()
	// FedAvg: (1*(w+1) + 3*(w-1))/4 = w - 0.5
	for i, w := range init {
		want := w - 0.5
		if math.Abs(res.Weights[i]-want) > 1e-12 {
			t.Fatalf("weights = %v, want %v at %d", res.Weights, want, i)
		}
	}
	if res.Rounds[0].Used != 2 || res.Rounds[0].Discarded != 0 {
		t.Fatalf("stats = %+v", res.Rounds[0])
	}
}

func TestMultiRoundConvergence(t *testing.T) {
	// Each round every worker returns weights+1; after 5 rounds of full
	// participation the global weights advanced by 5.
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 5, ClientsPerRound: 3, InitialWeights: []float64{0}, Seed: 2,
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	var cfgs []WorkerConfig
	for i := 0; i < 3; i++ {
		cfgs = append(cfgs, WorkerConfig{ClientID: i, NumSamples: 10, Train: echoTrain(1, 10, 0)})
	}
	wait := startWorkers(t, agg.Addr(), cfgs)
	if err := agg.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run(agg.UniformSelector(3))
	if err != nil {
		t.Fatal(err)
	}
	wait()
	if math.Abs(res.Weights[0]-5) > 1e-12 {
		t.Fatalf("after 5 rounds weights = %v, want 5", res.Weights[0])
	}
	if len(res.Rounds) != 5 {
		t.Fatalf("round stats = %d", len(res.Rounds))
	}
}

func TestProfileWorkersMeasuresLatency(t *testing.T) {
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 1, InitialWeights: []float64{0}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	slowDelay := 120 * time.Millisecond
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 0, NumSamples: 1, Train: echoTrain(0, 1, 0)})         //nolint:errcheck
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 1, NumSamples: 1, Train: echoTrain(0, 1, slowDelay)}) //nolint:errcheck
	if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	lat, dropouts, err := agg.ProfileWorkers(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropouts) != 0 {
		t.Fatalf("dropouts = %v", dropouts)
	}
	if lat[1] < lat[0] || lat[1] < 0.1 {
		t.Fatalf("profiled latencies fast=%v slow=%v", lat[0], lat[1])
	}
	agg.FinishWorkers(0)
}

func TestStragglerDiscardedUnderOverselection(t *testing.T) {
	// A discarded straggler that answers after its round ended, RoundTimeout
	// 0, three rounds of target 2 over all 3 (hand-rolled, so that they and
	// their readers outlive Run): peer 2 sits round 0 out until round 1 is
	// under way, so its round-0 reply finds no waiter and is averaged into
	// nothing; peer 1 never answers round 2, so that round counts peer 2;
	// and nothing Run started is still running once it returns.
	t.Run("late reply", func(t *testing.T) {
		agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
			Rounds: 3, ClientsPerRound: 2, Overselect: 0.5,
			InitialWeights: []float64{0}, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer agg.Close()
		round1, finished := make(chan struct{}), make(chan struct{})
		defer close(finished)
		var once sync.Once
		hold := func(id, round int) {
			switch {
			case round == 1:
				once.Do(func() { close(round1) })
			case id == 2 && round == 0:
				<-round1
			case id == 1 && round == 2:
				<-finished
			}
		}
		for id := 0; id < 3; id++ {
			c := dialRegister(t, agg.Addr(), Register{ClientID: id, NumSamples: 1})
			defer c.close() //nolint:errcheck // test shutdown
			go func() {
				for {
					env, err := c.recv(0)
					if err != nil {
						return
					}
					if env.Type != MsgTrain {
						continue // Done: stay connected
					}
					w, err := env.Train.roundWeights()
					if err != nil {
						t.Error(err)
						return
					}
					hold(id, env.Train.Round)
					w[0]++
					up := &Update{Round: env.Train.Round, ClientID: id, NumSamples: 1, Seq: env.Train.Seq, Raw: nn.EncodeWeights(w)}
					if c.send(&Envelope{Type: MsgUpdate, Update: up}) != nil {
						return
					}
				}
			}()
		}
		if err := agg.WaitForWorkers(3, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		ran := make(chan error, 1)
		var res *RunResult
		go func() {
			var err error
			res, err = agg.Run(agg.UniformSelector(2))
			ran <- err
		}()
		select {
		case err := <-ran:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("Run did not return: a reply was lost")
		}
		for _, rs := range res.Rounds {
			if rs.Selected != 3 || rs.Used != 2 || rs.Discarded != 1 {
				t.Fatalf("stats = %+v", rs)
			}
		}
		// Every counted update is its round's weights + 1; the late round-0
		// reply (0 + 1) averaged into a later round would break the 3.
		if res.Weights[0] != 3 {
			t.Fatalf("weights = %v, want 3 after three rounds of +1", res.Weights)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Run, %d before it", runtime.NumGoroutine(), before)
			}
		}
	})

	// 3 workers, target 2, overselect 0.5 → select 3; the slow worker's
	// update must be discarded and the round must finish fast.
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 2, Overselect: 0.5,
		InitialWeights: []float64{0}, Seed: 4, RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 0)})             //nolint:errcheck
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 1, NumSamples: 1, Train: echoTrain(1, 1, 0)})             //nolint:errcheck
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 2, NumSamples: 1, Train: echoTrain(1, 1, 2*time.Second)}) //nolint:errcheck
	if err := agg.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := agg.Run(agg.UniformSelector(2))
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 1500*time.Millisecond {
		t.Fatal("round waited for the straggler")
	}
	if res.Rounds[0].Selected != 3 || res.Rounds[0].Used != 2 || res.Rounds[0].Discarded != 1 {
		t.Fatalf("stats = %+v", res.Rounds[0])
	}
}

func TestRoundTimeoutDropsDeadWorker(t *testing.T) {
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 2, InitialWeights: []float64{0}, Seed: 5,
		RoundTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 0)})             //nolint:errcheck
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 1, NumSamples: 1, Train: echoTrain(1, 1, 5*time.Second)}) //nolint:errcheck
	if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run(agg.UniformSelector(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds[0].Used != 1 {
		t.Fatalf("used = %d, want 1 (timeout drop)", res.Rounds[0].Used)
	}
	if res.Weights[0] != 1 {
		t.Fatalf("weights = %v (should aggregate only the live worker)", res.Weights)
	}
}

func TestDistributedMatchesInProcessTraining(t *testing.T) {
	// The same deterministic arithmetic run through flcore.FedAvgInto directly
	// and through the TCP stack must agree bit-for-bit.
	init := []float64{0.5, -0.5}
	ups := []flcore.Update{
		{Weights: []float64{1.5, 0.5}, NumSamples: 2},
		{Weights: []float64{2.5, 1.5}, NumSamples: 6},
	}
	want := fedAvg(ups)

	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 2, InitialWeights: init, Seed: 8,
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	wait := startWorkers(t, agg.Addr(), []WorkerConfig{
		{ClientID: 0, NumSamples: 2, Train: echoTrain(1, 2, 0)},
		{ClientID: 1, NumSamples: 6, Train: echoTrain(2, 6, 0)},
	})
	if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run(agg.UniformSelector(2))
	if err != nil {
		t.Fatal(err)
	}
	wait()
	for i := range want {
		if res.Weights[i] != want[i] {
			t.Fatalf("TCP aggregation %v != in-process %v", res.Weights, want)
		}
	}
}

func TestAggregatorConfigValidation(t *testing.T) {
	bad := []AggregatorConfig{
		{Rounds: 0, ClientsPerRound: 1, InitialWeights: []float64{1}},
		{Rounds: 1, ClientsPerRound: 0, InitialWeights: []float64{1}},
		{Rounds: 1, ClientsPerRound: 1, Overselect: -1, InitialWeights: []float64{1}},
		{Rounds: 1, ClientsPerRound: 1},
	}
	for i, cfg := range bad {
		if _, err := NewAggregator("127.0.0.1:0", cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestWorkerRequiresTrainFunc(t *testing.T) {
	if err := RunWorker("127.0.0.1:1", WorkerConfig{ClientID: 0}); err == nil {
		t.Fatal("nil TrainFunc accepted")
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 1, InitialWeights: []float64{0}, Seed: 9,
		RoundTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 7, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
	if err := agg.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Second worker with the same ID: its connection is dropped, the
	// registry still holds exactly one.
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 7, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
	time.Sleep(200 * time.Millisecond)
	if got := len(agg.ids()); got != 1 {
		t.Fatalf("registry holds %d workers, want 1", got)
	}
	res, err := agg.Run(agg.UniformSelector(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights[0] != 1 {
		t.Fatalf("weights = %v", res.Weights)
	}
}

// nobodySelector picks no client.
type nobodySelector struct{}

func (nobodySelector) Select(int, *rand.Rand) []int { return nil }

// TestEmptySelectionRefusedBeforeSend: a selector that picks nobody is
// named as the fault, as the simulation names it, and Run returns before
// it sends the registered worker anything.
func TestEmptySelectionRefusedBeforeSend(t *testing.T) {
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 2, ClientsPerRound: 1, InitialWeights: []float64{0}, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	c := dialRegister(t, agg.Addr(), Register{ClientID: 0, NumSamples: 1})
	defer c.close() //nolint:errcheck // test shutdown
	if err := agg.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Run(nobodySelector{}); err == nil || !strings.Contains(err.Error(), "selector returned no clients in round 0") {
		t.Fatalf("Run returned %v, want the empty selection named", err)
	}
	if env, err := c.recv(200 * time.Millisecond); err == nil {
		t.Fatalf("worker was sent message type %d", env.Type)
	}
}

// fedAvg is flcore.FedAvgInto into a fresh vector.
func fedAvg(ups []flcore.Update) []float64 {
	out := make([]float64, len(ups[0].Weights))
	flcore.FedAvgInto(out, ups)
	return out
}
