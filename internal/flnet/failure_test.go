package flnet

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
)

// Failure-path coverage for the aggregator's round collection: a worker
// whose connection drops mid-round, and a round deadline expiring while
// over-selected stragglers are still training.

// failTrain returns a TrainFunc that errors on training rounds, which makes
// RunWorker return and close its connection mid-round (profiling calls,
// round -1, still succeed so registration-time profiling is unaffected).
func failTrain() TrainFunc {
	return func(round int, weights []float64) ([]float64, int, error) {
		if round >= 0 {
			return nil, 0, fmt.Errorf("synthetic mid-round failure")
		}
		return weights, 1, nil
	}
}

func TestWorkerDisconnectMidRound(t *testing.T) {
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 3, InitialWeights: []float64{0}, Seed: 20,
		RoundTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 1, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 2, NumSamples: 1, Train: failTrain()})        //nolint:errcheck
	if err := agg.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := agg.Run(agg.UniformSelector(3))
	if err != nil {
		t.Fatal(err)
	}
	// The dead worker's closed connection must be detected immediately —
	// the round must not sit out the full 5 s timeout waiting for it.
	if time.Since(start) > 2*time.Second {
		t.Fatal("round waited for the disconnected worker")
	}
	if res.Rounds[0].Selected != 3 || res.Rounds[0].Used != 2 {
		t.Fatalf("stats = %+v, want 2 of 3 updates", res.Rounds[0])
	}
	// FedAvg over the two surviving echo(+1) workers.
	if res.Weights[0] != 1 {
		t.Fatalf("weights = %v, want 1", res.Weights)
	}
}

func TestCollectTimeoutWithOverselection(t *testing.T) {
	// Target 2, overselect 0.5 → 3 selected; two workers sleep far past
	// the round deadline, so the deadline (not straggler completion) ends
	// the round with a single usable update.
	timeout := 300 * time.Millisecond
	agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
		Rounds: 1, ClientsPerRound: 2, Overselect: 0.5,
		InitialWeights: []float64{0}, Seed: 21, RoundTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 0)})             //nolint:errcheck
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 1, NumSamples: 1, Train: echoTrain(1, 1, 3*time.Second)}) //nolint:errcheck
	go RunWorker(agg.Addr(), WorkerConfig{ClientID: 2, NumSamples: 1, Train: echoTrain(1, 1, 3*time.Second)}) //nolint:errcheck
	if err := agg.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := agg.Run(agg.UniformSelector(2))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < timeout || elapsed > 2*time.Second {
		t.Fatalf("round took %v, want roughly the %v deadline", elapsed, timeout)
	}
	if res.Rounds[0].Selected != 3 || res.Rounds[0].Used != 1 || res.Rounds[0].Discarded != 2 {
		t.Fatalf("stats = %+v, want 1 used / 2 discarded of 3", res.Rounds[0])
	}
	if res.Weights[0] != 1 {
		t.Fatalf("weights = %v, want the fast worker's update", res.Weights)
	}
}

// TestMalformedDenseUpdateDropped: a worker answering with a dense update
// that is not a finite vector of the model's length is dropped like a
// disconnected one — the round commits from the healthy workers instead of
// panicking in FedAvg or averaging a NaN into every weight. So is one whose
// updates echo no Seq token: they are released on arrival, never queued, so
// a peer that floods them and hangs up is reaped like any other dead
// connection and its ID can register again. So is one claiming another
// member's ClientID: an update's identity is its connection's.
func TestMalformedDenseUpdateDropped(t *testing.T) {
	cases := []struct {
		name string
		// malform builds the bad worker's reply from the round's broadcast.
		malform func(w []float64, up *Update)
		// flood, when positive, sends the reply that many times and hangs up.
		flood int
	}{
		{name: "Raw with a wrong count", malform: func(w []float64, up *Update) { up.Raw = nn.EncodeWeights(w[:len(w)-1]) }},
		{name: "truncated Raw", malform: func(w []float64, up *Update) { raw := nn.EncodeWeights(w); up.Raw = raw[:len(raw)-3] }},
		{name: "Raw holding a NaN", malform: func(w []float64, up *Update) { w[1] = math.NaN(); up.Raw = nn.EncodeWeights(w) }},
		{name: "Raw holding an infinity", malform: func(w []float64, up *Update) { w[2] = math.Inf(-1); up.Raw = nn.EncodeWeights(w) }},
		{name: "no Seq, flooded", malform: func(w []float64, up *Update) { up.Seq = 0; up.Raw = nn.EncodeWeights(w) }, flood: 6},
		{name: "ClientID naming another member", malform: func(w []float64, up *Update) { up.ClientID = 0; up.Raw = nn.EncodeWeights(w) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
				Rounds: 1, ClientsPerRound: 3, InitialWeights: []float64{0, 0, 0}, Seed: 20,
				RoundTimeout: 5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			go RunWorker(agg.Addr(), WorkerConfig{ClientID: 0, NumSamples: 1, Train: echoTrain(1, 1, 0)}) //nolint:errcheck
			go RunWorker(agg.Addr(), WorkerConfig{ClientID: 1, NumSamples: 1, Train: echoTrain(3, 1, 0)}) //nolint:errcheck

			// The malformed worker is hand-rolled: RunWorker refuses to send
			// an update of the wrong length.
			c := dialRegister(t, agg.Addr(), Register{ClientID: 2, NumSamples: 1})
			defer c.close() //nolint:errcheck // test shutdown
			bad := make(chan error, 1)
			go func() {
				bad <- func() error {
					for {
						env, err := c.recv(10 * time.Second)
						if err != nil || env.Type != MsgTrain {
							return err // MsgDone: the run finished without this worker
						}
						w, err := env.Train.roundWeights()
						if err != nil {
							return err
						}
						up := &Update{Round: env.Train.Round, ClientID: 2, NumSamples: 1, Seq: env.Train.Seq}
						tc.malform(w, up)
						for i := 0; i < max(tc.flood, 1); i++ {
							if err := c.send(&Envelope{Type: MsgUpdate, Update: up}); err != nil {
								return err
							}
						}
						if tc.flood > 0 {
							return c.close()
						}
					}
				}()
			}()

			if err := agg.WaitForWorkers(3, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			res, err := agg.Run(agg.UniformSelector(3))
			if err != nil {
				t.Fatal(err)
			}
			if err := <-bad; err != nil {
				t.Fatalf("malformed worker: %v", err)
			}
			if res.Rounds[0].Selected != 3 || res.Rounds[0].Used != 2 {
				t.Fatalf("stats = %+v, want 2 of 3 updates", res.Rounds[0])
			}
			// FedAvg over the healthy echo(+1) and echo(+3) workers.
			for i, v := range res.Weights {
				if v != 2 {
					t.Fatalf("weights[%d] = %v, want 2 (%v)", i, v, res.Weights)
				}
			}
			if tc.flood == 0 {
				return
			}
			// The hung-up peer's slot is free: the same ID registers again.
			old := agg.workers[2]
			stop := make(chan struct{})
			defer close(stop)
			go agg.acceptLoop(stop)
			again := dialRegister(t, agg.Addr(), Register{ClientID: 2, NumSamples: 1})
			defer again.close() //nolint:errcheck // test shutdown
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				if w := agg.liveWorker(2); w != nil && w != old {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("worker 2 did not re-register: old connection dead = %v, %d messages queued", old.dead.Load(), len(old.inbox))
				}
			}
		})
	}
}

// TestBadProfileReplyIsADropout: the seconds a worker reports seed tier
// building and latency EWMAs, so a reply that is not a positive finite
// number must count as a profiling dropout instead of entering the map
// (+Inf used to panic the equal-width split, NaN to break the sort's order).
func TestBadProfileReplyIsADropout(t *testing.T) {
	// profileWith registers a hand-rolled worker that answers the profiling
	// task with the given seconds (RunWorker always reports a measured time).
	profileWith := func(t *testing.T, addr string, id int, seconds float64) {
		c := dialRegister(t, addr, Register{ClientID: id, NumSamples: 1})
		t.Cleanup(func() { c.close() }) //nolint:errcheck // test shutdown
		go func() {
			if env, err := c.recv(10 * time.Second); err == nil && env.Type == MsgProfile {
				c.send(&Envelope{Type: MsgProfileReply, ProfileReply: &ProfileReply{ClientID: id, Seconds: seconds}}) //nolint:errcheck // the aggregator's verdict is what the test reads
			}
		}()
	}
	healthy := []float64{1, 2, 4, 5} // seconds of workers 0..3
	const badID = 9
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{
				Rounds: 1, ClientsPerRound: 1, InitialWeights: []float64{0}, Seed: 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Close()
			for id, secs := range healthy {
				profileWith(t, agg.Addr(), id, secs)
			}
			profileWith(t, agg.Addr(), badID, bad)
			if err := agg.WaitForWorkers(len(healthy)+1, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			lat, dropouts, err := agg.ProfileWorkers(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dropouts, []int{badID}) {
				t.Fatalf("dropouts = %v, want [%d]", dropouts, badID)
			}
			if _, ok := lat[badID]; ok || len(lat) != len(healthy) {
				t.Fatalf("latency map %v, want the %d healthy workers only", lat, len(healthy))
			}
			for _, strategy := range []core.TieringStrategy{core.Quantile, core.EqualWidth} {
				if got := core.TierMembers(core.BuildTiers(lat, 2, strategy)); !reflect.DeepEqual(got, [][]int{{0, 1}, {2, 3}}) {
					t.Fatalf("strategy %v tiers the healthy workers as %v", strategy, got)
				}
			}
		})
	}
}
