package flnet

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// medianAssembly times reps fleet assemblies, each from starting its peers
// to the wait returning, and returns the median. assemble starts the peers,
// waits, and returns a teardown that the clock does not see.
func medianAssembly(t *testing.T, reps int, assemble func() (func(), error)) time.Duration {
	t.Helper()
	took := make([]time.Duration, reps)
	for i := range took {
		start := time.Now()
		teardown, err := assemble()
		took[i] = time.Since(start)
		teardown()
		if err != nil {
			t.Fatalf("assembly %d: %v", i, err)
		}
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	return took[reps/2]
}

// runPeers runs each peer on a goroutine of its own and returns the wait
// for all of them; their errors are the teardown's, not the test's.
func runPeers(peers ...func()) func() {
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p func()) {
			defer wg.Done()
			p()
		}(p)
	}
	return wg.Wait
}

// leaf is a registered worker that trains nothing before its aggregator
// closes.
func leaf(addr string, id int) func() {
	return func() {
		RunWorker(addr, WorkerConfig{ClientID: id, NumSamples: 1, Train: echoTrain(0, 1, 0)}) //nolint:errcheck // ends when the aggregator closes
	}
}

// waitGoroutines waits up to two seconds for the goroutine count to fall
// to at most want, and reports the count it saw last.
func waitGoroutines(want int) int {
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); got > want && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return got
}

// TestFleetAssemblesAtLastRegistration: WaitForWorkers and WaitForChildren
// return at the registration that completes the fleet, not at the end of
// an accept slice (50 ms per tree level when the last peer registered
// after the listener went back to waiting). Their deadline, a Close and
// their acceptor still end them as before.
func TestFleetAssemblesAtLastRegistration(t *testing.T) {
	const reps = 15
	t.Run("flat of 4 within 25 ms", func(t *testing.T) {
		med := medianAssembly(t, reps, func() (func(), error) {
			agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{Rounds: 1, ClientsPerRound: 1, InitialWeights: []float64{0}})
			if err != nil {
				t.Fatal(err)
			}
			wait := runPeers(leaf(agg.Addr(), 0), leaf(agg.Addr(), 1), leaf(agg.Addr(), 2), leaf(agg.Addr(), 3))
			err = agg.WaitForWorkers(4, 5*time.Second)
			return func() { agg.Close(); wait() }, err
		})
		if med >= 25*time.Millisecond {
			t.Fatalf("median assembly of 4 workers took %v, want < 25ms", med)
		}
	})
	t.Run("tree of 2 children within 50 ms", func(t *testing.T) {
		med := medianAssembly(t, reps, func() (func(), error) {
			root, err := NewTieredAsyncAggregator("127.0.0.1:0", tieredConfig(1, 1, 1, 0, []float64{0}))
			if err != nil {
				t.Fatal(err)
			}
			var peers []func()
			var children []*Child
			for id, members := range [][]int{{0, 1}, {2, 3}} {
				ch, err := NewChild(ChildConfig{ID: id, RootAddr: root.Addr(), Workers: len(members)})
				if err != nil {
					t.Fatal(err)
				}
				children = append(children, ch)
				peers = append(peers, func() { ch.Run() }) //nolint:errcheck // ends when the root closes
				for _, m := range members {
					peers = append(peers, leaf(ch.Addr(), m))
				}
			}
			wait := runPeers(peers...)
			err = root.WaitForChildren(2, 5*time.Second)
			return func() {
				root.Close()
				for _, ch := range children {
					ch.Close()
				}
				wait()
			}, err
		})
		if med >= 50*time.Millisecond {
			t.Fatalf("median assembly of a 2-child tree took %v, want < 50ms", med)
		}
	})
	t.Run("deadline with n-1 peers", func(t *testing.T) {
		agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{Rounds: 1, ClientsPerRound: 1, InitialWeights: []float64{0}})
		if err != nil {
			t.Fatal(err)
		}
		wait := runPeers(leaf(agg.Addr(), 0), leaf(agg.Addr(), 1), leaf(agg.Addr(), 2))
		defer wait()
		defer agg.Close()
		err = agg.WaitForWorkers(4, 300*time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), "waiting for 4 workers, have 3") {
			t.Fatalf("WaitForWorkers with 3 of 4 peers returned %v, want a timeout naming 4 and 3", err)
		}
	})
	t.Run("Close ends the wait", func(t *testing.T) {
		agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{Rounds: 1, ClientsPerRound: 1, InitialWeights: []float64{0}})
		if err != nil {
			t.Fatal(err)
		}
		ended := make(chan error, 1)
		start := time.Now()
		go func() { ended <- agg.WaitForWorkers(1, 10*time.Second) }()
		time.Sleep(20 * time.Millisecond)
		agg.Close()
		select {
		case err := <-ended:
			if err == nil {
				t.Fatal("WaitForWorkers returned nil after Close")
			}
		case <-time.After(time.Second):
			t.Fatalf("WaitForWorkers still waiting %v after Close", time.Since(start))
		}
	})
	t.Run("no acceptor outlives the wait", func(t *testing.T) {
		agg, err := NewAggregator("127.0.0.1:0", AggregatorConfig{Rounds: 1, ClientsPerRound: 1, InitialWeights: []float64{0}})
		if err != nil {
			t.Fatal(err)
		}
		defer agg.Close()
		base := runtime.NumGoroutine()
		if err := agg.WaitForWorkers(1, 50*time.Millisecond); err == nil {
			t.Fatal("WaitForWorkers with no peer returned nil")
		}
		if got := waitGoroutines(base); got > base {
			t.Fatalf("%d goroutines after a timed-out wait, %d before", got, base)
		}
		// Hand-rolled peers run no goroutine of their own: what stays is
		// one connection reader each.
		for id := 0; id < 2; id++ {
			defer dialRegister(t, agg.Addr(), Register{ClientID: id, NumSamples: 1}).close() //nolint:errcheck // test shutdown
		}
		if err := agg.WaitForWorkers(2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if got := waitGoroutines(base + 2); got > base+2 {
			t.Fatalf("%d goroutines after assembling 2 peers, want at most %d (their readers)", got, base+2)
		}
	})
}

// TestTierWaitWakesOnRegistration: a tier whose members are all down
// resumes at the registration that brings one back, or at the re-tiering
// that hands it a live worker, well inside RejoinWait; the run's end still
// ends the wait.
func TestTierWaitWakesOnRegistration(t *testing.T) {
	cfg := tieredConfig(1, 1, 1, 0, []float64{0})
	cfg.RejoinWait = 10 * time.Second
	ta, err := NewTieredAsyncAggregator("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	stop := make(chan struct{})
	defer close(stop)
	go ta.acceptLoop(stop)
	ta.publishTiers([][]int{{0}, {1}})
	wait := func(tier int, done <-chan struct{}, act func()) (bool, time.Duration) {
		res := make(chan bool, 1)
		start := time.Now()
		go func() { res <- ta.waitTierAlive(tier, done) }()
		act()
		return <-res, time.Since(start)
	}
	const prompt = 2 * time.Second
	if ok, took := wait(0, nil, func() {
		c := dialRegister(t, ta.Addr(), Register{ClientID: 0, NumSamples: 1})
		t.Cleanup(func() { c.close() }) //nolint:errcheck // test shutdown
	}); !ok || took > prompt {
		t.Fatalf("tier 0 waited %v for its member's registration (alive %v)", took, ok)
	}
	if ok, took := wait(1, nil, func() { ta.publishTiers([][]int{{1}, {0}}) }); !ok || took > prompt {
		t.Fatalf("tier 1 waited %v for the re-tiering that moved live worker 0 in (alive %v)", took, ok)
	}
	done := make(chan struct{})
	if ok, took := wait(0, done, func() { close(done) }); ok || took > prompt {
		t.Fatalf("tier 0 waited %v after the run ended (alive %v), want false at once", took, ok)
	}
}
