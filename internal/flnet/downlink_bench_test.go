package flnet

import (
	"testing"
	"time"

	"repro/internal/compress"
)

// BenchmarkDownlinkBroadcast runs the socket runtime under the one downlink
// mode no workload of the repo benchmark broadcasts — lossless version-acked
// deltas — on both the flat topology and the hierarchical tree (dense and
// delta+int8 are net_flat_dense, net_flat_int8 and net_tree_train in
// benchmark/). Every worker participates in every round, so after the first
// (dense) contact each run takes the steady-state all-acked path; the
// bytes/commit metric is the wire-level downlink traffic the delta actually
// moved. Each iteration is a full run — listener setup, registration,
// training, teardown.
func BenchmarkDownlinkBroadcast(b *testing.B) {
	const (
		numTiers = 3
		perTier  = 8
		commits  = 6
		dim      = 2048
	)
	weights := make([]float64, dim)
	tiers := make([][]int, numTiers)
	for t := 0; t < numTiers; t++ {
		for i := 0; i < perTier; i++ {
			tiers[t] = append(tiers[t], t*perTier+i)
		}
	}
	dl := &compress.Downlink{}
	cfg := tieredConfig(commits, perTier, 1, 10*time.Second, weights)
	cfg.Downlink = dl
	checkRun := func(b *testing.B, res *TieredAsyncRunResult, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Log) != commits {
			b.Fatalf("applied %d commits, want %d", len(res.Log), commits)
		}
		b.ReportMetric(float64(res.DownlinkBytes)/float64(commits), "downlinkB/commit")
	}

	b.Run("flat/delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agg, err := NewTieredAsyncAggregator("127.0.0.1:0", cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, members := range tiers {
				for _, ci := range members {
					go RunWorker(agg.Addr(), WorkerConfig{ //nolint:errcheck
						ClientID: ci, NumSamples: 1, Train: echoTrain(1e-3, 1, 0),
					})
				}
			}
			if err := agg.WaitForWorkers(numTiers*perTier, 10*time.Second); err != nil {
				b.Fatal(err)
			}
			res, err := agg.Run(tiers)
			checkRun(b, res, err)
			agg.Close()
		}
	})

	b.Run("tree/delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			root, err := NewTieredAsyncAggregator("127.0.0.1:0", cfg)
			if err != nil {
				b.Fatal(err)
			}
			children := make([]*Child, numTiers)
			for t, members := range tiers {
				ch, err := NewChild(ChildConfig{
					ID: t, RootAddr: root.Addr(), Workers: len(members),
					FanInConfig: FanInConfig{RoundTimeout: 10 * time.Second}, Downlink: dl,
				})
				if err != nil {
					b.Fatal(err)
				}
				children[t] = ch
				go ch.Run() //nolint:errcheck
				for _, ci := range members {
					go RunWorker(ch.Addr(), WorkerConfig{ //nolint:errcheck
						ClientID: ci, NumSamples: 1, Train: echoTrain(1e-3, 1, 0),
					})
				}
			}
			if err := root.WaitForChildren(numTiers, 10*time.Second); err != nil {
				b.Fatal(err)
			}
			res, err := root.RunTree()
			checkRun(b, res, err)
			for _, ch := range children {
				ch.Close()
			}
			root.Close()
		}
	})
}
