package flcore

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/simres"
)

// Config.Parallel promises that results are deterministic either way
// because all randomness is keyed on (Seed, round, client). This is the
// regression test enforcing that promise: the two execution modes must
// produce byte-identical round histories and final weights.

// historyBytes renders a round history with full bit precision, so NaN
// evaluations and the last ulp of every float participate in the
// comparison.
func historyBytes(res *Result) string {
	var b strings.Builder
	for _, rec := range res.History {
		fmt.Fprintf(&b, "%d|%v|%x|%x|%x|%x\n",
			rec.Round, rec.Selected,
			math.Float64bits(rec.Latency), math.Float64bits(rec.SimTime),
			math.Float64bits(rec.Acc), math.Float64bits(rec.Loss))
	}
	for _, w := range res.Weights {
		fmt.Fprintf(&b, "%x ", math.Float64bits(w))
	}
	return b.String()
}

func TestParallelMatchesSequentialByteForByte(t *testing.T) {
	train := dataset.Generate(dataset.CIFAR10Like, 1200, 1)
	test := dataset.Generate(dataset.CIFAR10Like, 300, 2)
	parts := dataset.PartitionIID(train.Len(), 12, rand.New(rand.NewSource(3)))
	cpus := simres.AssignGroups(12, []float64{4, 2, 1, 0.5})
	clients := BuildClients(train, test, parts, cpus, 20, 4)

	run := func(parallel bool) *Result {
		cfg := Config{
			Rounds: 8, ClientsPerRound: 4, LocalEpochs: 1, BatchSize: 10, Seed: 11,
			Model: func(rng *rand.Rand) *nn.Model {
				return nn.NewMLP(rng, train.Dim(), []int{12}, 10, 0)
			},
			Optimizer: func(round int) nn.Optimizer { return nn.NewRMSprop(0.01, 0.995) },
			Latency:   simres.DefaultModel,
			EvalEvery: 3,
			EvalBatch: 64,
			Parallel:  parallel,
		}
		return NewEngine(cfg, clients, test).Run(&RandomSelector{NumClients: len(clients), ClientsPerRound: 4})
	}

	seq := run(false)
	par := run(true)
	if len(seq.History) != 8 || len(par.History) != 8 {
		t.Fatalf("history lengths %d / %d", len(seq.History), len(par.History))
	}
	if sb, pb := historyBytes(seq), historyBytes(par); sb != pb {
		i := 0
		for i < len(sb) && i < len(pb) && sb[i] == pb[i] {
			i++
		}
		t.Fatalf("parallel run diverges from sequential at byte %d:\nseq: %.80s\npar: %.80s",
			i, sb[max(0, i-40):], pb[max(0, i-40):])
	}
}

// TestCohortWorkers pins when a cohort fans out: never without Parallel, not
// for a cohort whose estimated work is under cohortParallelWork, and never on
// more goroutines than it has clients or the process has Ps.
func TestCohortWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cohort := func(n, samples int) []*Client {
		d := dataset.Generate(dataset.CIFAR10Like, samples, 1)
		out := make([]*Client, n)
		for i := range out {
			out[i] = &Client{ID: i, Train: d}
		}
		return out
	}
	cases := []struct {
		name            string
		parallel        bool
		n, samples, dim int
		epochs, want    int
	}{
		{"sequential engine", false, 5, 100, 1898, 1, 1},
		{"1-sample logistic stub", true, 5, 1, 490, 1, 1},
		{"just under the threshold", true, 5, 9, 485, 1, 1},
		{"just over the threshold", true, 5, 9, 486, 1, 4},
		{"epochs count as work", true, 5, 1, 490, 9, 4},
		{"small MLP, 100-sample shards", true, 5, 100, 1898, 1, 4},
		{"cohort smaller than GOMAXPROCS", true, 2, 100, 1898, 1, 2},
	}
	for _, tc := range cases {
		e := &Engine{Cfg: Config{Parallel: tc.parallel, LocalEpochs: tc.epochs}}
		if got := e.cohortWorkers(cohort(tc.n, tc.samples), tc.dim); got != tc.want {
			t.Errorf("%s: %d workers, want %d", tc.name, got, tc.want)
		}
	}
}
