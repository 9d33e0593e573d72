package leaf

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/simres"
)

func randSource() *rand.Rand { return rand.New(rand.NewSource(1)) }

func smallConfig() Config {
	cfg := Default
	cfg.NumClients = 30
	cfg.MeanSamples = 50
	cfg.TestSamples = 620
	return cfg
}

func TestBuildPopulationShape(t *testing.T) {
	pop := Build(smallConfig())
	if len(pop.Clients) != 30 {
		t.Fatalf("clients = %d", len(pop.Clients))
	}
	if pop.GlobalTest.NumClasses != 62 {
		t.Fatalf("classes = %d", pop.GlobalTest.NumClasses)
	}
	for _, c := range pop.Clients {
		if c.Train.Len() < 10 {
			t.Fatalf("client %d has %d samples", c.ID, c.Train.Len())
		}
		if c.Test == nil || c.Test.Len() == 0 {
			t.Fatalf("client %d has no local test shard", c.ID)
		}
		if c.CPU <= 0 {
			t.Fatalf("client %d CPU = %v", c.ID, c.CPU)
		}
	}
}

func TestBuildQuantitySkew(t *testing.T) {
	pop := Build(smallConfig())
	minN, maxN := pop.Clients[0].Train.Len(), pop.Clients[0].Train.Len()
	for _, c := range pop.Clients {
		n := c.Train.Len()
		if n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
	}
	// Lognormal sample counts must actually be skewed.
	if float64(maxN)/float64(minN) < 2 {
		t.Fatalf("sample counts too uniform: min %d max %d", minN, maxN)
	}
}

func TestBuildClassSkew(t *testing.T) {
	cfg := smallConfig()
	cfg.MinClasses, cfg.MaxClasses = 5, 12
	pop := Build(cfg)
	for _, c := range pop.Clients {
		seen := map[int]bool{}
		for _, y := range c.Train.Y {
			seen[y] = true
		}
		if len(seen) > 12 {
			t.Fatalf("client %d holds %d classes, want ≤12", c.ID, len(seen))
		}
	}
}

func TestBuildResourceOverlayBalanced(t *testing.T) {
	cfg := smallConfig()
	cfg.CPUGroups = []float64{4, 2, 1}
	pop := Build(cfg)
	counts := map[float64]int{}
	for _, c := range pop.Clients {
		counts[c.CPU]++
	}
	for _, g := range cfg.CPUGroups {
		if counts[g] != 10 {
			t.Fatalf("cpu %v count = %d, want 10", g, counts[g])
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(smallConfig())
	b := Build(smallConfig())
	if a.Clients[3].Train.Len() != b.Clients[3].Train.Len() {
		t.Fatal("population not deterministic")
	}
	if !slices.Equal(a.Clients[3].Train.X.Data, b.Clients[3].Train.X.Data) {
		t.Fatal("client data not deterministic")
	}
}

func TestBuildInvalidConfigPanics(t *testing.T) {
	cfg := smallConfig()
	cfg.MinClasses = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid class bounds did not panic")
		}
	}()
	Build(cfg)
}

func TestTrainingConfigDefaults(t *testing.T) {
	cfg := TrainingConfig(100, 1, simres.DefaultModel, 10)
	if cfg.ClientsPerRound != 10 || cfg.BatchSize != 10 || cfg.LocalEpochs != 1 {
		t.Fatalf("config = %+v", cfg)
	}
	if cfg.Rounds != 100 {
		t.Fatalf("rounds = %d", cfg.Rounds)
	}
}

func TestTrainingConfigModelShape(t *testing.T) {
	cfg := TrainingConfig(10, 1, simres.DefaultModel, 1)
	m := cfg.Model(randSource())
	want := dataset.FEMNISTLike.Dim*64 + 64 + 64*62 + 62
	if m.NumParams() != want {
		t.Fatalf("params = %d, want %d", m.NumParams(), want)
	}
}

func TestDefaultMatchesPaperScale(t *testing.T) {
	if Default.NumClients != 182 {
		t.Fatalf("default clients = %d, want 182 (LEAF 0.05 sampling)", Default.NumClients)
	}
	if len(Default.CPUGroups) != 5 {
		t.Fatalf("default CPU groups = %d, want 5", len(Default.CPUGroups))
	}
	if math.Abs(Default.CPUGroups[0]-4) > 0 {
		t.Fatalf("fastest group = %v CPUs", Default.CPUGroups[0])
	}
}
