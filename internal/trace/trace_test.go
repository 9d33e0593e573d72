package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/flcore"
	"repro/internal/nn"
	"repro/internal/simres"
)

func TestRecordLoadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	r.Record(Event{Round: 0, Selected: []int{1, 2}, Latency: 1.5, SimTime: 1.5, Accuracy: 0.4, Tier: 0})
	r.Record(Event{Round: 1, Selected: []int{3}, Latency: 2.5, SimTime: 4.0, Tier: 2})
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.Events() != 2 {
		t.Fatalf("events = %d", r.Events())
	}
	events, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Tier != 2 || events[0].Selected[1] != 2 {
		t.Fatalf("loaded = %+v", events)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadSkipsBlankLines(t *testing.T) {
	events, err := Load(strings.NewReader("\n{\"round\":3,\"tier\":-1}\n\n"))
	if err != nil || len(events) != 1 || events[0].Round != 3 {
		t.Fatalf("events = %+v, err = %v", events, err)
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{
		{Round: 0, Selected: []int{0, 1}, Latency: 1, SimTime: 1, Tier: 0, Accuracy: 0.3},
		{Round: 1, Selected: []int{0, 2}, Latency: 3, SimTime: 4, Tier: 1},
		{Round: 2, Selected: []int{1, 2}, Latency: 2, SimTime: 6, Tier: 0, Accuracy: 0.6},
	}
	s := Summarize(events)
	if s.Rounds != 3 || s.TotalTime != 6 || s.Max != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.MeanLatency != 2 || s.P50 != 2 {
		t.Fatalf("latency stats = %+v", s)
	}
	if s.FinalAccuracy != 0.6 {
		t.Fatalf("final accuracy = %v", s.FinalAccuracy)
	}
	if s.SelectionCount[0] != 2 || s.TierCount[0] != 2 {
		t.Fatalf("counts = %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Rounds != 0 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestEngineTracingEndToEnd(t *testing.T) {
	train := dataset.Generate(dataset.MNISTLike, 500, 1)
	test := dataset.Generate(dataset.MNISTLike, 200, 2)
	rng := rand.New(rand.NewSource(3))
	parts := dataset.PartitionIID(train.Len(), 10, rng)
	cpus := simres.AssignGroups(10, []float64{4, 2, 1, 0.5, 0.1})
	clients := flcore.BuildClients(train, test, parts, cpus, 30, 4)

	prof := core.Profile(clients, simres.DefaultModel, core.DefaultProfiler)
	tiers := core.BuildTiers(prof.Latency, 5, core.Quantile)

	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	cfg := flcore.Config{
		Rounds: 8, ClientsPerRound: 2, LocalEpochs: 1, BatchSize: 10, Seed: 5,
		Model: func(rng *rand.Rand) *nn.Model {
			return nn.NewMLP(rng, train.Dim(), []int{8}, 10, 0)
		},
		Optimizer: func(round int) nn.Optimizer { return nn.NewSGD(0.05, 0) },
		Latency:   simres.DefaultModel,
		EvalEvery: 2,
		OnRound:   RoundHook(rec, core.TierOf(tiers)),
	}
	sel := core.NewStaticSelector(tiers, core.StaticPolicy{Name: "u", Probs: []float64{0.2, 0.2, 0.2, 0.2, 0.2}}, 2)
	flcore.NewEngine(cfg, clients, test).Run(sel)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 8 {
		t.Fatalf("traced %d rounds, want 8", len(events))
	}
	s := Summarize(events)
	if s.TotalTime <= 0 || len(s.TierCount) == 0 {
		t.Fatalf("summary = %+v", s)
	}
	for tier := range s.TierCount {
		if tier < 0 || tier > 4 {
			t.Fatalf("bad tier recorded: %d", tier)
		}
	}
}
