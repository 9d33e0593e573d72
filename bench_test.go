package tifl

// One sub-benchmark per table, figure, extension and ablation of the
// evaluation harness (`tifl-bench -list` prints the same index): each runs
// the full experiment pipeline — population build, profiling, tiering, and
// every policy's training run — at a reduced scale, so a new runner is
// benched by construction. CI runs them once ("every bench compiles and
// runs"); they are not a performance record. Steady-state, repeated numbers
// for every layer and for end-to-end runs come from the repo benchmark in
// benchmark/ (see its README); run cmd/tifl-bench with -full for
// paper-scale results.

import (
	"testing"

	"repro/internal/experiments"
)

// benchScale keeps each experiment in the hundreds-of-milliseconds range.
func benchScale() experiments.Scale {
	s := experiments.SmallScale()
	s.Rounds = 20
	s.LEAFRounds = 20
	s.TrainSize = 2500
	s.TestSize = 500
	s.EvalEvery = 5
	return s
}

// scaleOverrides are the experiments benchScale does not fit.
var scaleOverrides = map[string]func(*experiments.Scale){
	// conv rounds are ~20x costlier than MLP rounds
	"ablation_cnn": func(s *experiments.Scale) { s.Rounds = 10 },
	// a CI-smoke population for the event-driven engine (paper-scale: 1e6)
	"ext_million": func(s *experiments.Scale) { s.Population = 10_000 },
}

func BenchmarkExperiments(b *testing.B) {
	for _, r := range experiments.All() {
		s := benchScale()
		if override := scaleOverrides[r.ID]; override != nil {
			override(&s)
		}
		b.Run(r.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Run(s)
			}
		})
	}
}
