package experiments

import (
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/flcore"
	"repro/internal/metrics"
)

// DownlinkArm is one broadcast mode's measured outcome in the downlink
// sweep.
type DownlinkArm struct {
	// Mode is the downlink spec ("dense", "delta", "delta+int8",
	// "delta+topk@0.1", ...), suffixed with "(sampled)" for the
	// sampled-cohort arms.
	Mode string
	// FinalAcc is the run's final global test accuracy.
	FinalAcc float64
	// DownlinkBytes is the total broadcast traffic as charged on the wire;
	// UplinkBytes the client→server update traffic (dense in every arm —
	// the sweep isolates the broadcast direction).
	DownlinkBytes, UplinkBytes int64
	// Commits is the number of committed tier rounds inside the shared
	// simulated time budget; SimTime the consumed budget.
	Commits int
	SimTime float64
}

// DownlinkSweep runs FedAT-style tiered-async training on the Combine
// scenario once per downlink mode in {dense, delta, delta+int8,
// delta+topk@0.1, delta+topk@0.5} under identical seeds, clients, tiers,
// and simulated time budgets, and returns each arm's final accuracy and
// wire traffic. The delta arms run full-tier cohorts, so every member
// acks every round and is sent one payload per round. Two extra arms
// repeat dense and delta+int8 with the scale's sampled cohorts: a member
// that sat out rounds is sent the payloads it missed from the tier chain's
// ring (a catch-up, cheaper than the dense model by construction), and
// only one whose gap outgrew the ring is re-sent dense. Exported
// separately from RunExtensionDownlink so tests can assert on the raw
// numbers.
//
// The two top-k densities bracket a finding this sweep exists to record:
// sparsified broadcast interacts badly with FedAT's commit rule. CommitMix
// blends absolute weights (g = (1-a)g + a*c), so every commit drags the
// global model toward the committing tier's broadcast base. The int8 arm
// perturbs that base by a small dense quantization error and trains within
// a point of dense at ~6x fewer bytes. Top-k instead zeroes most delta
// coordinates: low-magnitude coordinates starve in the per-tier residual,
// the five tier bases drift stale in different directions, and their
// competing commit drag erases training progress — at 10% density the run
// collapses outright, while 50% density (where the error-feedback residual
// turns over fast enough) stays within a point of dense but saves too few
// bytes to matter. Single-tier runs are immune (one chain, no cross-tier
// drag), so this is a property of tiered commit mixing, not of the codec:
// for FedAT-style broadcast, quantize — don't sparsify.
func DownlinkSweep(s Scale) []DownlinkArm {
	sc := s.newScenario("ext-downlink", cifarSpec(), hetCombine, 5)
	tiers, _ := sc.tiers(s)
	duration := 2.5 * float64(s.Rounds)
	base := s.engineConfig(sc.spec)
	fullCohort := 0
	for _, tr := range tiers {
		if len(tr.Members) > fullCohort {
			fullCohort = len(tr.Members)
		}
	}

	run := func(mode string, clientsPerRound int) DownlinkArm {
		dl, err := compress.ParseDownlink(mode)
		if err != nil {
			panic("experiments: downlink sweep mode " + mode + ": " + err.Error())
		}
		res := flcore.RunTieredAsync(flcore.TieredAsyncConfig{
			CommitterConfig: flcore.CommitterConfig{
				ClientsPerRound: clientsPerRound, TierWeight: core.FedATWeights(), Seed: s.Seed,
				Downlink: dl,
			},
			Duration: duration, EvalInterval: duration,
			BatchSize: 10, LocalEpochs: 1,
			Model: base.Model, Optimizer: base.Optimizer, Latency: CommLatencyModel,
			EvalBatch: 256,
		}, core.TierMembers(tiers), sc.clients(s), sc.test)
		return DownlinkArm{
			Mode: dl.Name(), FinalAcc: res.FinalAcc,
			DownlinkBytes: res.DownlinkBytes, UplinkBytes: res.UplinkBytes,
			Commits: len(res.TierRounds), SimTime: res.TotalTime,
		}
	}

	arms := []DownlinkArm{
		run("dense", fullCohort),
		run("delta", fullCohort),
		run("delta+int8", fullCohort),
		run("delta+topk@0.1", fullCohort),
		run("delta+topk@0.5", fullCohort),
	}
	// The sampled pair is ratioed against its own dense baseline — a
	// sampled round moves fewer bytes regardless of encoding.
	for _, mode := range []string{"dense", "delta+int8"} {
		a := run(mode, s.ClientsPerRound)
		a.Mode += " (sampled)"
		arms = append(arms, a)
	}
	return arms
}

// RunExtensionDownlink is the delta-compressed broadcast extension
// experiment: the downlink sweep of DownlinkSweep rendered as a table
// (accuracy, broadcast bytes, downlink compression ratio vs dense,
// commits inside the budget). With the server-side error-feedback
// residual, the int8 delta arm ends within one accuracy point of the
// dense broadcast while moving several times fewer downlink bytes — and,
// under the byte-aware latency model, fits more commits into the same
// simulated budget. The top-k arms document the negative result (see
// DownlinkSweep: sparsified broadcast destabilizes FedAT's absolute-weight
// commit mixing), and the sampled-cohort arms show the savings surviving
// partial participation: ack gaps are caught up from the ring, not re-sent
// dense.
func RunExtensionDownlink(s Scale) *Output {
	arms := DownlinkSweep(s)
	dense := arms[0]

	tab := metrics.Table{
		Title:   "Extension: delta-compressed downlink broadcast (Combine scenario)",
		Columns: []string{"downlink", "final accuracy", "downlink [KB]", "downlink ratio", "commits", "training time [s]"},
	}
	sampledDense := arms[5]
	for i, a := range arms {
		ref := dense
		if i >= 5 {
			ref = sampledDense
		}
		tab.AddRow(a.Mode, a.FinalAcc, float64(a.DownlinkBytes)/1024,
			float64(ref.DownlinkBytes)/float64(a.DownlinkBytes),
			float64(a.Commits), a.SimTime)
	}
	return &Output{
		ID:     "ext_downlink",
		Title:  "Version-acked delta broadcast vs dense snapshots",
		Tables: []metrics.Table{tab},
	}
}
