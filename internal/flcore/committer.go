package flcore

import (
	"fmt"
	"math"
)

// Committer is the FedAT server update, once. It owns everything a
// tiered-asynchronous run's server side decides — global weights and
// version, per-tier commit counts and round cursors, the membership view,
// staleness, cross-tier weight and the one CommitMix call, the Manager's
// feed, traffic and re-tiering totals, the checkpoint cadence — and its
// three drivers (the simulated event loop here, the flat tier loops and the
// tree pumps in flnet) only move bytes and time: they hand finished tier
// rounds to Apply and carry what Pull returns to whoever trains the tier's
// next round. In every driver a tier's next Pull follows its own commit, so
// each round trains from a model that holds the tier's previous one; the
// order in which different tiers' commits reach Apply is all a driver
// chooses.
//
// Single-owner state, no goroutines, no locks: all calls come from one
// goroutine, and the same call sequence gives the same results — which is
// what makes sim ≡ flat ≡ tree hold by construction.
type Committer struct {
	cfg     CommitterConfig
	weights []float64
	version int
	tiers   [][]int // replaced wholesale at a re-tiering, never edited in place
	rounds  []int   // per tier: the next local round index Pull hands out
	commits []int   // per tier: cumulative applied commits
	scratch []int   // commits plus the commit under validation (TierWeight's view)

	retiers, migrations int
	uplink, downlink    int64
}

// CommitterConfig is the protocol half of a tiered-asynchronous config:
// the fields flcore.TieredAsyncConfig and flnet.TieredAsyncConfig both
// carry, with the meaning documented there.
type CommitterConfig struct {
	Alpha, StalenessExp float64
	TierWeight          TierWeightFunc
	ClientsPerRound     int
	Seed                int64
	Manager             TierManager
	CheckpointEvery     int
}

// Observation is one client's observed round cost, fed to the tiering
// Manager when the round commits: the compute-side latency plus, when the
// driver measures them, the end-to-end response time and the wire traffic
// the client caused. Bytes and EndToEnd feed the comm-aware tiering signal
// (tiering.Config.CommAware); a driver that does not measure them leaves
// them zero, and the Manager then falls back to Seconds alone.
type Observation struct {
	Client  int
	Seconds float64
	// Bytes is the client's total wire traffic for the round: its share
	// of the broadcast (dense or delta payload) plus its update as
	// encoded on the wire.
	Bytes int64
	// EndToEnd is the aggregator-measured time from broadcast to the
	// arrival of the client's update — queueing and transfer included,
	// unlike the worker-reported Seconds.
	EndToEnd float64
}

// Commit is one finished tier round on its way into the global model: the
// tier-level FedAvg aggregate, the tier's local round index, the global
// version the round trained from, the round's wire traffic, and what each
// contributing client was observed to cost.
type Commit struct {
	Tier, TierRound, PulledVersion int
	Weights                        []float64
	UplinkBytes, DownlinkBytes     int64
	Observed                       []Observation
}

// TierPull is what a tier trains its next round from: the global version
// and weights, the round's local index and its cohort, all taken at one
// point between two commits. Weights aliases the live global vector: a
// driver whose round outlives the next Apply must copy it.
type TierPull struct {
	Version int
	Weights []float64
	Round   int
	Cohort  []int
}

// NewCommitter starts a run at version 0 over the given tiers. It takes
// ownership of weights and tiers (read, never edited). Zero Alpha and StalenessExp get
// the FedAT defaults (0.6 and 0.5, the async baseline's).
func NewCommitter(cfg CommitterConfig, tiers [][]int, weights []float64) *Committer {
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.6
	}
	if cfg.StalenessExp == 0 {
		cfg.StalenessExp = 0.5
	}
	return &Committer{
		cfg: cfg, weights: weights, tiers: tiers,
		rounds: make([]int, len(tiers)), commits: make([]int, len(tiers)),
	}
}

// Version is the number of commits applied so far.
func (k *Committer) Version() int { return k.version }

// Weights returns the live global vector (not a copy).
func (k *Committer) Weights() []float64 { return k.weights }

// Tiers returns the current membership, fastest tier first: a read-only
// table (a re-tiering installs a new one) that is safe to publish.
func (k *Committer) Tiers() [][]int { return k.tiers }

// CommitTotals are a run's cumulative counters, continued across resumes.
type CommitTotals struct {
	// Commits counts applied commits per tier.
	Commits []int
	// Retiers counts membership rebuilds that moved clients (Manager runs
	// only); Migrations is the total clients moved.
	Retiers, Migrations int
	// UplinkBytes and DownlinkBytes total the applied commits' traffic.
	UplinkBytes, DownlinkBytes int64
}

// Totals returns the run's cumulative counters (Commits is a copy).
func (k *Committer) Totals() CommitTotals {
	return CommitTotals{
		Commits: append([]int(nil), k.commits...),
		Retiers: k.retiers, Migrations: k.migrations,
		UplinkBytes: k.uplink, DownlinkBytes: k.downlink,
	}
}

// Apply folds one tier commit into the global model (staleness = commits
// applied since the round's pull; effective rate = CommitMix's), then feeds
// the round's observations to the Manager and lets it decide whether the
// new version is a rebuild point. The clients a rebuild moved are returned
// for the driver to tell; the membership view is already swapped — in-flight
// rounds complete under the cohort they were pulled with, every later Pull
// sees the new table. The record carries what the Committer knows; drivers
// add their own fields (Selected, Latency, SimTime).
//
// A commit naming no tier, carrying the wrong number of weights or an
// impossible pulled version, or drawing a negative or NaN TierWeight is a
// configuration error (mismatched worker model, broken weight policy) no
// later commit can heal: it is reported, and no state changes.
func (k *Committer) Apply(c Commit) (TierRoundRecord, []TierMove, error) {
	switch {
	case c.Tier < 0 || c.Tier >= len(k.tiers):
		return TierRoundRecord{}, nil, fmt.Errorf("flcore: commit names tier %d of %d", c.Tier, len(k.tiers))
	case len(c.Weights) != len(k.weights):
		return TierRoundRecord{}, nil, fmt.Errorf("flcore: tier %d commit carries %d weights, global model has %d", c.Tier, len(c.Weights), len(k.weights))
	case c.PulledVersion < 0 || c.PulledVersion > k.version:
		return TierRoundRecord{}, nil, fmt.Errorf("flcore: tier %d commit pulled version %d outside [0, %d]", c.Tier, c.PulledVersion, k.version)
	}
	tw := 1.0
	if k.cfg.TierWeight != nil {
		// The weight policy sees the counts including this commit.
		k.scratch = append(k.scratch[:0], k.commits...)
		k.scratch[c.Tier]++
		if tw = k.cfg.TierWeight(c.Tier, k.scratch); tw < 0 || math.IsNaN(tw) {
			return TierRoundRecord{}, nil, fmt.Errorf("flcore: tier weight %v for tier %d", tw, c.Tier)
		}
	}
	staleness := k.version - c.PulledVersion
	alpha := CommitMix(k.weights, c.Weights, k.cfg.Alpha, tw, staleness, k.cfg.StalenessExp)
	k.version++
	k.commits[c.Tier]++
	if c.TierRound >= k.rounds[c.Tier] {
		// A tier that numbers its own rounds (a tree child redrawing a dead
		// cohort) ran ahead of the cursor; follow it.
		k.rounds[c.Tier] = c.TierRound + 1
	}
	k.uplink += c.UplinkBytes
	k.downlink += c.DownlinkBytes
	rec := TierRoundRecord{
		Tier: c.Tier, TierRound: c.TierRound, Version: k.version,
		Staleness: staleness, Weight: alpha,
		UplinkBytes: c.UplinkBytes, DownlinkBytes: c.DownlinkBytes,
	}
	return rec, k.feedManager(c.Observed), nil
}

// feedManager routes one applied commit's observations into the live
// tiering Manager and applies the re-tiering it may answer with. A
// CommObserver gets the full observation — the end-to-end response time and
// the wire traffic next to the compute-side seconds — plain TierManagers
// the seconds alone.
func (k *Committer) feedManager(observed []Observation) []TierMove {
	mgr := k.cfg.Manager
	if mgr == nil {
		return nil
	}
	if co, ok := mgr.(CommObserver); ok {
		for _, o := range observed {
			co.ObserveRound(o.Client, o.Seconds, o.EndToEnd, o.Bytes)
		}
	} else {
		for _, o := range observed {
			mgr.Observe(o.Client, o.Seconds)
		}
	}
	tiers, moves, changed := mgr.MaybeRetier(k.version)
	if !changed {
		return nil
	}
	k.tiers = tiers
	k.retiers++
	k.migrations += len(moves)
	return moves
}

// Pull takes tier's next round: the current global state, the tier's next
// round index (consumed: a round that ends without a commit is redrawn by
// another Pull, one index further), and its cohort — drawn through the
// Manager when one is installed (Algorithm-2 adaptive sizing, current
// membership), by the static TierCohort draw otherwise. Drawing here,
// between commits, serializes every Manager call into commit order.
func (k *Committer) Pull(tier int) TierPull {
	r := k.rounds[tier]
	k.rounds[tier]++
	var cohort []int
	if k.cfg.Manager != nil {
		cohort = k.cfg.Manager.Cohort(tier, r, k.cfg.ClientsPerRound)
	} else {
		cohort = TierCohort(k.cfg.Seed, r, tier, k.tiers[tier], k.cfg.ClientsPerRound)
	}
	return TierPull{Version: k.version, Weights: k.weights, Round: r, Cohort: cohort}
}

// CheckpointDue reports whether the commit just applied lands on the
// CheckpointEvery cadence.
func (k *Committer) CheckpointDue() bool {
	return k.cfg.CheckpointEvery > 0 && k.version%k.cfg.CheckpointEvery == 0
}

// Snapshot captures the run between commits: every TieredCheckpoint field
// the drivers share (the sim adds its in-flight rounds, clock and residuals
// on top). Rounds holds each tier's next index to hand out, so a driver
// that cannot carry in-flight rounds across a restart (the socket runtime)
// resumes past them. It fails if the Manager cannot serialize its state.
func (k *Committer) Snapshot() (*TieredCheckpoint, error) {
	c := &TieredCheckpoint{
		Format:        TieredCheckpointFormat,
		Seed:          k.cfg.Seed,
		Version:       k.version,
		Weights:       append([]float64(nil), k.weights...),
		Rounds:        append([]int(nil), k.rounds...),
		Commits:       append([]int(nil), k.commits...),
		Retiers:       k.retiers,
		Migrations:    k.migrations,
		UplinkBytes:   k.uplink,
		DownlinkBytes: k.downlink,
		Tiers:         copyTiers(k.tiers),
	}
	if k.cfg.Manager != nil {
		ms, ok := k.cfg.Manager.(TierManagerState)
		if !ok {
			return nil, fmt.Errorf("flcore: TierManager %T does not implement TierManagerState; cannot checkpoint a managed run", k.cfg.Manager)
		}
		state, err := ms.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("flcore: snapshotting manager state: %w", err)
		}
		c.ManagerState = state
	}
	return c, nil
}

// Restore continues a checkpointed job: the global model, the version and
// the cumulative totals always carry over. Unless modelOnly — the
// roster-changed resume, whose cursors and commit counts restart at zero
// over the Committer's own tiers — so do the membership, the round cursors
// and the per-tier commit counts, and the tier counts must match. c must
// have passed Validate, and a checkpointed Manager's state must already be
// restored (RestoreManagerState).
func (k *Committer) Restore(c *TieredCheckpoint, modelOnly bool) error {
	if !modelOnly {
		if len(c.Tiers) != len(k.tiers) {
			return fmt.Errorf("flcore: checkpoint has %d tiers, the run %d", len(c.Tiers), len(k.tiers))
		}
		k.tiers = copyTiers(c.Tiers)
		copy(k.rounds, c.Rounds)
		copy(k.commits, c.Commits)
	}
	copy(k.weights, c.Weights)
	k.version = c.Version
	k.retiers, k.migrations = c.Retiers, c.Migrations
	k.uplink, k.downlink = c.UplinkBytes, c.DownlinkBytes
	return nil
}
