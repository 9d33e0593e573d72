package flnet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/flcore"
)

// Tiered-asynchronous training over real sockets: the port of
// flcore.TieredAsyncEngine (FedAT-style, Chai et al., SC 2021) onto the TCP
// runtime. One aggregator goroutine per tier drives synchronous mini-FedAvg
// rounds over that tier's live worker connections — broadcast the pulled
// global snapshot, collect updates with the same disconnect tolerance and
// round timeout as the synchronous Aggregator — and every finished tier
// round travels as a MsgTierCommit envelope through a commit channel into a
// single global-model goroutine, which applies the staleness-discounted,
// cross-tier-weighted mixing. Tiers therefore advance at their real network
// and compute speeds: a fast tier commits many rounds while a slow tier
// finishes one, exactly the behaviour the simulated engine models with its
// event queue.
//
// Selection inside each tier uses flcore.TierCohort with the same
// (seed, tier round, tier) keying as the simulation, so under identical
// seeds and tier membership both runtimes draw identical cohorts; only the
// commit interleaving differs (real wall clock here, simulated latency
// there).
//
// Tiering goes live through TieredAsyncConfig.Manager (the
// internal/tiering subsystem): every applied commit's worker-reported
// latencies feed the Manager's EWMA estimates, and at its rebuild points
// the committer swaps the shared membership view — the per-tier loops pick
// the migrated clients up on their next round — and announces each
// migration to the affected worker as a MsgTierReassign envelope. Workers
// whose protocol predates the envelope are pinned in their original tier,
// so mixed fleets keep interoperating. The optional Lockstep mode replays
// a fixed tier-commit schedule (typically a simulated run's), removing the
// wall-clock race from the commit order so a distributed run can be
// byte-compared against its simulation through a migration.

// TieredAsyncConfig configures a distributed tiered-asynchronous run.
type TieredAsyncConfig struct {
	// GlobalCommits is the total number of tier-round commits to apply to
	// the global model before finishing — the distributed analogue of the
	// simulated engine's Duration budget.
	GlobalCommits int
	// ClientsPerRound is |C| within each tier's synchronous mini-round.
	ClientsPerRound int
	// Alpha is the base server mixing rate per committed tier round
	// (default 0.6, matching flcore.TieredAsyncConfig).
	Alpha float64
	// StalenessExp is the staleness discount exponent a in
	// (staleness+1)^(−a) (default 0.5, matching flcore.TieredAsyncConfig).
	StalenessExp float64
	// TierWeight supplies the cross-tier commit weight; nil means neutral
	// for every tier (core.FedATWeights gives FedAT's
	// slower-tier-favoring policy).
	TierWeight flcore.TierWeightFunc
	// RoundTimeout bounds how long a tier waits for its cohort's updates
	// each mini-round; 0 means wait indefinitely.
	RoundTimeout time.Duration
	// InitialWeights is the starting global model.
	InitialWeights []float64
	// Seed keys per-tier cohort selection (flcore.TierCohort).
	Seed int64
	// Manager, if set, makes tiering live (see the package comment above):
	// commit latencies feed it, cohorts are drawn through it, and its
	// rebuild points migrate workers between the running tier loops.
	// Typically an internal/tiering.Manager built from ProfileWorkers
	// measurements (see SetManager for the profile-then-run flow).
	Manager flcore.TierManager
	// Lockstep, when non-empty, fixes the order in which tier commits are
	// applied: entry i names the tier whose commit becomes global version
	// i+1 (out-of-order arrivals are buffered, and each tier starts its
	// next round only after its previous commit applied — the simulated
	// engine's dispatch discipline). Its length must equal GlobalCommits.
	// This removes wall-clock nondeterminism from the commit order, which
	// is what lets parity tests byte-compare a socket run against the
	// simulated engine; real deployments leave it empty.
	Lockstep []int
	// CheckpointEvery, when positive, snapshots the run every so many
	// applied commits as a flcore.TieredCheckpoint: written atomically to
	// CheckpointPath (when set) and handed to OnCheckpoint (when set). At
	// least one of the two must be configured. A Manager used with
	// checkpointing must implement flcore.TierManagerState. A failed
	// checkpoint write fails the run — crash-safety silently gone is worse
	// than a loud stop.
	CheckpointEvery int
	// CheckpointPath is the durable snapshot file (see CheckpointEvery);
	// the previous snapshot is kept at CheckpointPath+".prev".
	CheckpointPath string
	// OnCheckpoint observes every periodic snapshot after it was persisted.
	OnCheckpoint func(c *flcore.TieredCheckpoint)
	// MetricsAddr, when set (e.g. "127.0.0.1:9090" or ":0"), serves the
	// live observability endpoint: GET /metrics returns a MetricsSnapshot
	// as JSON, GET /healthz returns 200. Empty disables the endpoint.
	MetricsAddr string
	// ReassignCodec is the per-tier compression policy for live
	// re-tierings: when a migration moves a worker to tier t, the policy's
	// spec for t (compress.Parse syntax; "none" = dense, "" = leave the
	// worker's codec unchanged) is compared against the worker's current
	// codec and renegotiated over the MsgTierReassign envelope when they
	// differ. Workers predating ProtoCodecRenegotiate keep their handshake
	// codec. nil disables renegotiation (the pre-renegotiation behaviour).
	ReassignCodec func(tier, numTiers int) string
	// MaxRetries bounds per-request redispatches after a cohort member's
	// connection drops mid-round: the tier loop waits up to RejoinWait for
	// the member to re-register (workers running with Reconnect do so
	// automatically) and re-sends the round's request on the fresh
	// connection under the SAME Train.Seq token — the pending waiter moves
	// with it, so whichever connection replies first wins and the other
	// reply finds no waiter: a retried round can never double-count an
	// update. 0 disables redispatch (the historical drop-the-member
	// behaviour).
	MaxRetries int
	// RejoinWait bounds how long a redispatch waits for the dead worker to
	// re-register before giving the member up for the round (default 2s
	// when MaxRetries > 0). It doubles as the tier loops' grace window: a
	// tier whose members are all momentarily dead waits this long for a
	// rejoin before declaring itself stopped, and a tree root whose last
	// child died waits this long for a respawn.
	RejoinWait time.Duration
	// SendTimeout bounds every per-worker send with a write deadline; 0 =
	// block forever (the historical behaviour).
	SendTimeout time.Duration
	// Downlink enables the version-acked delta broadcast: each tier's
	// aggregator loop keeps one delta chain (compress.Downlink.NewChain),
	// encodes the round's snapshot against the chain's base exactly once,
	// and sends the shared payload to every cohort member whose last acked
	// broadcast matches that base — everyone else (first contact, a missed
	// round, a migrated worker, a resume, any worker below
	// ProtoDeltaDownlink) receives the dense snapshot and adopts it as its
	// new base. With a nil Codec the delta is the lossless XOR stream and
	// the run is byte-identical to a dense one; with a lossy codec the
	// chain keeps a server-side error-feedback residual per tier. nil
	// keeps the dense broadcast everywhere.
	Downlink *compress.Downlink
}

func (c *TieredAsyncConfig) withDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.6
	}
	if c.StalenessExp == 0 {
		c.StalenessExp = 0.5
	}
	if c.MaxRetries > 0 && c.RejoinWait == 0 {
		c.RejoinWait = 2 * time.Second
	}
}

func (c TieredAsyncConfig) validate() error {
	switch {
	case c.GlobalCommits <= 0:
		return fmt.Errorf("flnet: GlobalCommits = %d", c.GlobalCommits)
	case c.ClientsPerRound <= 0:
		return fmt.Errorf("flnet: ClientsPerRound = %d", c.ClientsPerRound)
	case len(c.InitialWeights) == 0:
		return fmt.Errorf("flnet: InitialWeights empty")
	case c.Alpha < 0 || c.Alpha > 1:
		return fmt.Errorf("flnet: Alpha = %v", c.Alpha)
	case c.StalenessExp < 0:
		return fmt.Errorf("flnet: StalenessExp = %v", c.StalenessExp)
	case len(c.Lockstep) > 0 && len(c.Lockstep) != c.GlobalCommits:
		return fmt.Errorf("flnet: Lockstep schedules %d commits, GlobalCommits = %d", len(c.Lockstep), c.GlobalCommits)
	case c.MaxRetries < 0:
		return fmt.Errorf("flnet: MaxRetries = %d", c.MaxRetries)
	case c.RejoinWait < 0:
		return fmt.Errorf("flnet: RejoinWait = %v", c.RejoinWait)
	case c.CheckpointEvery < 0:
		return fmt.Errorf("flnet: CheckpointEvery = %d", c.CheckpointEvery)
	case c.CheckpointEvery > 0 && c.CheckpointPath == "" && c.OnCheckpoint == nil:
		return fmt.Errorf("flnet: CheckpointEvery set but neither CheckpointPath nor OnCheckpoint is")
	}
	return nil
}

// TierCommitStats records one applied commit, in commit order — the network
// analogue of flcore.TierRoundRecord.
type TierCommitStats struct {
	// Tier is the committing tier (0 = fastest), TierRound its local round
	// counter, Version the global commit index this commit produced.
	Tier, TierRound, Version int
	// Staleness is the number of global commits applied between this
	// tier's pull and its commit.
	Staleness int
	// Weight is the effective mixing rate applied (alpha after tier
	// weighting and staleness discount).
	Weight float64
	// Clients is how many cohort members' updates made the tier aggregate
	// (fewer than the cohort under disconnects or the round timeout).
	Clients int
	// Seconds is the tier round's wall-clock duration.
	Seconds float64
	// UplinkBytes is the tier round's encoded update traffic.
	UplinkBytes int64
	// DownlinkBytes is the tier round's broadcast traffic as encoded on
	// the wire (delta payloads where the ack state allowed them, dense
	// snapshots otherwise).
	DownlinkBytes int64
}

// TieredAsyncRunResult is a finished distributed tiered-asynchronous job.
type TieredAsyncRunResult struct {
	// Weights is the final global model.
	Weights []float64
	// Commits counts applied commits per tier.
	Commits []int
	// Log is every applied commit in order.
	Log []TierCommitStats
	// UplinkBytes is the total encoded update traffic across all applied
	// commits.
	UplinkBytes int64
	// DownlinkBytes is the total broadcast traffic across all applied
	// commits as encoded on the wire — delta payloads where the
	// version-acked scheme allowed them, dense snapshots otherwise.
	DownlinkBytes int64
	// Retiers counts live re-tierings that moved workers; Reassigned is
	// the total workers migrated (Manager runs only).
	Retiers, Reassigned int
}

// lockSnap is what the lockstep committer hands a tier after applying its
// commit: the tier's next pull (version + weights) AND its next round's
// pre-drawn cohort, both taken at exactly the point the simulated engine's
// dispatch-at-commit would take them. Pre-drawing in the committer is what
// removes the last race: a tier goroutine drawing its own cohort could
// observe a membership rebuilt by a later commit the committer had already
// raced ahead to, which the simulation's atomic commit-then-dispatch never
// does. It also serializes every Manager call into commit order, so the
// sim and net Managers see identical call sequences.
type lockSnap struct {
	version int
	weights []float64
	round   int
	cohort  []int
}

// TieredAsyncAggregator is the FL server for tiered-asynchronous training.
// It reuses the base Aggregator's listener, registration, and profiling;
// Run replaces the synchronous round loop with per-tier loops and the
// asynchronous commit protocol.
type TieredAsyncAggregator struct {
	*Aggregator
	tcfg TieredAsyncConfig

	gmu     sync.Mutex // guards version + gweights
	version int
	gw      []float64

	tmu     sync.Mutex // guards the live membership view
	members [][]int

	fan  *fanIn          // the shared mini-FedAvg fan-in machinery
	acks []chan lockSnap // lockstep mode: per-tier pull snapshots
	down []*downTier     // per-tier delta-broadcast chains (Downlink runs)

	// Resume state, set by Resume/ResumeModel before Run and read-only
	// during it: the restored tier membership and per-tier cursors, plus
	// the checkpointed cumulative totals Run's result continues from.
	resumed      bool
	resumeTiers  [][]int
	startRounds  []int
	baseCommits  []int
	baseRetiers  int
	baseMoved    int
	baseUplink   int64
	baseDownlink int64

	// roundCursor tracks each tier's next round index for checkpoints
	// (committer-goroutine-owned: a resumed tier restarts at the round
	// after its last *committed* one; in-flight rounds die with a crash).
	roundCursor []int

	obs     *obsState
	metrics *metricsServer
}

// NewTieredAsyncAggregator listens on addr (e.g. "127.0.0.1:0").
func NewTieredAsyncAggregator(addr string, cfg TieredAsyncConfig) (*TieredAsyncAggregator, error) {
	cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	base, err := NewAggregator(addr, AggregatorConfig{
		Rounds: cfg.GlobalCommits, ClientsPerRound: cfg.ClientsPerRound,
		RoundTimeout: cfg.RoundTimeout, InitialWeights: cfg.InitialWeights,
		Seed: cfg.Seed, SendTimeout: cfg.SendTimeout,
	})
	if err != nil {
		return nil, err
	}
	obs := &obsState{}
	ta := &TieredAsyncAggregator{
		Aggregator: base,
		tcfg:       cfg,
		gw:         append([]float64(nil), cfg.InitialWeights...),
		fan:        &fanIn{agg: base, obs: obs, timeout: cfg.RoundTimeout, retries: cfg.MaxRetries, rejoinWait: cfg.RejoinWait},
		obs:        obs,
	}
	if cfg.MetricsAddr != "" {
		if err := ta.startMetrics(cfg.MetricsAddr); err != nil {
			base.Close()
			return nil, err
		}
	}
	return ta, nil
}

// SetManager installs the live tiering Manager after construction — the
// profile-then-run flow: NewTieredAsyncAggregator, WaitForWorkers,
// ProfileWorkers, build a tiering.Manager from the measured latencies,
// SetManager, Run(nil). Must be called before Run.
func (ta *TieredAsyncAggregator) SetManager(m flcore.TierManager) { ta.tcfg.Manager = m }

// ErrRosterChanged reports that a checkpoint's worker roster does not
// match the currently registered workers. Callers should fall back to the
// re-profiled resume: ResumeModel + a fresh profiling pass to rebuild
// tiers over the new roster.
var ErrRosterChanged = errors.New("flnet: worker roster changed since checkpoint")

// resumeCommon validates the parts of a checkpoint every resume flavour
// needs and loads the global model and commit counter.
func (ta *TieredAsyncAggregator) resumeCommon(c *flcore.TieredCheckpoint) error {
	if c.Format != flcore.TieredCheckpointFormat {
		return fmt.Errorf("flnet: unknown tiered checkpoint format %d (this build reads format %d)", c.Format, flcore.TieredCheckpointFormat)
	}
	if c.Seed != ta.tcfg.Seed {
		return fmt.Errorf("flnet: checkpoint seed %d != aggregator seed %d", c.Seed, ta.tcfg.Seed)
	}
	if len(c.Weights) != len(ta.tcfg.InitialWeights) {
		return fmt.Errorf("flnet: checkpoint has %d weights, model needs %d", len(c.Weights), len(ta.tcfg.InitialWeights))
	}
	for i, v := range c.Weights {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("flnet: checkpoint weight %d is %v; refusing non-finite model state", i, v)
		}
	}
	if c.Version < 0 || c.Version >= ta.tcfg.GlobalCommits {
		return fmt.Errorf("flnet: checkpoint at version %d, GlobalCommits = %d: nothing to resume", c.Version, ta.tcfg.GlobalCommits)
	}
	if len(ta.tcfg.Lockstep) > 0 {
		return fmt.Errorf("flnet: lockstep runs are single-shot parity harnesses and cannot resume")
	}
	ta.gmu.Lock()
	ta.version = c.Version
	ta.gw = append(ta.gw[:0], c.Weights...)
	ta.gmu.Unlock()
	ta.baseRetiers, ta.baseMoved = c.Retiers, c.Migrations
	ta.baseUplink = c.UplinkBytes
	ta.baseDownlink = c.DownlinkBytes
	ta.resumed = true
	return nil
}

// Resume loads a TieredCheckpoint into the aggregator before Run: the
// global model and version counter, each tier's round cursor and commit
// count, the checkpointed tier membership, and the tiering Manager's
// state. Every worker the checkpoint places in a tier must already have
// re-registered (WaitForWorkers first); otherwise Resume fails with
// ErrRosterChanged and the caller should re-profile the new roster and use
// ResumeModel instead. Run(nil) then continues the job from the saved
// commit count: GlobalCommits is the absolute target, so a run
// checkpointed at version 40 of 100 applies 60 more commits.
func (ta *TieredAsyncAggregator) Resume(c *flcore.TieredCheckpoint) error {
	if len(c.Tiers) == 0 {
		return fmt.Errorf("flnet: checkpoint has no tiers")
	}
	if len(c.Rounds) != len(c.Tiers) || len(c.Commits) != len(c.Tiers) {
		return fmt.Errorf("flnet: checkpoint cursors (%d rounds, %d commits) do not match %d tiers",
			len(c.Rounds), len(c.Commits), len(c.Tiers))
	}
	var missing []int
	ta.mu.Lock()
	for _, members := range c.Tiers {
		for _, id := range members {
			if _, ok := ta.workers[id]; !ok {
				missing = append(missing, id)
			}
		}
	}
	ta.mu.Unlock()
	if len(missing) > 0 {
		sort.Ints(missing)
		return fmt.Errorf("%w: checkpointed workers %v have not re-registered", ErrRosterChanged, missing)
	}
	// Manager and checkpoint must agree, exactly as in the sim engine:
	// silently resuming a managed run unmanaged (or vice versa) changes
	// cohort selection and re-tiering semantics.
	if len(c.ManagerState) > 0 {
		ms, ok := ta.tcfg.Manager.(flcore.TierManagerState)
		if ta.tcfg.Manager == nil || !ok {
			return fmt.Errorf("flnet: checkpoint carries tiering-manager state but the aggregator has no restorable Manager (install one with SetManager)")
		}
		if err := ms.RestoreState(c.ManagerState); err != nil {
			return fmt.Errorf("flnet: restoring manager state: %w", err)
		}
	} else if ta.tcfg.Manager != nil {
		return fmt.Errorf("flnet: aggregator has a Manager but the checkpoint carries no manager state")
	}
	if err := ta.resumeCommon(c); err != nil {
		return err
	}
	ta.resumeTiers = copyNetTiers(c.Tiers)
	ta.startRounds = append([]int(nil), c.Rounds...)
	ta.baseCommits = append([]int(nil), c.Commits...)
	return nil
}

// ResumeModel is the roster-changed resume: it restores only the global
// model, commit counter, and cumulative traffic totals from the
// checkpoint. The caller supplies fresh tiers to Run (typically from a new
// ProfileWorkers pass, with a fresh Manager for live runs) — per-tier
// round cursors and commit histories restart at zero over the new roster,
// while GlobalCommits remains the absolute target.
func (ta *TieredAsyncAggregator) ResumeModel(c *flcore.TieredCheckpoint) error {
	return ta.resumeCommon(c)
}

// copyNetTiers deep-copies a tier membership table.
func copyNetTiers(tiers [][]int) [][]int {
	out := make([][]int, len(tiers))
	for t, members := range tiers {
		out[t] = append([]int(nil), members...)
	}
	return out
}

// snapshot returns the current global version and a copy of the weights —
// the tier loops' "pull".
func (ta *TieredAsyncAggregator) snapshot() (int, []float64) {
	ta.gmu.Lock()
	defer ta.gmu.Unlock()
	return ta.version, append([]float64(nil), ta.gw...)
}

// applyCommit mixes one tier commit into the global model and returns its
// stats. A mismatched weight length or an invalid TierWeight is a
// configuration error (mismatched worker model architecture, broken weight
// policy) that no later commit can heal, so it is reported rather than
// dropped — the loud-failure analogue of the simulated engine's panics.
func (ta *TieredAsyncAggregator) applyCommit(tc *TierCommit, commits []int) (TierCommitStats, error) {
	ta.gmu.Lock()
	defer ta.gmu.Unlock()
	if len(tc.Weights) != len(ta.gw) {
		return TierCommitStats{}, fmt.Errorf("flnet: tier %d commit carries %d weights, global model has %d", tc.Tier, len(tc.Weights), len(ta.gw))
	}
	commits[tc.Tier]++
	w := 1.0
	if ta.tcfg.TierWeight != nil {
		w = ta.tcfg.TierWeight(tc.Tier, commits)
		if w < 0 || math.IsNaN(w) {
			commits[tc.Tier]--
			return TierCommitStats{}, fmt.Errorf("flnet: tier weight %v for tier %d", w, tc.Tier)
		}
	}
	staleness := ta.version - tc.PulledVersion
	alpha := flcore.CommitMix(ta.gw, tc.Weights, ta.tcfg.Alpha, w, staleness, ta.tcfg.StalenessExp)
	ta.version++
	return TierCommitStats{
		Tier: tc.Tier, TierRound: tc.TierRound, Version: ta.version,
		Staleness: staleness, Weight: alpha, Clients: tc.Clients,
		Seconds: tc.Seconds, UplinkBytes: tc.UplinkBytes,
		DownlinkBytes: tc.DownlinkBytes,
	}, nil
}

// tierMembers returns a copy of tier t's current membership.
func (ta *TieredAsyncAggregator) tierMembers(t int) []int {
	ta.tmu.Lock()
	defer ta.tmu.Unlock()
	return append([]int(nil), ta.members[t]...)
}

// feedManager routes one applied commit's observed latencies into the live
// tiering Manager, then lets it decide whether this version is a rebuild
// point. On a re-tiering it swaps the shared membership view (tier loops
// pick it up next round; in-flight rounds complete under the membership
// they were dispatched with) and announces each migration to the moved
// worker — only to workers whose protocol understands MsgTierReassign;
// older workers were pinned at Run start and never appear in the moves.
func (ta *TieredAsyncAggregator) feedManager(tc *TierCommit, version int, res *TieredAsyncRunResult) {
	mgr := ta.tcfg.Manager
	if mgr == nil {
		return
	}
	// Managers that take the richer round observation (tiering.Manager
	// does) get the end-to-end response time and the wire traffic next to
	// the compute-side seconds — the comm-aware tiering signal. Plain
	// TierManagers keep the seconds-only feed.
	if co, ok := mgr.(flcore.CommObserver); ok {
		for _, o := range tc.Observed {
			co.ObserveRound(o.Client, o.Seconds, o.EndToEnd, o.Bytes)
		}
	} else {
		for _, o := range tc.Observed {
			mgr.Observe(o.Client, o.Seconds)
		}
	}
	tiers, moves, changed := mgr.MaybeRetier(version)
	if !changed {
		return
	}
	ta.tmu.Lock()
	ta.members = tiers
	ta.tmu.Unlock()
	res.Retiers++
	res.Reassigned += len(moves)
	for _, mv := range moves {
		w := ta.liveWorker(mv.Client)
		if w == nil || w.proto < ProtoTierReassign {
			continue
		}
		// A migrated worker's delta-downlink ack is void: its new tier's
		// chain has a different base, and clearing (rather than leaving) the
		// ack also keeps a stale same-tier ack from resurfacing if a later
		// rebuild moves the worker back.
		w.clearAck()
		tr := &TierReassign{From: mv.From, To: mv.To, NumTiers: len(tiers)}
		// Per-tier compression policy: renegotiate the migrating worker's
		// codec over the same envelope when the destination tier's policy
		// differs from what the worker currently speaks. The accept window
		// (registered.acceptsCodec) keeps the worker's in-flight old-codec
		// update decodable while the switch propagates.
		if ta.tcfg.ReassignCodec != nil && w.proto >= ProtoCodecRenegotiate {
			if spec := ta.tcfg.ReassignCodec(mv.To, len(tiers)); spec != "" {
				if next, err := compress.Parse(spec); err == nil && next.ID() != w.codecID() {
					tr.Renegotiate, tr.CodecSpec = true, next.Name()
					w.setCodec(next.ID())
				}
			}
		}
		w.c.send(&Envelope{Type: MsgTierReassign, TierReassign: tr}) //nolint:errcheck // informational, best effort
	}
	counts := make([]int, len(tiers))
	for t, ms := range tiers {
		counts[t] = len(ms)
	}
	ta.obs.noteRetier(len(moves), counts)
}

// writeCheckpoint snapshots the run after the applied-th commit as a
// flcore.TieredCheckpoint and persists/announces it per the config. The
// network checkpoint is model-plus-cursors only: no in-flight tier rounds
// (they die with the process and are honestly re-run) and no worker-side
// compression residuals (workers own those and restart residual-fresh).
func (ta *TieredAsyncAggregator) writeCheckpoint(applied int, res *TieredAsyncRunResult) error {
	_, w := ta.snapshot()
	c := &flcore.TieredCheckpoint{
		Format:        flcore.TieredCheckpointFormat,
		Seed:          ta.tcfg.Seed,
		Version:       applied,
		Weights:       w,
		Rounds:        append([]int(nil), ta.roundCursor...),
		Commits:       append([]int(nil), res.Commits...),
		Retiers:       res.Retiers,
		Migrations:    res.Reassigned,
		UplinkBytes:   res.UplinkBytes,
		DownlinkBytes: res.DownlinkBytes,
	}
	ta.tmu.Lock()
	c.Tiers = copyNetTiers(ta.members)
	ta.tmu.Unlock()
	if ms, ok := ta.tcfg.Manager.(flcore.TierManagerState); ok {
		state, err := ms.SnapshotState()
		if err != nil {
			err = fmt.Errorf("flnet: checkpoint at version %d: manager state: %w", applied, err)
			ta.obs.noteCheckpoint(applied, err)
			return err
		}
		c.ManagerState = state
	}
	if ta.tcfg.CheckpointPath != "" {
		if err := c.SaveFile(ta.tcfg.CheckpointPath); err != nil {
			err = fmt.Errorf("flnet: checkpoint at version %d: %w", applied, err)
			ta.obs.noteCheckpoint(applied, err)
			return err
		}
	}
	ta.obs.noteCheckpoint(applied, nil)
	if ta.tcfg.OnCheckpoint != nil {
		ta.tcfg.OnCheckpoint(c)
	}
	return nil
}

// tierAlive reports whether any tier member's connection is still up.
func (ta *TieredAsyncAggregator) tierAlive(members []int) bool {
	for _, id := range members {
		if ta.liveWorker(id) != nil {
			return true
		}
	}
	return false
}

// waitTierAlive polls for any member of tier t to come back within the
// RejoinWait grace window — a tier whose members all flapped at once gets
// a chance to heal instead of permanently exiting its loop. Zero
// RejoinWait reports failure immediately (the historical behaviour).
func (ta *TieredAsyncAggregator) waitTierAlive(t int, done <-chan struct{}) bool {
	if ta.tcfg.RejoinWait <= 0 {
		return false
	}
	deadline := time.Now().Add(ta.tcfg.RejoinWait)
	for time.Now().Before(deadline) {
		select {
		case <-done:
			return false
		case <-time.After(20 * time.Millisecond):
		}
		if ta.tierAlive(ta.tierMembers(t)) {
			return true
		}
	}
	return false
}

// tierOf returns the tier currently holding the given client ID, or -1.
func (ta *TieredAsyncAggregator) tierOf(id int) int {
	ta.tmu.Lock()
	defer ta.tmu.Unlock()
	for t, ms := range ta.members {
		for _, m := range ms {
			if m == id {
				return t
			}
		}
	}
	return -1
}

// numTiers returns the current tier count.
func (ta *TieredAsyncAggregator) numTiers() int {
	ta.tmu.Lock()
	defer ta.tmu.Unlock()
	return len(ta.members)
}

// cohortFor draws tier t's participants for its local round r: through the
// live Manager when one is installed (Algorithm-2 adaptive sizing, current
// membership), otherwise the static TierCohort draw over members.
func (ta *TieredAsyncAggregator) cohortFor(t, r int, members []int) []int {
	if ta.tcfg.Manager != nil {
		return ta.tcfg.Manager.Cohort(t, r, ta.tcfg.ClientsPerRound)
	}
	return flcore.TierCohort(ta.tcfg.Seed, r, t, members, ta.tcfg.ClientsPerRound)
}

// fanIn is the synchronous mini-FedAvg fan-in machinery shared by the two
// places a cohort is trained and collected: the in-process tier loops of
// TieredAsyncAggregator and the per-tier Child aggregator processes of the
// hierarchical tree (tree.go). Both get identical dispatch, seq routing,
// disconnect tolerance, and aggregation-order semantics by construction.
type fanIn struct {
	agg     *Aggregator
	obs     *obsState
	timeout time.Duration // per-collection-window bound (0 = indefinite)
	seq     atomic.Int64  // train-request token source (Train.Seq)
	// retries bounds per-request redispatches after a cohort member's
	// connection dies mid-round (TieredAsyncConfig.MaxRetries; 0 = none),
	// and rejoinWait bounds how long each redispatch waits for the member
	// to re-register.
	retries    int
	rejoinWait time.Duration
}

// downTier is one tier's delta-broadcast state: the chain holding the
// tier's last reconstructed base (plus, for lossy codecs, the server-side
// error-feedback residual), and the tier's versioned-broadcast counter —
// the Train.Version value of the chain's current base. The counter is
// per-tier and per-broadcast rather than the global model version because
// a tier racing its own commit's application can pull the same global
// version twice; a per-broadcast counter keeps every (tier, version) pair
// naming exactly one base, so a stale ack can never alias a newer one.
// Owned by the tier's single aggregator loop — no locking needed.
type downTier struct {
	chain *compress.Chain
	seq   int // versioned broadcasts sent so far (0 = none)
}

// timedUpdate is one collected update plus its aggregator-side arrival
// time, measured from the round's broadcast — the end-to-end response
// latency that feeds comm-aware tiering. src is the exact connection the
// update arrived on, so ack recording survives mid-round redispatches (a
// retried request's reply may come from a different *registered instance
// of the same client ID).
type timedUpdate struct {
	flcore.Update
	arrival float64
	src     *registered
}

// trainReq is one outstanding train request of a tier round: the worker
// connection it went to and, for seq-echoing workers, the waiter its reply
// is routed to. Legacy workers (seq 0, ch nil) are collected from their
// shared channel by round match — safe because legacy workers are pinned
// and therefore can never be trained by two tiers concurrently. A
// redispatch (bounded by fanIn.retries) rebinds the request to the
// member's fresh connection under the same seq token; mu guards the
// binding.
type trainReq struct {
	id  int // the member's client ID, stable across rejoins
	seq int64

	mu       sync.Mutex
	w        *registered
	ch       chan *Envelope
	attempts int // redispatches consumed
}

// current returns the connection and waiter the request is bound to.
func (rq *trainReq) current() (*registered, chan *Envelope) {
	rq.mu.Lock()
	defer rq.mu.Unlock()
	return rq.w, rq.ch
}

// rebind moves the request to a fresh connection and waiter.
func (rq *trainReq) rebind(w *registered, ch chan *Envelope) {
	rq.mu.Lock()
	rq.w, rq.ch = w, ch
	rq.mu.Unlock()
}

// retryCtx is what a mid-round redispatch needs to re-send a request on a
// rejoined member's fresh connection: the round's tier and index, the
// shared broadcast, the round's versioned-broadcast counter, and an
// atomic counter accumulating the broadcast bytes redispatches add. A
// rejoined connection holds no delta base (its registration starts
// unacked), so retried requests always carry the dense snapshot.
type retryCtx struct {
	tier, round int
	bc          *broadcast
	dlVer       int
	extraDown   atomic.Int64
}

// redispatch waits (bounded by rejoinWait and the collection deadline) for
// a dead cohort member to re-register, then re-sends its round request on
// the fresh connection under the SAME seq token: the pending waiter moves
// to the new connection, so whichever connection delivers first wins and
// the other reply finds no waiter — a retried round cannot double-count.
// It reports whether the request was rebound.
func (f *fanIn) redispatch(rq *trainReq, rc *retryCtx, deadline time.Time) bool {
	if f.retries <= 0 || rc == nil {
		return false
	}
	rq.mu.Lock()
	if rq.attempts >= f.retries {
		rq.mu.Unlock()
		return false
	}
	rq.attempts++
	old := rq.w
	rq.mu.Unlock()
	until := time.Now().Add(f.rejoinWait)
	if !deadline.IsZero() && deadline.Before(until) {
		until = deadline
	}
	var nw *registered
	for {
		if w := f.agg.liveWorker(rq.id); w != nil && w != old {
			nw = w
			break
		}
		if !time.Now().Before(until) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	if nw.proto < ProtoTierReassign {
		return false // seq routing needs a seq-echoing worker
	}
	nch := nw.addPending(rq.seq)
	tr := &Train{Round: rc.round, Seq: rq.seq}
	if rc.dlVer != 0 && nw.proto >= ProtoDeltaDownlink {
		// Version-tagged dense snapshot: the fresh connection adopts it as
		// its base and becomes delta-eligible again next round.
		tr.Version = rc.dlVer
	}
	rc.bc.fill(tr, nw.proto)
	if err := nw.c.send(&Envelope{Type: MsgTrain, Train: tr}); err != nil {
		nw.dropPending(rq.seq)
		return false
	}
	var db int64
	if nw.proto >= ProtoFastWire {
		db = int64(len(rc.bc.raw))
	} else {
		db = int64(compress.DenseBytes(len(rc.bc.weights)))
	}
	rc.extraDown.Add(db)
	f.obs.addDownlink(db)
	f.obs.noteRetry()
	rq.rebind(nw, nch)
	return true
}

// collect gathers the round's updates for the given outstanding requests,
// respecting the round timeout (0 = wait indefinitely). Replies from
// seq-echoing workers arrive through their per-request waiters, so a
// migrated worker trained concurrently by its old and new tier can never
// have its updates cross-matched between the two rounds. When rc is
// non-nil and retries are configured, a request whose connection dies
// mid-window is redispatched to the member's rejoined connection instead
// of being dropped.
func (f *fanIn) collect(reqs []*trainReq, round int, weights []float64, start time.Time, rc *retryCtx) []timedUpdate {
	type got struct {
		u  timedUpdate
		ok bool
	}
	ch := make(chan got, len(reqs))
	var deadline time.Time
	if f.timeout > 0 {
		deadline = time.Now().Add(f.timeout)
	}
	for _, rq := range reqs {
		go func(rq *trainReq) {
			if w, wch := rq.current(); wch == nil {
				u, ok := drainFor(w, round, weights, deadline)
				ch <- got{u: timedUpdate{Update: u, arrival: time.Since(start).Seconds(), src: w}, ok: ok}
				return
			}
			var timeout <-chan time.Time
			if !deadline.IsZero() {
				timer := time.NewTimer(time.Until(deadline))
				defer timer.Stop()
				timeout = timer.C
			}
			for {
				w, wch := rq.current()
				deliver := func(env *Envelope) {
					u, ok := decodeUpdate(w, env, weights)
					ch <- got{u: timedUpdate{Update: u, arrival: time.Since(start).Seconds(), src: w}, ok: ok}
				}
				// A reply that was routed before the connection dropped (or
				// just before the deadline) still counts: always drain the
				// waiter before honoring the death/timeout signal, otherwise
				// the select's random choice would nondeterministically
				// discard a delivered update.
				take := func() bool {
					select {
					case env := <-wch:
						deliver(env)
						return true
					default:
						return false
					}
				}
				select {
				case env := <-wch:
					deliver(env)
					return
				case <-w.deadCh:
					if take() {
						return
					}
					if f.redispatch(rq, rc, deadline) {
						continue // wait on the rebound connection
					}
					ch <- got{ok: false}
					return
				case <-timeout:
					if !take() {
						ch <- got{ok: false}
					}
					return
				}
			}
		}(rq)
	}
	var updates []timedUpdate
	for range reqs {
		if g := <-ch; g.ok {
			updates = append(updates, g.u)
		}
	}
	return updates
}

// tierRoundStatus is the outcome of one attempted tier mini-round.
type tierRoundStatus int

const (
	roundCommitted tierRoundStatus = iota // updates aggregated and committed
	roundNoCohort                         // whole cohort unreachable; redraw next round
	roundEmpty                            // cohort reached but no updates before the windows closed
	roundAbort                            // the tier cannot continue
)

// runRound executes one mini-round of tier t: send the cohort the round's
// weights, collect the matched replies (with extra collection windows for
// all-slow cohorts — a cohort slower than one timeout window still commits
// instead of being perpetually one round behind; a single member
// persistently slower than its cohort is still dropped each round, and
// live re-tiering is the mitigation: its EWMA drifts up until a rebuild
// moves it to a slower tier), and return the FedAvg aggregate as a
// TierCommit ready for the committer — in-process or over the wire.
func (f *fanIn) runRound(t, r int, cohort []int, version int, weights []float64, dl *downTier, done <-chan struct{}) (*TierCommit, tierRoundStatus) {
	const maxCollects = 3
	var conns []*registered
	for _, id := range cohort {
		if w := f.agg.liveWorker(id); w != nil {
			conns = append(conns, w) // dead cohort members: train the rest
		}
	}
	if len(conns) == 0 {
		return nil, roundNoCohort
	}
	// Delta broadcast: the chain advances exactly once per round — the
	// payload is encoded against the chain's base and shared by every
	// eligible recipient (the O(1)-per-round encode) — and the round then
	// proceeds from the chain's post-encode base, so with a lossy codec
	// training, uplink reconstruction, and every dense fallback all see the
	// weights the delta recipients reconstruct, not the pre-loss snapshot.
	var dlPayload []byte
	var dlCodec byte
	dlBase, dlVer := 0, 0
	if dl != nil {
		if dl.chain.HasBase() {
			dlPayload, dlCodec = dl.chain.Encode(weights)
			dlBase = dl.seq
		} else {
			dl.chain.Adopt(weights)
		}
		dl.seq++
		dlVer = dl.seq
		// The chain's own base, read-only: nothing advances the chain again
		// before this round's last reader (collect) has returned.
		weights = dl.chain.Base()
	}
	start := time.Now()
	var reqs []*trainReq
	defer func() {
		for _, rq := range reqs {
			if rq.seq != 0 {
				// Drop on whichever connection currently holds the waiter —
				// a redispatch may have moved it off the original one.
				w, _ := rq.current()
				w.dropPending(rq.seq)
			}
		}
	}()
	bc := newBroadcast(weights)
	sent := make(map[int]int64, len(conns))
	var downBytes int64
	rc := &retryCtx{tier: t, round: r, bc: bc, dlVer: dlVer}
	for _, w := range conns {
		rq := &trainReq{id: w.id, w: w}
		if w.proto >= ProtoTierReassign {
			rq.seq = f.seq.Add(1)
			rq.ch = w.addPending(rq.seq)
		}
		tr := &Train{Round: r, Seq: rq.seq}
		var db int64
		if dlVer != 0 && w.proto >= ProtoDeltaDownlink {
			tr.Version = dlVer
			if dlPayload != nil && w.ackMatch(t, dlBase) {
				tr.Delta, tr.DeltaBase, tr.DeltaCodec = dlPayload, dlBase, dlCodec
				db = int64(len(dlPayload))
			}
		}
		if tr.Delta == nil {
			bc.fill(tr, w.proto)
			if w.proto >= ProtoFastWire {
				db = int64(len(bc.raw))
			} else {
				db = int64(compress.DenseBytes(len(weights)))
			}
		}
		if err := w.c.send(&Envelope{Type: MsgTrain, Train: tr}); err != nil {
			if rq.seq != 0 {
				w.dropPending(rq.seq)
			}
			continue
		}
		f.obs.addDownlink(db)
		downBytes += db
		sent[w.id] = db
		reqs = append(reqs, rq)
	}
	if len(reqs) == 0 {
		return nil, roundNoCohort
	}
	updates := f.collect(reqs, r, weights, start, rc)
	for retry := 0; len(updates) == 0 && retry < maxCollects-1; retry++ {
		select {
		case <-done:
			return nil, roundAbort
		default:
		}
		updates = f.collect(reqs, r, weights, start, rc)
	}
	downBytes += rc.extraDown.Load()
	if len(updates) == 0 {
		return nil, roundEmpty
	}
	// A responding Proto ≥ ProtoDeltaDownlink worker has provably received
	// and adopted this round's versioned base — record the ack that makes
	// it delta-eligible next round. The ack lands on the exact connection
	// the reply came from (u.src), so a redispatched request acks the
	// rejoined connection, never the dead one. Workers that received the
	// broadcast but never replied stay unacked and fall back to dense,
	// which is always safe.
	if dlVer != 0 {
		for _, u := range updates {
			if u.src != nil && u.src.proto >= ProtoDeltaDownlink {
				u.src.setAck(t, dlVer)
			}
		}
	}
	// Deterministic aggregation order: replies arrive in wall-clock order,
	// FedAvg's float sums are order-sensitive, and the simulated engine
	// aggregates in cohort order — reorder to match.
	pos := make(map[int]int, len(cohort))
	for i, id := range cohort {
		pos[id] = i
	}
	sort.Slice(updates, func(i, j int) bool { return pos[updates[i].ClientID] < pos[updates[j].ClientID] })
	wall := time.Since(start).Seconds()
	var upBytes int64
	obs := make([]ClientSeconds, len(updates))
	plain := make([]flcore.Update, len(updates))
	for i, u := range updates {
		plain[i] = u.Update
		upBytes += int64(u.WireBytes)
		secs := u.Latency // worker-reported training seconds
		if secs <= 0 {
			secs = wall // legacy workers: the round's wall clock
		}
		obs[i] = ClientSeconds{
			Client: u.ClientID, Seconds: secs,
			Bytes: sent[u.ClientID] + int64(u.WireBytes), EndToEnd: u.arrival,
		}
	}
	return &TierCommit{
		Tier: t, TierRound: r, PulledVersion: version,
		Weights: flcore.FedAvg(plain), Clients: len(updates),
		Seconds: wall, UplinkBytes: upBytes, DownlinkBytes: downBytes,
		Observed: obs,
	}, roundCommitted
}

// runTierRound runs one mini-round through the shared fan-in and delivers
// the committed aggregate into the in-process commit channel.
func (ta *TieredAsyncAggregator) runTierRound(t, r int, cohort []int, version int, weights []float64, commitCh chan<- *Envelope, done <-chan struct{}) tierRoundStatus {
	var dl *downTier
	if ta.down != nil {
		dl = ta.down[t]
	}
	tc, status := ta.fan.runRound(t, r, cohort, version, weights, dl, done)
	if status != roundCommitted {
		return status
	}
	select {
	case commitCh <- &Envelope{Type: MsgTierCommit, TierCommit: tc}:
		return roundCommitted
	case <-done:
		return roundAbort
	}
}

// tierLoop drives tier t's synchronous mini-FedAvg rounds until the global
// committer signals done or the tier can no longer make progress (its last
// live worker is gone, or maxEmptyRounds consecutive rounds produced no
// update). Under a live Manager the membership is re-read every round, so
// re-tierings take effect at the next dispatch. In lockstep mode the pull
// — version, weights, AND the pre-drawn cohort — comes from the
// committer's per-tier ack channel instead of the shared snapshot, so each
// round starts from exactly the state the simulated engine's dispatch
// would see.
func (ta *TieredAsyncAggregator) tierLoop(t int, commitCh chan<- *Envelope, done <-chan struct{}) {
	// A tier that times out this many rounds in a row (each with several
	// collection windows) stops participating; when every tier stops, Run
	// reports the failure instead of hanging.
	const maxEmptyRounds = 3
	lockstep := len(ta.tcfg.Lockstep) > 0
	empty := 0
	var snap lockSnap
	haveSnap := false
	// A resumed run restarts each tier at the round after its last
	// committed one (startRounds is immutable during Run).
	r0 := 0
	if t < len(ta.startRounds) {
		r0 = ta.startRounds[t]
	}
	for r := r0; ; r++ {
		select {
		case <-done:
			return
		default:
		}
		if lockstep && !haveSnap {
			select {
			case s, ok := <-ta.acks[t]:
				if !ok {
					return
				}
				snap, haveSnap = s, true
			case <-done:
				return
			}
		}
		members := ta.tierMembers(t)
		if !ta.tierAlive(members) {
			// Every member's connection is down. With a rejoin grace window
			// configured, wait for reconnecting workers before giving the
			// tier up for the rest of the run.
			if lockstep || !ta.waitTierAlive(t, done) {
				return
			}
			members = ta.tierMembers(t)
		}
		if empty >= maxEmptyRounds {
			return
		}
		var cohort []int
		var version int
		var weights []float64
		if lockstep {
			r, cohort = snap.round, snap.cohort
			version, weights = snap.version, snap.weights
		} else {
			cohort = ta.cohortFor(t, r, members)
			version, weights = ta.snapshot()
		}
		if len(cohort) == 0 {
			return
		}
		switch ta.runTierRound(t, r, cohort, version, weights, commitCh, done) {
		case roundCommitted:
			empty = 0
			haveSnap = false // next round pulls the post-commit snapshot
		case roundNoCohort:
			if lockstep {
				return // a lockstep schedule cannot skip rounds; give up the tier
			}
			// Whole cohort dead while the tier still has live members
			// elsewhere: the next round draws a different cohort. Back off
			// briefly so the redraw loop cannot burn a core while dead
			// flags propagate.
			time.Sleep(10 * time.Millisecond)
		case roundEmpty:
			if lockstep {
				return
			}
			empty++
		case roundAbort:
			return
		}
	}
}

// Run partitions the registered workers into the given tiers (member worker
// IDs per tier, fastest first — core.TierMembers form; nil uses the live
// Manager's membership), announces the placement to each worker, and drives
// tiered-asynchronous training until GlobalCommits commits have been
// applied. Workers that disconnect — even between profiling and Run — are
// tolerated round to round; Run fails if every tier stops making progress
// (all workers lost, or rounds repeatedly timing out empty) before the
// commit target is reached, or on the first malformed commit (wrong weight
// length, invalid TierWeight) — a configuration error no later commit can
// heal.
func (ta *TieredAsyncAggregator) Run(tiers [][]int) (*TieredAsyncRunResult, error) {
	if tiers == nil && ta.tcfg.Manager != nil {
		tiers = ta.tcfg.Manager.Tiers()
	}
	if tiers == nil && ta.resumeTiers != nil {
		tiers = ta.resumeTiers
	}
	if len(tiers) == 0 {
		return nil, fmt.Errorf("flnet: tiered-async needs at least one tier")
	}
	if ta.baseCommits != nil && len(ta.baseCommits) != len(tiers) {
		return nil, fmt.Errorf("flnet: resumed checkpoint has %d tiers, Run got %d", len(ta.baseCommits), len(tiers))
	}
	if ta.tcfg.CheckpointEvery > 0 && ta.tcfg.Manager != nil {
		if _, ok := ta.tcfg.Manager.(flcore.TierManagerState); !ok {
			return nil, fmt.Errorf("flnet: CheckpointEvery set but Manager %T does not implement flcore.TierManagerState", ta.tcfg.Manager)
		}
	}
	for _, t := range ta.tcfg.Lockstep {
		if t < 0 || t >= len(tiers) {
			return nil, fmt.Errorf("flnet: lockstep schedule names tier %d of %d", t, len(tiers))
		}
	}
	seen := make(map[int]int)
	for t, members := range tiers {
		if len(members) == 0 {
			return nil, fmt.Errorf("flnet: tier %d is empty", t)
		}
		for _, id := range members {
			if prev, dup := seen[id]; dup {
				return nil, fmt.Errorf("flnet: worker %d in tiers %d and %d", id, prev, t)
			}
			seen[id] = t
			// A member must have registered at some point; one that has
			// since dropped is tolerated like any mid-run disconnect.
			ta.mu.Lock()
			_, registered := ta.workers[id]
			ta.mu.Unlock()
			if !registered {
				return nil, fmt.Errorf("flnet: tier %d member %d never registered", t, id)
			}
		}
	}
	ta.tmu.Lock()
	ta.members = make([][]int, len(tiers))
	for t, members := range tiers {
		ta.members[t] = append([]int(nil), members...)
	}
	ta.tmu.Unlock()
	// Live tiering with a mixed fleet: workers that predate
	// MsgTierReassign are pinned in their original tier, so rebuilds never
	// move a worker that could not be told.
	if ta.tcfg.Manager != nil {
		if p, ok := ta.tcfg.Manager.(interface{ Pin(int) }); ok {
			ta.mu.Lock()
			for id, w := range ta.workers {
				if w.proto < ProtoTierReassign {
					p.Pin(id)
				}
			}
			ta.mu.Unlock()
		}
	}
	// Announce placements (best effort: a worker that just dropped is
	// handled by its tier loop like any other disconnect).
	for t, members := range tiers {
		for _, id := range members {
			if w := ta.liveWorker(id); w != nil {
				w.c.send(&Envelope{Type: MsgTierAssign, TierAssign: &TierAssign{Tier: t, NumTiers: len(tiers)}}) //nolint:errcheck // best effort
			}
		}
	}

	if ta.tcfg.Downlink != nil {
		// Fresh chains every Run — on a resumed run the workers' held bases
		// did not survive the crash any more than the chains did, so every
		// tier re-enters through the dense first-contact path.
		ta.down = make([]*downTier, len(tiers))
		for t := range ta.down {
			ta.down[t] = &downTier{chain: ta.tcfg.Downlink.NewChain()}
		}
	}

	if len(ta.tcfg.Lockstep) > 0 {
		ta.acks = make([]chan lockSnap, len(tiers))
		initial := append([]float64(nil), ta.tcfg.InitialWeights...)
		for t := range ta.acks {
			ta.acks[t] = make(chan lockSnap, 1)
			ta.acks[t] <- lockSnap{version: 0, weights: initial, round: 0, cohort: ta.cohortFor(t, 0, ta.tierMembers(t))}
		}
	}

	commitCh := make(chan *Envelope)
	done := make(chan struct{})
	if len(ta.tcfg.Lockstep) == 0 {
		// Self-healing: keep accepting registrations while the run is in
		// flight, and greet every rejoining worker with the tier the run
		// still holds for it — its tier loop then reaches it through
		// liveWorker on the next dispatch (or a pending redispatch). The
		// lockstep parity harness stays frozen-fleet by design.
		go ta.acceptLoop(done)
		ta.setRejoinHook(func(w *registered) {
			if w.role != RoleWorker {
				w.c.close() //nolint:errcheck // tree children rejoin via RunTree only
				return
			}
			ta.obs.noteReconnect(w.id)
			if t := ta.tierOf(w.id); t >= 0 {
				w.c.send(&Envelope{Type: MsgTierAssign, TierAssign: &TierAssign{Tier: t, NumTiers: ta.numTiers()}}) //nolint:errcheck // informational, best effort
			}
		})
	}
	var wg sync.WaitGroup
	loopDone := make([]chan struct{}, len(tiers))
	for t := range tiers {
		wg.Add(1)
		loopDone[t] = make(chan struct{})
		go func(t int) {
			defer wg.Done()
			defer close(loopDone[t])
			ta.tierLoop(t, commitCh, done)
		}(t)
	}
	loopsExited := make(chan struct{})
	go func() {
		wg.Wait()
		close(loopsExited)
	}()

	// The single global-model goroutine is this one: it owns the commit
	// order, applying envelopes as tiers race to deliver them — or, in
	// lockstep mode, in exactly the scheduled order, buffering early
	// arrivals.
	// A resumed run continues the checkpoint's cumulative counters: commits,
	// re-tier totals, uplink traffic, the global version, and each tier's
	// round cursor all pick up where the snapshot left them.
	res := &TieredAsyncRunResult{Commits: make([]int, len(tiers))}
	copy(res.Commits, ta.baseCommits)
	res.Retiers, res.Reassigned = ta.baseRetiers, ta.baseMoved
	res.UplinkBytes = ta.baseUplink
	res.DownlinkBytes = ta.baseDownlink
	ta.roundCursor = make([]int, len(tiers))
	copy(ta.roundCursor, ta.startRounds)
	counts := make([]int, len(tiers))
	for t, ms := range tiers {
		counts[t] = len(ms)
	}
	ta.gmu.Lock()
	applied := ta.version
	ta.gmu.Unlock()
	ta.obs.noteRunStart(ta.tcfg.GlobalCommits, applied, res.Commits, res.Retiers, res.Reassigned, res.UplinkBytes, counts)
	finish := func(applied int, err error) (*TieredAsyncRunResult, error) {
		ta.setRejoinHook(nil)
		close(done)
		ta.FinishWorkers(applied)
		wg.Wait()
		_, res.Weights = ta.snapshot()
		ta.obs.noteRunEnd()
		return res, err
	}
	pending := make([][]*Envelope, len(tiers)) // lockstep buffers
	for applied < ta.tcfg.GlobalCommits {
		var env *Envelope
		if len(ta.tcfg.Lockstep) > 0 {
			want := ta.tcfg.Lockstep[applied]
			for len(pending[want]) == 0 {
				// Watching the scheduled tier's OWN exit (not just the
				// all-loops exit) matters: other tiers may be blocked on
				// their ack channels rather than exited, and only closing
				// done (finish) releases them — waiting for loopsExited
				// here would deadlock.
				select {
				case e := <-commitCh:
					pending[e.TierCommit.Tier] = append(pending[e.TierCommit.Tier], e)
				case <-loopDone[want]:
					// The scheduled tier can never deliver: a completed
					// send would already have been received and stashed
					// (the commit channel is unbuffered), so pending[want]
					// being empty means no commit is coming.
					return finish(applied, fmt.Errorf("flnet: lockstep schedule stalled: tier %d never delivered commit %d of %d", want, applied+1, ta.tcfg.GlobalCommits))
				}
			}
			env = pending[want][0]
			pending[want] = pending[want][1:]
		} else {
			select {
			case e := <-commitCh:
				env = e
			case <-loopsExited:
				// finish() also closes done, stopping the mid-run accept
				// loop, and clears the rejoin hook; the tier loops it waits
				// on have already exited.
				return finish(applied, fmt.Errorf("flnet: every tier stopped making progress after %d of %d commits", applied, ta.tcfg.GlobalCommits))
			}
		}
		stats, err := ta.applyCommit(env.TierCommit, res.Commits)
		if err != nil {
			return finish(applied, err)
		}
		res.Log = append(res.Log, stats)
		res.UplinkBytes += stats.UplinkBytes
		res.DownlinkBytes += stats.DownlinkBytes
		applied++
		ta.obs.noteCommit(stats)
		ta.feedManager(env.TierCommit, stats.Version, res)
		// The committer owns the round cursors: the committing tier's next
		// round is the one after the highest round it has committed — a
		// resumed run restarts there, and any round that was in flight when
		// the process died is honestly re-run.
		if next := env.TierCommit.TierRound + 1; next > ta.roundCursor[env.TierCommit.Tier] {
			ta.roundCursor[env.TierCommit.Tier] = next
		}
		if ta.tcfg.CheckpointEvery > 0 && applied%ta.tcfg.CheckpointEvery == 0 {
			if err := ta.writeCheckpoint(applied, res); err != nil {
				return finish(applied, err)
			}
		}
		if len(ta.tcfg.Lockstep) > 0 {
			// Hand the committing tier its next pull: the post-commit
			// snapshot and its next round's cohort, both taken after any
			// re-tiering at this version — the simulated engine's
			// dispatch-at-commit discipline. Lockstep never skips rounds,
			// so the tier's next round index is its commit count. The ack
			// channel is buffered and the tier has at most one commit in
			// flight, so this never blocks.
			tier := env.TierCommit.Tier
			ver, w := ta.snapshot()
			nextRound := res.Commits[tier]
			ta.acks[tier] <- lockSnap{version: ver, weights: w, round: nextRound, cohort: ta.cohortFor(tier, nextRound, ta.tierMembers(tier))}
		}
	}
	// Done goes out before waiting on the tier loops: workers finishing an
	// in-flight round send their update, read Done, and close their
	// connections, which unblocks any loop still collecting — so the final
	// wait is bounded even when RoundTimeout is generous.
	return finish(applied, nil)
}

// ProfileAndRun is the end-to-end entry point: profile every registered
// worker over the network (core.Profile's Section 4.2 pass, measured on
// real connections), build numTiers latency tiers from the measurements,
// and run the tiered-asynchronous protocol over them. It returns the built
// tiers and the profiling dropouts alongside the result — a worker that
// missed its profiling reply is excluded from every tier and sits out the
// whole run, so callers should surface the dropout list.
//
// When a live Manager was installed (SetManager), the Manager was already
// seeded from a profiling pass, so no second pass runs (numTiers and
// profileTimeout are ignored, dropouts is nil) and the returned tiers
// mirror the Manager's FINAL membership — aligned with the result's
// per-tier commit counters even after mid-run re-tierings.
func (ta *TieredAsyncAggregator) ProfileAndRun(numTiers int, profileTimeout time.Duration) (*TieredAsyncRunResult, []core.Tier, []int, error) {
	if ta.tcfg.Manager != nil {
		res, err := ta.Run(nil)
		return res, managerTierView(ta.tcfg.Manager), nil, err
	}
	lat, dropouts, err := ta.ProfileWorkers(profileTimeout)
	if err != nil {
		return nil, nil, dropouts, err
	}
	tiers := core.BuildTiers(lat, numTiers, core.Quantile)
	res, err := ta.Run(core.TierMembers(tiers))
	return res, tiers, dropouts, err
}

// managerTierView renders a Manager's current membership as []core.Tier,
// with mean latencies from its EWMA estimates when it exposes them
// (tiering.Manager does).
func managerTierView(mgr flcore.TierManager) []core.Tier {
	est, hasEst := mgr.(interface{ EWMA(int) (float64, bool) })
	tiers := mgr.Tiers()
	out := make([]core.Tier, len(tiers))
	for t, members := range tiers {
		out[t] = core.Tier{ID: t, Members: members}
		if !hasEst || len(members) == 0 {
			continue
		}
		sum, n := 0.0, 0
		for _, c := range members {
			if v, ok := est.EWMA(c); ok {
				sum += v
				n++
			}
		}
		if n > 0 {
			out[t].MeanLatency = sum / float64(n)
		}
	}
	return out
}
