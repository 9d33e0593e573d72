package flcore

import (
	"bytes"
	"container/heap"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// TieredCheckpointFormat is the current on-disk format version. Loads
// reject any other value: a checkpoint from a future (or corrupted) format
// must fail loudly instead of being misinterpreted field-by-field.
const TieredCheckpointFormat = 1

// TierManagerState is the optional checkpointing contract for a
// TierManager: a Manager that implements it can serialize its internal
// state (membership, EWMA latency estimates, selection probabilities,
// credits, counters) into an opaque blob and restore it later. The blob is
// opaque to flcore on purpose — flcore cannot import internal/tiering, so
// the bytes round-trip through TieredCheckpoint.ManagerState untouched.
type TierManagerState interface {
	// SnapshotState serializes the manager's current state.
	SnapshotState() ([]byte, error)
	// RestoreState loads a blob produced by SnapshotState into the
	// manager, replacing its current state.
	RestoreState(data []byte) error
}

// PendingTierRound is one in-flight tier round captured mid-run: the tier
// pulled the global model at version PulledVersion, trained its cohort,
// and its FedAvg aggregate is waiting in the event queue to commit at
// simulated time Finish. Snapshotting the *trained* aggregate (rather
// than re-training on resume) keeps resume bit-exact without replaying
// the pulled weights or double-counting Manager cohort draws.
type PendingTierRound struct {
	Tier, TierRound, PulledVersion int
	Finish                         float64
	Selected                       []int
	Weights                        []float64
	Latency                        float64
	Lats                           []float64
	UplinkBytes                    int64
	// DownlinkBytes is the round's total broadcast charge. Checkpoints that
	// also carry a per-client CommBytes list restore unchanged: gob skips a
	// field the receiver lacks.
	DownlinkBytes int64
}

// TieredCheckpoint captures a tiered-asynchronous job between commits:
// the global model and FedAT version counter, the per-tier round cursors
// and cumulative commit counts (the cross-tier weights need the full
// history), tier membership, the in-flight rounds (sim engine only; a
// crashed socket aggregator's in-flight rounds die with their
// connections), the tiering Manager's serialized state, and the clients'
// error-feedback residuals under update compression. Both
// flcore.TieredAsyncEngine and flnet.TieredAsyncAggregator write and
// resume from this one format.
type TieredCheckpoint struct {
	// Format is the checkpoint format version (TieredCheckpointFormat).
	Format int
	Seed   int64
	// Version is the FedAT global commit counter at the snapshot.
	Version int
	// SimTime is the simulated clock (sim engine; zero for flnet).
	SimTime float64
	// NextEval is the next EvalInterval boundary, stored directly so a
	// resumed run replays the exact eval (and Manager accuracy-feedback)
	// schedule instead of re-deriving it with float drift.
	NextEval float64
	Weights  []float64
	// Rounds holds each tier's next local round index; Commits the
	// cumulative committed rounds per tier.
	Rounds  []int
	Commits []int
	// Retiers / Migrations / UplinkBytes / DownlinkBytes are cumulative
	// run totals. (DownlinkBytes gob-decodes to zero from checkpoints that
	// predate downlink accounting.)
	Retiers       int
	Migrations    int
	UplinkBytes   int64
	DownlinkBytes int64
	// Tiers is the tier membership at the snapshot, fastest first.
	Tiers [][]int
	// Pending are the in-flight tier rounds (ordered by commit time).
	Pending []PendingTierRound
	// ManagerState is the tiering Manager's opaque serialized state
	// (empty when the run has no Manager).
	ManagerState []byte
	// Residuals maps client index to its error-feedback residual (only
	// clients with a live residual appear; empty without a codec).
	Residuals map[int][]float64
}

// Validate checks every field the three drivers share against the job
// about to resume it — the one validation behind the sim's Restore and the
// socket runtime's Resume, ResumeModel and ResumeTree: format and seed, a
// finite model of numWeights entries, non-negative counters and cursors,
// one cursor pair per tier, and a well-formed membership over client IDs
// below numClients.
func (c *TieredCheckpoint) Validate(seed int64, numWeights, numClients int) error {
	switch {
	case c.Format != TieredCheckpointFormat:
		return fmt.Errorf("flcore: unknown tiered checkpoint format %d (this build reads format %d)", c.Format, TieredCheckpointFormat)
	case c.Seed != seed:
		return fmt.Errorf("flcore: checkpoint seed %d != run seed %d", c.Seed, seed)
	case len(c.Weights) != numWeights:
		return fmt.Errorf("flcore: checkpoint has %d weights, model needs %d", len(c.Weights), numWeights)
	case c.Version < 0:
		return fmt.Errorf("flcore: checkpoint version %d is negative", c.Version)
	case c.Retiers < 0 || c.Migrations < 0:
		return fmt.Errorf("flcore: checkpoint re-tiering totals (%d retiers, %d migrations) are negative", c.Retiers, c.Migrations)
	case c.UplinkBytes < 0 || c.DownlinkBytes < 0:
		return fmt.Errorf("flcore: checkpoint traffic totals (%d uplink, %d downlink bytes) are negative", c.UplinkBytes, c.DownlinkBytes)
	case len(c.Tiers) == 0:
		return fmt.Errorf("flcore: checkpoint has no tiers")
	case len(c.Rounds) != len(c.Tiers) || len(c.Commits) != len(c.Tiers):
		return fmt.Errorf("flcore: checkpoint cursors (%d rounds, %d commits) do not match %d tiers",
			len(c.Rounds), len(c.Commits), len(c.Tiers))
	}
	for t := range c.Tiers {
		if c.Rounds[t] < 0 || c.Commits[t] < 0 {
			return fmt.Errorf("flcore: checkpoint tier %d cursor (round %d, %d commits) is negative", t, c.Rounds[t], c.Commits[t])
		}
	}
	if err := finiteWeights(c.Weights); err != nil {
		return fmt.Errorf("flcore: checkpoint weights: %w", err)
	}
	if err := ValidateTiers(c.Tiers, numClients); err != nil {
		return fmt.Errorf("flcore: checkpoint tiers: %w", err)
	}
	return nil
}

// RestoreManagerState loads a checkpoint's serialized tiering-Manager state
// into the run's Manager. Manager and checkpoint must agree: resuming a
// managed run unmanaged (or vice versa) silently changes cohort selection
// and re-tiering semantics, so either mismatch is an error.
func RestoreManagerState(mgr TierManager, state []byte) error {
	if len(state) == 0 {
		if mgr != nil {
			return fmt.Errorf("flcore: the run has a Manager but the checkpoint carries no manager state")
		}
		return nil
	}
	ms, ok := mgr.(TierManagerState)
	if !ok {
		return fmt.Errorf("flcore: checkpoint carries tiering-manager state but the run has no Manager that can restore it (have %T)", mgr)
	}
	if err := ms.RestoreState(state); err != nil {
		return fmt.Errorf("flcore: restoring manager state: %w", err)
	}
	return nil
}

// Snapshot captures the engine between commits as a TieredCheckpoint: the
// Committer's shared fields plus what only the simulation has — the clock,
// the eval schedule, the in-flight rounds and the clients' residuals. It
// fails if the configured Manager does not implement TierManagerState.
// It first joins every round still training. Run takes these automatically
// every Cfg.CheckpointEvery commits; the snapshot point is always just
// after a commit's re-dispatch, so Pending holds every live tier's
// in-flight round.
func (e *TieredAsyncEngine) Snapshot() (*TieredCheckpoint, error) {
	e.joinAll()
	c, err := e.com.Snapshot()
	if err != nil {
		return nil, err
	}
	c.SimTime, c.NextEval = e.clock.Now(), e.nextEval
	for _, run := range e.pending {
		selected, lats := run.split()
		c.Pending = append(c.Pending, PendingTierRound{
			Tier: run.Tier, TierRound: run.TierRound, PulledVersion: run.PulledVersion,
			Finish:        run.finish,
			Selected:      selected,
			Weights:       append([]float64(nil), run.Weights...),
			Latency:       run.latency,
			Lats:          lats,
			UplinkBytes:   run.UplinkBytes,
			DownlinkBytes: run.DownlinkBytes,
		})
	}
	// Canonical order: the heap's internal layout is an implementation
	// detail; commit order is fully determined by (finish, tier).
	sort.Slice(c.Pending, func(i, j int) bool {
		if c.Pending[i].Finish != c.Pending[j].Finish {
			return c.Pending[i].Finish < c.Pending[j].Finish
		}
		return c.Pending[i].Tier < c.Pending[j].Tier
	})
	switch src := e.src.(type) {
	case *EagerClients:
		// Resident population: residuals live on the clients themselves.
		for ci, cl := range src.Slice() {
			if cl.residual != nil {
				if c.Residuals == nil {
					c.Residuals = make(map[int][]float64)
				}
				c.Residuals[ci] = append([]float64(nil), cl.residual...)
			}
		}
	case ResidualStore:
		// Lazy population: residuals live in the source's sparse map,
		// keyed by ever-selected clients only.
		c.Residuals = src.ResidualSnapshot()
	default:
		if e.Cfg.Codec != nil {
			return nil, fmt.Errorf("flcore: ClientSource %T carries error-feedback state but implements neither EagerClients nor ResidualStore", e.src)
		}
	}
	return c, nil
}

// Restore loads a TieredCheckpoint into a freshly constructed engine (same
// config, clients, and seed as the checkpointed run) and arms Run to
// continue the interrupted job. Because every random stream is keyed on
// (Seed, tier round, client) and the in-flight rounds come back as their
// already-trained aggregates, the resumed run replays the uninterrupted
// one bit-for-bit — verified by TestTieredCheckpointResumeBitExact.
func (e *TieredAsyncEngine) Restore(c *TieredCheckpoint) error {
	nw := len(e.com.Weights())
	if err := c.Validate(e.Cfg.Seed, nw, e.numClients()); err != nil {
		return err
	}
	if c.SimTime < 0 {
		return fmt.Errorf("flcore: checkpoint simulated clock %v is negative", c.SimTime)
	}
	for i, p := range c.Pending {
		if p.Tier < 0 || p.Tier >= len(c.Tiers) {
			return fmt.Errorf("flcore: pending round %d targets tier %d of %d", i, p.Tier, len(c.Tiers))
		}
		if p.PulledVersion < 0 || p.PulledVersion > c.Version {
			return fmt.Errorf("flcore: pending round %d pulled version %d outside [0, %d]", i, p.PulledVersion, c.Version)
		}
		if len(p.Weights) != nw {
			return fmt.Errorf("flcore: pending round %d has %d weights, model needs %d", i, len(p.Weights), nw)
		}
		if err := finiteWeights(p.Weights); err != nil {
			return fmt.Errorf("flcore: pending round %d weights: %w", i, err)
		}
		if len(p.Lats) != len(p.Selected) {
			return fmt.Errorf("flcore: pending round %d has %d latencies for %d clients", i, len(p.Lats), len(p.Selected))
		}
		for _, ci := range p.Selected {
			if ci < 0 || ci >= e.numClients() {
				return fmt.Errorf("flcore: pending round %d selects client %d of %d", i, ci, e.numClients())
			}
		}
	}
	for ci, r := range c.Residuals {
		if ci < 0 || ci >= e.numClients() {
			return fmt.Errorf("flcore: residual for client %d of %d", ci, e.numClients())
		}
		if len(r) != nw {
			return fmt.Errorf("flcore: client %d residual has %d entries, model needs %d", ci, len(r), nw)
		}
	}
	if err := RestoreManagerState(e.Cfg.Manager, c.ManagerState); err != nil {
		return err
	}
	if err := e.com.Restore(c, false); err != nil {
		return err
	}
	e.eng.global.SetWeightsVector(e.com.Weights())
	e.clock.Reset()
	e.clock.Advance(c.SimTime)
	e.nextEval = c.NextEval
	// Delta-downlink chains do not survive a crash: the resumed aggregator
	// cannot trust any client's held version, so chains and acks reset and
	// every tier's first post-resume broadcast goes dense. In lossless mode
	// the re-adopted base is bit-identical to the chain the crash lost, so
	// the model replays exactly; only the traffic (and therefore simulated
	// comm timing) of the fallback rounds differs from an uninterrupted
	// run. Lossy chains additionally restart their error feedback.
	e.resetDownlink()
	e.pending = e.pending[:0]
	heap.Init(&e.pending)
	for _, p := range c.Pending {
		obs := make([]Observation, len(p.Selected))
		for i, ci := range p.Selected {
			obs[i] = Observation{Client: ci, Seconds: p.Lats[i]}
		}
		heap.Push(&e.pending, &tierRun{
			Commit: Commit{
				Tier: p.Tier, TierRound: p.TierRound, PulledVersion: p.PulledVersion,
				Weights:     append([]float64(nil), p.Weights...),
				UplinkBytes: p.UplinkBytes, DownlinkBytes: p.DownlinkBytes,
				Observed: obs,
			},
			finish: p.Finish, latency: p.Latency,
		})
	}
	switch src := e.src.(type) {
	case *EagerClients:
		for _, cl := range src.Slice() {
			cl.residual = nil
		}
		for ci, r := range c.Residuals {
			src.Slice()[ci].residual = append([]float64(nil), r...)
		}
	case ResidualStore:
		src.RestoreResiduals(c.Residuals)
	default:
		if len(c.Residuals) > 0 {
			return fmt.Errorf("flcore: checkpoint carries %d residuals but ClientSource %T cannot restore them", len(c.Residuals), e.src)
		}
	}
	e.tierTest = nil // membership may differ from construction time
	e.resumed = true
	return nil
}

// copyTiers deep-copies a tier membership table.
func copyTiers(tiers [][]int) [][]int {
	out := make([][]int, len(tiers))
	for i, members := range tiers {
		out[i] = append([]int(nil), members...)
	}
	return out
}

// ValidateTiers checks tier membership structure: non-empty tiers,
// in-range members, no client in two tiers.
func ValidateTiers(tiers [][]int, numClients int) error {
	tierOf := make(map[int]int)
	for t, members := range tiers {
		if len(members) == 0 {
			return fmt.Errorf("tier %d is empty", t)
		}
		for _, ci := range members {
			if ci < 0 || ci >= numClients {
				return fmt.Errorf("tier %d member %d out of range [0,%d)", t, ci, numClients)
			}
			if prev, dup := tierOf[ci]; dup {
				return fmt.Errorf("client %d in tiers %d and %d", ci, prev, t)
			}
			tierOf[ci] = t
		}
	}
	return nil
}

// Encode serializes the checkpoint with gob.
func (c *TieredCheckpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, fmt.Errorf("flcore: encoding tiered checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeTieredCheckpoint parses a buffer produced by Encode, rejecting
// trailing garbage and unknown format versions.
func DecodeTieredCheckpoint(data []byte) (*TieredCheckpoint, error) {
	var c TieredCheckpoint
	r := bytes.NewReader(data)
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("flcore: decoding tiered checkpoint: %w", err)
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("flcore: tiered checkpoint has %d bytes of trailing garbage after decode", r.Len())
	}
	if c.Format != TieredCheckpointFormat {
		return nil, fmt.Errorf("flcore: unknown tiered checkpoint format %d (this build reads format %d)", c.Format, TieredCheckpointFormat)
	}
	return &c, nil
}

// finiteWeights rejects NaN or ±Inf entries — a model restored from such a
// vector trains garbage silently, so corruption must fail loudly at load.
func finiteWeights(w []float64) error {
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("weight %d is %v; refusing non-finite model state", i, v)
		}
	}
	return nil
}

// prevSuffix names the rotated previous snapshot kept beside every
// checkpoint file: SaveFile moves the old snapshot there before the rename,
// and LoadTieredCheckpointFile falls back to it when the primary is
// unreadable.
const prevSuffix = ".prev"

// SaveFile writes the checkpoint to path so that a crash at any instant
// leaves a loadable checkpoint behind: the bytes go to a temp file in the
// same directory (same filesystem, so the rename is atomic), are fsynced,
// the existing snapshot is rotated to path.prev, and only then does the
// temp file take the primary name.
func (c *TieredCheckpoint) SaveFile(path string) error {
	data, err := c.Encode()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("flcore: creating checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) //nolint:errcheck // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close() //nolint:errcheck // write error takes precedence
		return fmt.Errorf("flcore: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //nolint:errcheck // sync error takes precedence
		return fmt.Errorf("flcore: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("flcore: closing checkpoint temp file: %w", err)
	}
	// Keep the last good snapshot around: if the new primary is later found
	// corrupted (torn write, bad disk), loads fall back to it.
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+prevSuffix); err != nil {
			return fmt.Errorf("flcore: rotating previous checkpoint: %w", err)
		}
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("flcore: installing checkpoint: %w", err)
	}
	// Persist the renames themselves; best effort — some filesystems refuse
	// directory fsync.
	if d, err := os.Open(dir); err == nil {
		d.Sync()  //nolint:errcheck // advisory
		d.Close() //nolint:errcheck // read-only handle
	}
	return nil
}

// LoadTieredCheckpointFile reads a checkpoint written by SaveFile, falling
// back to the rotated previous snapshot when the primary is missing or
// fails to decode, so one corrupted write never strands a resume.
func LoadTieredCheckpointFile(path string) (*TieredCheckpoint, error) {
	load := func(p string) (*TieredCheckpoint, error) {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("flcore: reading checkpoint: %w", err)
		}
		return DecodeTieredCheckpoint(data)
	}
	c, err := load(path)
	if err == nil {
		return c, nil
	}
	prev, prevErr := load(path + prevSuffix)
	if prevErr == nil {
		return prev, nil
	}
	return nil, fmt.Errorf("%w (fallback %s%s also failed: %v)", err, path, prevSuffix, prevErr)
}
