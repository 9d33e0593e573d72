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
	"repro/internal/tensor"
)

// Tiered-asynchronous training over real sockets: the port of
// flcore.TieredAsyncEngine (FedAT-style, Chai et al., SC 2021) onto the TCP
// runtime. One aggregator goroutine per tier drives synchronous mini-FedAvg
// rounds over that tier's live worker connections — broadcast the pulled
// global snapshot, collect updates through the fan-in the synchronous
// Aggregator's rounds run too — and every finished tier
// round travels as a TierCommit through a commit channel into a single
// committer goroutine, which owns the flcore.Committer — the one
// implementation of the staleness-discounted, cross-tier-weighted mixing
// the simulated engine and the aggregation tree run too — and answers each
// applied commit with the tier's next pull. Tiers therefore advance at
// their real network and compute speeds: a fast tier commits many rounds
// while a slow tier finishes one, exactly the behaviour the simulated
// engine models with its event queue.
//
// The Committer draws every cohort (flcore.TierCohort, or the live
// Manager) with the same (seed, tier round, tier) keying as the
// simulation, so under identical seeds and tier membership both runtimes
// draw identical cohorts; only the commit interleaving differs (real wall
// clock here, simulated latency there).
//
// Tiering goes live through TieredAsyncConfig.Manager (the
// internal/tiering subsystem): every applied commit's worker-reported
// latencies feed the Manager's EWMA estimates, and at its rebuild points
// the committer swaps the shared membership view — the per-tier loops pick
// the migrated clients up on their next round — and announces each
// migration to the affected worker as a MsgTierReassign envelope.

// TieredAsyncConfig configures a distributed tiered-asynchronous run — the
// flat root's and the tree root's.
type TieredAsyncConfig struct {
	// CommitterConfig is the run's protocol spec, shared with the
	// simulation (flcore.TieredAsyncConfig): a flat or tree run whose
	// commits apply in the sim's order is bit-identical to it. Over
	// sockets Downlink is what each tier loop (and, on the tree, each
	// root→child pull) sends; a Manager is typically an
	// internal/tiering.Manager built from ProfileWorkers measurements (see
	// SetManager), and the tree rejects one. Run refuses an adaptive
	// Manager: nothing here evaluates the per-tier accuracies it needs.
	flcore.CommitterConfig
	// FanInConfig is how each tier loop waits for its cohort. Its
	// RejoinWait doubles as the tier loops' grace window — a tier whose
	// members are all momentarily dead waits this long for a rejoin before
	// declaring itself stopped — and a tree root whose last child died
	// waits this long for a respawn.
	FanInConfig
	// GlobalCommits is the total number of tier-round commits to apply to
	// the global model before finishing — the distributed analogue of the
	// simulated engine's Duration budget.
	GlobalCommits int
	// InitialWeights is the starting global model.
	InitialWeights []float64
	// CheckpointPath is the durable snapshot file written atomically every
	// CheckpointEvery commits; the previous snapshot is kept at
	// CheckpointPath+".prev". Checkpointing needs CheckpointPath,
	// OnCheckpoint or both, and a failed checkpoint write fails the run —
	// crash-safety silently gone is worse than a loud stop.
	CheckpointPath string
	// MetricsAddr, when set (e.g. "127.0.0.1:9090" or ":0"), serves the
	// live observability endpoint: GET /metrics returns a MetricsSnapshot
	// as JSON, GET /healthz returns 200. Empty disables the endpoint.
	MetricsAddr string
	// ReassignCodec is the per-tier compression policy for live
	// re-tierings: when a migration moves a worker to tier t, the policy's
	// spec for t (compress.Parse syntax; "none" = dense, "" = leave the
	// worker's codec unchanged) is compared against the worker's current
	// codec and renegotiated over the MsgTierReassign envelope when they
	// differ. nil disables renegotiation: every worker keeps its handshake
	// codec.
	ReassignCodec func(tier, numTiers int) string
	// SendTimeout bounds every per-worker send with a write deadline; 0 =
	// block forever (the historical behaviour).
	SendTimeout time.Duration
}

func (c TieredAsyncConfig) validate() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if err := c.FanInConfig.validate(); err != nil {
		return err
	}
	switch {
	case c.GlobalCommits <= 0:
		return fmt.Errorf("flnet: GlobalCommits = %d", c.GlobalCommits)
	case len(c.InitialWeights) == 0:
		return fmt.Errorf("flnet: InitialWeights empty")
	case c.CheckpointEvery > 0 && c.CheckpointPath == "" && c.OnCheckpoint == nil:
		return fmt.Errorf("flnet: CheckpointEvery set but neither CheckpointPath nor OnCheckpoint is")
	}
	return nil
}

// FanInConfig is how a tier round's fan-in waits for its cohort, declared
// once for the flat root's tier loops and a tree child's leaf rounds.
type FanInConfig struct {
	// RoundTimeout bounds each mini-round collection window; 0 waits
	// indefinitely.
	RoundTimeout time.Duration
	// MaxRetries bounds per-request redispatches after a cohort member's
	// connection drops mid-round: the fan-in waits up to RejoinWait for
	// the member to re-register (workers running with Reconnect do so
	// automatically) and re-sends the round's request on the fresh
	// connection under the SAME Train.Seq token — the pending waiter moves
	// with it, so whichever connection replies first wins and the other
	// reply finds no waiter: a retried round can never double-count an
	// update. 0 disables redispatch (dead members are skipped).
	MaxRetries int
	// RejoinWait bounds how long a redispatch waits for the dead worker to
	// re-register before giving the member up for the round (default 2s
	// when MaxRetries > 0).
	RejoinWait time.Duration
}

func (c FanInConfig) validate() error {
	switch {
	case c.RoundTimeout < 0:
		return fmt.Errorf("flnet: RoundTimeout = %v", c.RoundTimeout)
	case c.MaxRetries < 0:
		return fmt.Errorf("flnet: MaxRetries = %d", c.MaxRetries)
	case c.RejoinWait < 0:
		return fmt.Errorf("flnet: RejoinWait = %v", c.RejoinWait)
	}
	return nil
}

// newFanIn builds the fan-in over srv that waits per c (already
// validated), with RejoinWait's default filled in.
func newFanIn(srv *server, obs *obsState, c FanInConfig) *fanIn {
	if c.MaxRetries > 0 && c.RejoinWait == 0 {
		c.RejoinWait = 2 * time.Second
	}
	return &fanIn{srv: srv, obs: obs, FanInConfig: c}
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

// TieredAsyncAggregator is the FL server for tiered-asynchronous training:
// the shared listener, registration and profiling, driven by per-tier loops
// and the asynchronous commit protocol.
type TieredAsyncAggregator struct {
	*server
	tcfg TieredAsyncConfig

	// members publishes the Committer's membership view to the other
	// goroutines (tier loops, rejoin hooks, Metrics); replaced, never edited.
	members atomic.Pointer[[][]int]

	fan *fanIn // the shared mini-FedAvg fan-in machinery

	// resume is the checkpoint a Resume call validated for the next Run;
	// resumeModel marks the roster-changed flavour (model and totals only).
	resume      *flcore.TieredCheckpoint
	resumeModel bool

	// commitOrder is the one seam between an arrival-order run and a
	// scripted one: it names the tier whose commit becomes version
	// applied+1. nil — always, outside the parity tests — is arrival order.
	commitOrder func(applied int) int

	obs     *obsState
	metrics *metricsServer
}

// NewTieredAsyncAggregator listens on addr (e.g. "127.0.0.1:0").
func NewTieredAsyncAggregator(addr string, cfg TieredAsyncConfig) (*TieredAsyncAggregator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	srv, err := listen(addr, cfg.SendTimeout, cfg.InitialWeights)
	if err != nil {
		return nil, err
	}
	obs := &obsState{}
	ta := &TieredAsyncAggregator{
		server: srv,
		tcfg:   cfg,
		fan:    newFanIn(srv, obs, cfg.FanInConfig),
		obs:    obs,
	}
	ta.publishTiers(nil)
	if cfg.MetricsAddr != "" {
		if err := ta.startMetrics(cfg.MetricsAddr); err != nil {
			srv.Close()
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

// checkResume is the validation every resume flavour starts with: flcore's
// one checkpoint validation, plus the absolute commit target.
func (ta *TieredAsyncAggregator) checkResume(c *flcore.TieredCheckpoint) error {
	// Worker IDs are whatever the fleet registered with: no upper bound.
	if err := c.Validate(ta.tcfg.Seed, len(ta.tcfg.InitialWeights), math.MaxInt); err != nil {
		return err
	}
	if c.Version >= ta.tcfg.GlobalCommits {
		return fmt.Errorf("flnet: checkpoint at version %d, GlobalCommits = %d: nothing to resume", c.Version, ta.tcfg.GlobalCommits)
	}
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
// checkpointed at version 40 of 100 applies 60 more commits. A tier
// restarts at its checkpointed round cursor — the round it had in flight
// when the snapshot was cut died with its connections, and its index is
// not reused.
func (ta *TieredAsyncAggregator) Resume(c *flcore.TieredCheckpoint) error {
	if err := ta.checkResume(c); err != nil {
		return err
	}
	if missing := ta.unregistered(c.Tiers); len(missing) > 0 {
		return fmt.Errorf("%w: checkpointed workers %v have not re-registered", ErrRosterChanged, missing)
	}
	// Restored here rather than in Run, so Run(nil) reads the checkpointed
	// membership back from the Manager.
	if err := flcore.RestoreManagerState(ta.tcfg.Manager, c.ManagerState); err != nil {
		return err
	}
	ta.resume, ta.resumeModel = c, false
	return nil
}

// unregistered returns, sorted, the members of tiers that never registered.
func (ta *TieredAsyncAggregator) unregistered(tiers [][]int) []int {
	var missing []int
	ta.mu.Lock()
	for _, members := range tiers {
		for _, id := range members {
			if _, ok := ta.workers[id]; !ok {
				missing = append(missing, id)
			}
		}
	}
	ta.mu.Unlock()
	sort.Ints(missing)
	return missing
}

// ResumeModel is the roster-changed resume: it restores only the global
// model, commit counter, and cumulative traffic totals from the
// checkpoint. The caller supplies fresh tiers to Run (typically from a new
// ProfileWorkers pass, with a fresh Manager for live runs) — per-tier
// round cursors and commit histories restart at zero over the new roster,
// while GlobalCommits remains the absolute target.
func (ta *TieredAsyncAggregator) ResumeModel(c *flcore.TieredCheckpoint) error {
	if err := ta.checkResume(c); err != nil {
		return err
	}
	ta.resume, ta.resumeModel = c, true
	return nil
}

// newCommitter builds the run's Committer over tiers and, on a resumed
// run, loads the checkpoint Resume validated into it.
func (ta *TieredAsyncAggregator) newCommitter(tiers [][]int) (*flcore.Committer, error) {
	com := flcore.NewCommitter(ta.tcfg.CommitterConfig, tiers, append([]float64(nil), ta.tcfg.InitialWeights...))
	if ta.resume != nil {
		if err := com.Restore(ta.resume, ta.resumeModel); err != nil {
			return nil, err
		}
	}
	ta.publishTiers(com.Tiers())
	return com, nil
}

// publishTiers swaps the membership view the non-committer goroutines read.
func (ta *TieredAsyncAggregator) publishTiers(tiers [][]int) { ta.members.Store(&tiers) }

// tiers returns the published membership view (empty before the first run).
func (ta *TieredAsyncAggregator) tiers() [][]int { return *ta.members.Load() }

// migrate carries out a re-tiering the Committer just applied at global
// version version: it swaps the published membership view (tier loops pick
// it up next round; in-flight rounds complete under the membership they
// were dispatched with) and announces each migration to the moved worker.
func (ta *TieredAsyncAggregator) migrate(version int, tiers [][]int, moves []flcore.TierMove) {
	ta.publishTiers(tiers)
	for _, mv := range moves {
		w := ta.liveWorker(mv.Client)
		if w == nil {
			continue
		}
		// A migrated worker's delta-downlink ack is void for the rounds
		// pulled from here on: its new tier's chain has a different base,
		// and a stale same-tier ack must not resurface if a later rebuild
		// moves the worker back.
		w.noteMove(version)
		tr := &TierReassign{From: mv.From, To: mv.To, NumTiers: len(tiers)}
		// Per-tier compression policy: renegotiate the migrating worker's
		// codec over the same envelope when the destination tier's policy
		// differs from what the worker currently speaks. The accept window
		// (registered.acceptsCodec) keeps the worker's in-flight old-codec
		// update decodable while the switch propagates.
		if ta.tcfg.ReassignCodec != nil {
			if spec := ta.tcfg.ReassignCodec(mv.To, len(tiers)); spec != "" {
				if next, err := compress.Parse(spec); err == nil && next.ID() != w.codecID() {
					tr.Renegotiate, tr.CodecSpec = true, next.Name()
					w.setCodec(next.ID())
				}
			}
		}
		w.c.send(&Envelope{Type: MsgTierReassign, TierReassign: tr}) //nolint:errcheck // informational, best effort
	}
	ta.obs.noteRetier(len(moves), tierSizes(tiers))
}

// tierSizes returns each tier's member count.
func tierSizes(tiers [][]int) []int {
	counts := make([]int, len(tiers))
	for t, ms := range tiers {
		counts[t] = len(ms)
	}
	return counts
}

// writeCheckpoint persists/announces the Committer's snapshot per the
// config. The network checkpoint is model-plus-cursors only: no in-flight
// tier rounds (they die with the process) and no worker-side compression
// residuals (workers own those and restart residual-fresh).
func (ta *TieredAsyncAggregator) writeCheckpoint(com *flcore.Committer) error {
	c, err := com.Snapshot()
	if err == nil && ta.tcfg.CheckpointPath != "" {
		err = c.SaveFile(ta.tcfg.CheckpointPath)
	}
	if err != nil {
		err = fmt.Errorf("flnet: checkpoint at version %d: %w", com.Version(), err)
	}
	ta.obs.noteCheckpoint(com.Version(), err)
	if err == nil && ta.tcfg.OnCheckpoint != nil {
		ta.tcfg.OnCheckpoint(c)
	}
	return err
}

// waitTierAlive polls for any member of tier t to come back within the
// RejoinWait grace window — a tier whose members all flapped at once gets
// a chance to heal instead of permanently exiting its loop. Zero
// RejoinWait reports failure immediately (the historical behaviour).
func (ta *TieredAsyncAggregator) waitTierAlive(t int, done <-chan struct{}) bool {
	if ta.fan.RejoinWait <= 0 {
		return false
	}
	deadline := time.Now().Add(ta.fan.RejoinWait)
	for time.Now().Before(deadline) {
		select {
		case <-done:
			return false
		case <-time.After(20 * time.Millisecond):
		}
		if ta.anyLive(ta.tiers()[t]) {
			return true
		}
	}
	return false
}

// tierOf returns the tier currently holding the given client ID, or -1.
func (ta *TieredAsyncAggregator) tierOf(id int) int {
	for t, ms := range ta.tiers() {
		for _, m := range ms {
			if m == id {
				return t
			}
		}
	}
	return -1
}

// fanIn is the one place in flnet that sends a MsgTrain and waits for its
// update (gather), shared by everything that trains a cohort: the
// synchronous Aggregator's rounds, the in-process tier loops of
// TieredAsyncAggregator and the per-tier Child aggregator processes of the
// hierarchical tree (tree.go). All get identical dispatch, seq routing,
// disconnect tolerance, and aggregation-order semantics by construction.
type fanIn struct {
	srv *server
	obs *obsState
	FanInConfig
	seq atomic.Int64 // train-request token source (Train.Seq)
	// vecs holds the vectors dense updates decode into: decodeUpdate draws
	// one per update, recycle returns them once the aggregation has read
	// them.
	vecs tensor.Pool
}

// timedUpdate is one collected update plus the exact connection it arrived
// on, so ack recording survives mid-round redispatches (a retried request's
// reply may come from a different *registered instance of the same client
// ID).
type timedUpdate struct {
	flcore.Update
	src    *registered
	pooled bool // Weights came out of fanIn.vecs (dense updates only) and goes back through recycle
}

// trainReq is one outstanding train request of a tier round: the worker
// connection it went to, its Train.Seq token, and the waiter the reply
// echoing that token is routed to. A redispatch (bounded by MaxRetries)
// rebinds the request to the member's fresh connection under the same seq
// token; mu guards the binding.
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

// redispatch waits (bounded by rejoinWait and the collection deadline) for
// a dead cohort member to re-register, then re-sends its round request on
// the fresh connection under the SAME seq token: the pending waiter moves
// to the new connection, so whichever connection delivers first wins and
// the other reply finds no waiter — a retried round cannot double-count.
// It reports whether the request was rebound.
func (f *fanIn) redispatch(rq *trainReq, cr *cohortRound, deadline time.Time) bool {
	if f.MaxRetries <= 0 {
		return false
	}
	rq.mu.Lock()
	if rq.attempts >= f.MaxRetries {
		rq.mu.Unlock()
		return false
	}
	rq.attempts++
	old := rq.w
	rq.mu.Unlock()
	until := time.Now().Add(f.RejoinWait)
	if !deadline.IsZero() && deadline.Before(until) {
		until = deadline
	}
	var nw *registered
	for {
		if w := f.srv.liveWorker(rq.id); w != nil && w != old {
			nw = w
			break
		}
		if !time.Now().Before(until) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	nch := nw.addPending(rq.seq)
	// The dense snapshot (a rejoined connection starts unacked and holds no
	// delta base), version-tagged on downlink runs: the fresh connection
	// adopts it as its base and, once its reply counts, is caught up from
	// there in later rounds.
	tr := &Train{Round: cr.round, Seq: rq.seq, Tier: cr.tier, Version: cr.dlVer, Raw: cr.bc.raw()}
	if err := nw.c.send(&Envelope{Type: MsgTrain, Train: tr}); err != nil {
		nw.dropPending(rq.seq)
		return false
	}
	db := int64(len(tr.Raw))
	cr.extraDown.Add(db)
	f.obs.addDownlink(db, 0)
	f.obs.noteRetry()
	rq.rebind(nw, nch)
	return true
}

// collect gathers the round's updates for the given outstanding requests,
// respecting the round timeout (0 = wait indefinitely): the first target
// decoded replies count, and once they are in the remaining requests stop
// waiting. Replies arrive through their per-request waiters, so a migrated
// worker trained concurrently by its old and new tier can never have its
// updates cross-matched between the two rounds. When retries are
// configured, a request whose connection dies mid-window is redispatched to
// the member's rejoined connection instead of being dropped.
func (f *fanIn) collect(reqs []*trainReq, cr *cohortRound) []timedUpdate {
	type got struct {
		u  timedUpdate
		ok bool
	}
	ch := make(chan got, len(reqs))
	full := make(chan struct{}) // closed when the target is reached
	var deadline time.Time
	if f.RoundTimeout > 0 {
		deadline = time.Now().Add(f.RoundTimeout)
	}
	for _, rq := range reqs {
		go func(rq *trainReq) {
			var timeout <-chan time.Time
			if !deadline.IsZero() {
				timer := time.NewTimer(time.Until(deadline))
				defer timer.Stop()
				timeout = timer.C
			}
			for {
				w, wch := rq.current()
				deliver := func(env *Envelope) {
					u, ok := decodeUpdate(w, env, cr.weights, &f.vecs)
					ch <- got{u: timedUpdate{Update: u, src: w, pooled: env.Type == MsgUpdate}, ok: ok}
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
					if f.redispatch(rq, cr, deadline) {
						continue // wait on the rebound connection
					}
					ch <- got{ok: false}
					return
				case <-timeout:
					if !take() {
						ch <- got{ok: false}
					}
					return
				case <-full: // a straggler: its reply will find the waiter gone
					ch <- got{ok: false}
					return
				}
			}
		}(rq)
	}
	var updates []timedUpdate
	for range reqs {
		g := <-ch
		switch {
		case !g.ok:
		case len(updates) < cr.target:
			if updates = append(updates, g.u); len(updates) == cr.target {
				close(full)
			}
		default:
			// Decoded in the instant the target was reached: a straggler too.
			f.recycle(g.u)
		}
	}
	return updates
}

// tierRoundStatus is the outcome of one attempted round.
type tierRoundStatus int

const (
	roundCommitted tierRoundStatus = iota // updates collected (runRound: aggregated into a commit)
	roundNoCohort                         // whole cohort unreachable; redraw next round
	roundEmpty                            // cohort reached but no updates before the windows closed
	roundAbort                            // the tier cannot continue
)

// cohortRound is one round through the fan-in: what gather is asked, the
// round's in-flight state, and what gather hands back.
type cohortRound struct {
	// The request, set by the caller. target is how many decoded replies
	// count: len(cohort) for a tier round, ClientsPerRound for a synchronous
	// round over an over-selected cohort, whose later replies are discarded
	// stragglers. secure announces the reached cohort and maskScale to every
	// member (Train.Participants/MaskScale, see secure.go). dl is the tier's
	// delta-broadcast chain, owned by the tier's one driver (no locking);
	// nil broadcasts dense. Its state numbers are the Train.Version values:
	// per tier and per broadcast rather than the global model version,
	// because a round that ends without a commit is redrawn from the same
	// global version.
	tier, round int // tier keys the delta acks
	version     int // the global version the round was pulled at, which orders acks against migrations
	cohort      []int
	target      int
	weights     []float64 // on a downlink round gather swaps in the chain's post-encode base
	dl          *compress.Chain
	secure      bool
	maskScale   float64
	done        <-chan struct{} // closed when the run ends; nil never aborts

	// In flight: what a mid-round redispatch re-sends, and the broadcast
	// bytes redispatches add.
	start     time.Time
	bc        *broadcast
	dlVer     int // the round's chain state (0 = untracked)
	extraDown atomic.Int64

	// The result. updates are the replies that count, in cohort order
	// (plain: without the arrival bookkeeping); their pooled vectors go back
	// through fanIn.recycle. live are the members whose connections were up
	// at dispatch — a secure round's announced participants. upBytes and
	// downBytes are the round's encoded traffic, seconds its wall clock.
	updates            []timedUpdate
	plain              []flcore.Update
	live               []int
	upBytes, downBytes int64
	seconds            float64
}

// recycle returns the updates' pooled vectors once nothing reads them.
func (f *fanIn) recycle(updates ...timedUpdate) {
	for _, u := range updates {
		if u.pooled {
			f.vecs.Put(u.Weights)
		}
	}
}

// gather is the dispatch-and-collect half of every round: send the live
// cohort the round's weights (one shared blob, or the catch-up from a
// member's acked state where the tier's chain still holds it), collect the
// matched replies — with extra
// collection windows for all-slow cohorts: a cohort slower than one timeout
// window still delivers instead of being perpetually one round behind; a
// single member persistently slower than its cohort is still dropped each
// round, and live re-tiering is the mitigation: its EWMA drifts up until a
// rebuild moves it to a slower tier — and leave the counted ones in cr, in
// cohort order, with the round's exact byte counts.
func (f *fanIn) gather(cr *cohortRound) tierRoundStatus {
	const maxCollects = 3
	var conns []*registered
	for _, id := range cr.cohort {
		if w := f.srv.liveWorker(id); w != nil {
			conns = append(conns, w) // dead cohort members: train the rest
			cr.live = append(cr.live, id)
		}
	}
	if len(conns) == 0 {
		return roundNoCohort
	}
	// Delta broadcast: the chain advances exactly once per round — the
	// payload is encoded against the chain's base and joins its ring, whose
	// slices every catch-up shares (the O(1)-per-round encode) — and the
	// round then proceeds from the chain's post-encode base, so with a lossy
	// codec training, uplink reconstruction, and every dense fallback all
	// see the weights the delta recipients reconstruct, not the pre-loss
	// snapshot.
	var dlCodec byte
	if dl := cr.dl; dl != nil {
		if dl.HasBase() {
			_, dlCodec = dl.Encode(cr.weights)
		} else {
			dl.Adopt(cr.weights)
		}
		cr.dlVer = dl.Version()
		// The chain's own base, read-only: nothing advances the chain again
		// before this round's last reader (collect) has returned.
		cr.weights = dl.Base()
	}
	cr.start = time.Now()
	var reqs []*trainReq
	defer func() {
		for _, rq := range reqs {
			// Drop on whichever connection currently holds the waiter — a
			// redispatch may have moved it off the original one.
			w, _ := rq.current()
			w.dropPending(rq.seq)
		}
	}()
	cr.bc = newBroadcast(cr.weights)
	// Every send of the round — redispatches run inside collect — has
	// returned by the time gather does.
	defer cr.bc.release()
	for _, w := range conns {
		rq := &trainReq{id: w.id, w: w, seq: f.seq.Add(1)}
		rq.ch = w.addPending(rq.seq)
		tr := &Train{Round: cr.round, Seq: rq.seq, Tier: cr.tier, Version: cr.dlVer}
		if cr.secure {
			tr.Participants, tr.MaskScale = cr.live, cr.maskScale
		}
		var n int // the blob's length: what the wire carries and the round bills
		if cr.dl != nil {
			from := w.takeAck(cr.tier, cr.version)
			if tr.Delta, n = cr.dl.CatchUp(from); tr.Delta != nil {
				tr.DeltaBase, tr.DeltaCodec = from, dlCodec
			}
		}
		if tr.Delta == nil {
			tr.Raw = cr.bc.raw()
			n = len(tr.Raw)
		}
		if err := w.c.send(&Envelope{Type: MsgTrain, Train: tr}); err != nil {
			w.dropPending(rq.seq)
			continue
		}
		db := int64(n)
		f.obs.addDownlink(db, len(tr.Delta))
		cr.downBytes += db
		reqs = append(reqs, rq)
	}
	if len(reqs) == 0 {
		return roundNoCohort
	}
	cr.updates = f.collect(reqs, cr)
	for retry := 0; len(cr.updates) == 0 && retry < maxCollects-1; retry++ {
		select {
		case <-cr.done:
			return roundAbort
		default:
		}
		cr.updates = f.collect(reqs, cr)
	}
	cr.downBytes += cr.extraDown.Load()
	if len(cr.updates) == 0 {
		return roundEmpty
	}
	// Deterministic aggregation order: replies arrive in wall-clock order,
	// FedAvg's float sums are order-sensitive, and the simulated engines
	// aggregate in cohort order — reorder to match.
	pos := make(map[int]int, len(cr.cohort))
	for i, id := range cr.cohort {
		pos[id] = i
	}
	sort.Slice(cr.updates, func(i, j int) bool { return pos[cr.updates[i].ClientID] < pos[cr.updates[j].ClientID] })
	cr.seconds = time.Since(cr.start).Seconds()
	cr.plain = make([]flcore.Update, len(cr.updates))
	for i, u := range cr.updates {
		cr.plain[i] = u.Update
		cr.upBytes += int64(u.WireBytes)
		// A counted reply proves the worker received and adopted this
		// round's versioned base — record the ack that makes it
		// catch-up-eligible in later rounds. The ack lands on the exact
		// connection the reply came from (u.src), so a redispatched request
		// acks the rejoined connection, never the dead one. A worker whose
		// reply was not counted spent its ack on the send and falls back to
		// dense, which is always safe.
		if cr.dlVer != 0 {
			u.src.setAck(cr.tier, cr.dlVer, cr.version)
		}
	}
	return roundCommitted
}

// runRound executes one mini-round of tier t: gather the cohort's replies
// and return their FedAvg as a TierCommit, in-process or over the wire.
func (f *fanIn) runRound(t, r int, cohort []int, version int, weights []float64, dl *compress.Chain, done <-chan struct{}) (*TierCommit, tierRoundStatus) {
	cr := &cohortRound{tier: t, round: r, version: version, cohort: cohort, target: len(cohort), weights: weights, dl: dl, done: done}
	if status := f.gather(cr); status != roundCommitted {
		return nil, status
	}
	obs := make([]ClientSeconds, len(cr.updates))
	for i, u := range cr.updates {
		secs := u.Latency // worker-reported training seconds
		if secs <= 0 {
			secs = cr.seconds // peer-supplied, so guarded: the round's wall clock instead
		}
		obs[i] = ClientSeconds{Client: u.ClientID, Seconds: secs}
	}
	avg := flcore.FedAvg(cr.plain)
	f.recycle(cr.updates...)
	return &TierCommit{
		Tier: t, TierRound: r, PulledVersion: version,
		Weights: avg, Clients: len(cr.updates),
		Seconds: cr.seconds, UplinkBytes: cr.upBytes, DownlinkBytes: cr.downBytes,
		Observed: obs,
	}, roundCommitted
}

// tierEvent is what a tier's driver — a flat tier loop, a tree child's
// pump — reports to the committer goroutine.
type tierEvent struct {
	tier int
	// commit is a finished round. nil (with gone unset) means the round
	// ended without one — dead cohort, empty collection windows — and the
	// tier asks for its redraw.
	commit *TierCommit
	// gone is the driver's last event: its tier loop gave up, its child's
	// connection died.
	gone bool
}

// topology is what Run and RunTree each plug into drive, the committer
// loop they share: how tier events arrive and how a pull reaches a tier.
type topology struct {
	events chan tierEvent // unbuffered: a received event is an accounted one
	done   chan struct{}  // closed by drive when the run ends
	wg     sync.WaitGroup // the tier drivers drive waits for
	// dispatch hands tier its next pull, on the committer goroutine;
	// p.Weights aliases the live model. It never blocks on the tier, which
	// has at most one request outstanding.
	dispatch func(tier int, p flcore.TierPull)
	// Tree only: re-registrations arrive on rejoin, revive reports whether
	// one brought its tier's driver back, and grace is how long a run whose
	// every driver is gone waits for that before failing.
	rejoin chan *registered
	revive func(w *registered) bool
	grace  time.Duration
}

// post delivers ev to the committer, or reports false once the run is over.
func (tp *topology) post(ev tierEvent) bool {
	select {
	case tp.events <- ev:
		return true
	case <-tp.done:
		return false
	}
}

// tierLoop drives tier t's synchronous mini-FedAvg rounds until the global
// committer signals done or the tier can no longer make progress (its last
// live worker is gone, or maxEmptyRounds consecutive rounds produced no
// update). Every round starts from a pull the committer took after the
// tier's previous event was handled — version, weights, round index AND
// the pre-drawn cohort — so it trains from exactly the state the simulated
// engine's dispatch would see, and re-tierings take effect at the tier's
// next pull.
func (ta *TieredAsyncAggregator) tierLoop(t int, pulls <-chan flcore.TierPull, dl *compress.Chain, tp *topology) {
	// A tier that times out this many rounds in a row (each with several
	// collection windows) stops participating; when every tier stops, Run
	// reports the failure instead of hanging.
	const maxEmptyRounds = 3
	for empty := 0; ; {
		var p flcore.TierPull
		select {
		case p = <-pulls:
		case <-tp.done:
			return
		}
		// Every member's connection is down: with a rejoin grace window
		// configured, wait for reconnecting workers before giving the tier
		// up for the rest of the run.
		if len(p.Cohort) == 0 || (!ta.anyLive(ta.tiers()[t]) && !ta.waitTierAlive(t, tp.done)) {
			return
		}
		tc, status := ta.fan.runRound(t, p.Round, p.Cohort, p.Version, p.Weights, dl, tp.done)
		switch status {
		case roundCommitted:
			empty = 0
		case roundNoCohort:
			// Whole cohort dead while the tier still has live members
			// elsewhere: the redraw is a different cohort. Back off briefly
			// so the redraw loop cannot burn a core while dead flags
			// propagate.
			time.Sleep(10 * time.Millisecond)
		case roundEmpty:
			if empty++; empty >= maxEmptyRounds {
				return
			}
		case roundAbort:
			return
		}
		// A commit, or (tc nil) the request for the round's redraw: either
		// way the committer answers with the next pull.
		if !tp.post(tierEvent{tier: t, commit: tc}) {
			return
		}
	}
}

// Run partitions the registered workers into the given tiers (member worker
// IDs per tier, fastest first — core.TierMembers form; nil uses the live
// Manager's membership), announces the placement to each worker, and drives
// tiered-asynchronous training until GlobalCommits commits have been
// applied. An adaptive Manager is refused. Workers that disconnect — even
// between profiling and Run — are tolerated round to round; Run fails if
// every tier stops making progress (all workers lost, or rounds repeatedly
// timing out empty) before the commit target is reached, or on the first
// malformed commit (wrong weight length, invalid TierWeight) — a
// configuration error no later commit can heal.
func (ta *TieredAsyncAggregator) Run(tiers [][]int) (*TieredAsyncRunResult, error) {
	if tiers == nil && ta.tcfg.Manager != nil {
		tiers = ta.tcfg.Manager.Tiers()
	}
	if tiers == nil && ta.resume != nil && !ta.resumeModel {
		tiers = ta.resume.Tiers
	}
	if len(tiers) == 0 {
		return nil, fmt.Errorf("flnet: tiered-async needs at least one tier")
	}
	// Validated again: SetManager may have installed a Manager since.
	if err := ta.tcfg.Validate(); err != nil {
		return nil, err
	}
	if ta.tcfg.Manager != nil && ta.tcfg.Manager.Adaptive() {
		return nil, fmt.Errorf("flnet: an adaptive Manager needs per-tier accuracies, which no socket run evaluates")
	}
	// Worker IDs are whatever the fleet registered with: no upper bound.
	if err := flcore.ValidateTiers(tiers, math.MaxInt); err != nil {
		return nil, fmt.Errorf("flnet: %w", err)
	}
	// A member must have registered at some point; one that has since
	// dropped is tolerated like any mid-run disconnect.
	if missing := ta.unregistered(tiers); len(missing) > 0 {
		return nil, fmt.Errorf("flnet: tier members %v never registered", missing)
	}
	com, err := ta.newCommitter(tiers)
	if err != nil {
		return nil, err
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

	tp := &topology{events: make(chan tierEvent), done: make(chan struct{})}
	pulls := make([]chan flcore.TierPull, len(tiers))
	tp.dispatch = func(t int, p flcore.TierPull) {
		// The tier trains from the pull while later commits mix into the
		// live vector. Buffered 1 and answered one request at a time, the
		// channel never blocks the committer.
		p.Weights = append([]float64(nil), p.Weights...)
		pulls[t] <- p
	}
	// Self-healing: keep accepting registrations while the run is in
	// flight, and greet every rejoining worker with the tier the run
	// still holds for it — its tier loop then reaches it through
	// liveWorker on the next dispatch (or a pending redispatch).
	go ta.acceptLoop(tp.done)
	ta.setRejoinHook(func(w *registered) {
		if w.role != RoleWorker {
			w.c.close() //nolint:errcheck // tree children rejoin via RunTree only
			return
		}
		ta.obs.noteReconnect(w.id)
		if t := ta.tierOf(w.id); t >= 0 {
			w.c.send(&Envelope{Type: MsgTierAssign, TierAssign: &TierAssign{Tier: t, NumTiers: len(ta.tiers())}}) //nolint:errcheck // informational, best effort
		}
	})
	for t := range tiers {
		// The tier's delta-broadcast chain (nil without a Downlink), fresh
		// every Run — on a resumed run the workers' held bases did not
		// survive the crash any more than the chains did, so every tier
		// re-enters through the dense first-contact path.
		dl := ta.tcfg.Downlink.NewChain()
		pulls[t] = make(chan flcore.TierPull, 1)
		tp.dispatch(t, com.Pull(t))
		tp.wg.Add(1)
		go func() {
			defer tp.wg.Done()
			ta.tierLoop(t, pulls[t], dl, tp)
			tp.post(tierEvent{tier: t, gone: true})
		}()
	}
	return ta.drive(com, tp)
}

// drive is the committer goroutine of both topologies, the single owner of
// the run's flcore.Committer. It applies commits in arrival order (or the
// order the commitOrder seam scripts, buffering early arrivals), accounts
// them, carries out re-tierings, checkpoints on the Committer's cadence,
// and answers every applied commit — and every redraw request — with the
// tier's next pull: the dispatch-at-commit that makes each round train from
// a model holding the tier's own last commit. A resumed run continues the
// checkpoint's cumulative counters, version and round cursors.
func (ta *TieredAsyncAggregator) drive(com *flcore.Committer, tp *topology) (*TieredAsyncRunResult, error) {
	res := &TieredAsyncRunResult{}
	tot := com.Totals()
	ta.obs.noteRunStart(ta.tcfg.GlobalCommits, com.Version(), tot.Commits, tot.Retiers, tot.Migrations, tot.UplinkBytes, tierSizes(com.Tiers()))
	// Done goes out before waiting on the tier drivers: workers finishing
	// an in-flight round send their update, read Done, and close their
	// connections, which unblocks any loop still collecting — so the final
	// wait is bounded even when RoundTimeout is generous. Closing done also
	// stops the mid-run accept loop.
	finish := func(err error) (*TieredAsyncRunResult, error) {
		ta.setRejoinHook(nil)
		close(tp.done)
		ta.FinishWorkers(com.Version()) // in a tree the registered "workers" are the children
		tp.wg.Wait()
		tot := com.Totals()
		res.Weights, res.Commits = com.Weights(), tot.Commits
		res.Retiers, res.Reassigned = tot.Retiers, tot.Migrations
		res.UplinkBytes, res.DownlinkBytes = tot.UplinkBytes, tot.DownlinkBytes
		ta.obs.noteRunEnd()
		return res, err
	}

	// The receive step. gone counts each tier's driver exits net of
	// revivals (a revival can overtake the exit it replaces); queue holds
	// commits that arrived ahead of their turn.
	gone := make([]int, len(com.Tiers()))
	alive := len(gone)
	var queue []*TierCommit
	var graceC <-chan time.Time
	next := func() (*TierCommit, error) {
		for {
			want := -1 // any tier: arrival order
			if ta.commitOrder != nil {
				want = ta.commitOrder(com.Version())
			}
			for i, tc := range queue {
				if want < 0 || tc.Tier == want {
					queue = append(queue[:i], queue[i+1:]...)
					return tc, nil
				}
			}
			switch {
			case want >= len(gone) || want >= 0 && gone[want] > 0:
				// A received event is an accounted one, so an empty queue
				// after the tier's exit means its commit is never coming.
				return nil, fmt.Errorf("flnet: scripted commit order stalled: tier %d cannot deliver commit %d of %d", want, com.Version()+1, ta.tcfg.GlobalCommits)
			case alive == 0 && graceC == nil:
				// Hold the run open one grace window (none: fail at once) in
				// case a respawned child is mid-reconnect.
				graceC = time.After(tp.grace)
			}
			select {
			case ev := <-tp.events:
				switch {
				case ev.gone:
					gone[ev.tier]++
					alive--
				case ev.commit == nil:
					tp.dispatch(ev.tier, com.Pull(ev.tier))
				case ev.commit.Tier != ev.tier:
					return nil, fmt.Errorf("flnet: tier %d delivered a commit labeled tier %d", ev.tier, ev.commit.Tier)
				default:
					queue = append(queue, ev.commit)
				}
			case w := <-tp.rejoin:
				if tp.revive(w) {
					gone[w.id]--
					alive++
					graceC = nil
				}
			case <-graceC:
				return nil, fmt.Errorf("flnet: every tier stopped making progress after %d of %d commits", com.Version(), ta.tcfg.GlobalCommits)
			}
		}
	}

	for com.Version() < ta.tcfg.GlobalCommits {
		tc, err := next()
		if err != nil {
			return finish(err)
		}
		rec, moves, err := com.Apply(flcore.Commit{
			Tier: tc.Tier, TierRound: tc.TierRound, PulledVersion: tc.PulledVersion,
			Weights: tc.Weights, UplinkBytes: tc.UplinkBytes, DownlinkBytes: tc.DownlinkBytes,
			Observed: tc.Observed,
		})
		if err != nil {
			return finish(err)
		}
		stats := TierCommitStats{
			Tier: rec.Tier, TierRound: rec.TierRound, Version: rec.Version,
			Staleness: rec.Staleness, Weight: rec.Weight, Clients: tc.Clients,
			Seconds: tc.Seconds, UplinkBytes: rec.UplinkBytes,
			DownlinkBytes: rec.DownlinkBytes,
		}
		res.Log = append(res.Log, stats)
		ta.obs.noteCommit(stats)
		ta.obs.noteChildCommit(stats.Tier, stats.UplinkBytes, stats.DownlinkBytes) // no-op without children
		if len(moves) > 0 {
			ta.migrate(rec.Version, com.Tiers(), moves)
		}
		// The committing tier's next pull: the post-commit model and its
		// next round's cohort, both taken after any re-tiering at this
		// version. The snapshot follows, so it counts the round as handed
		// out, exactly as the simulated engine's does.
		tp.dispatch(tc.Tier, com.Pull(tc.Tier))
		if com.CheckpointDue() {
			// A failed checkpoint write fails the run.
			if err := ta.writeCheckpoint(com); err != nil {
				return finish(err)
			}
		}
	}
	return finish(nil)
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
