package flnet

import (
	"cmp"
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
// runtime. One goroutine per tier runs the tier's rounds over its live
// worker connections — flcore.RunTierRound through the fan-in — and every
// finished round travels as a TierCommit into a single committer goroutine
// (drive), which owns the run's flcore.Committer and answers each applied
// commit with the tier's next pull. Tiers advance at their real network and
// compute speeds, as the simulated engine's event queue models; cohorts are
// drawn by the Committer with the simulation's keying, so only the commit
// interleaving differs. A live Manager (TieredAsyncConfig.Manager) is fed
// every commit's worker-reported latencies, and each re-tiering it answers
// with is announced to the moved workers as MsgTierReassign.

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
	// OnCheckpoint or both, a CheckpointPath needs a positive
	// CheckpointEvery, and a failed checkpoint write fails the run —
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
	case c.CheckpointPath != "" && c.CheckpointEvery == 0:
		return fmt.Errorf("flnet: CheckpointPath set but CheckpointEvery is 0, so it would never be written")
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

// TierCommitStats records one applied commit, in commit order: the
// Committer's flcore.TierRoundRecord (its sim-only Selected, Latency and
// SimTime stay zero) plus how many cohort members' updates made the tier
// aggregate (fewer than the cohort under disconnects or the round timeout)
// and the tier round's wall-clock seconds.
type TierCommitStats struct {
	flcore.TierRoundRecord
	Clients int
	Seconds float64
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
	// ack-versioned scheme allowed them, dense snapshots otherwise.
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

// publishTiers swaps the membership view the non-committer goroutines read,
// and wakes a tier waiting for a live member (waitTierAlive).
func (ta *TieredAsyncAggregator) publishTiers(tiers [][]int) {
	ta.members.Store(&tiers)
	ta.signal()
}

// tiers returns the published membership view (empty before the first run).
func (ta *TieredAsyncAggregator) tiers() [][]int { return *ta.members.Load() }

// migrate carries out a re-tiering the Committer just applied at global
// version version: it swaps the published membership view (tier loops pick
// it up next round; in-flight rounds complete under the membership they
// were dispatched with) and announces each migration to the moved worker.
func (ta *TieredAsyncAggregator) migrate(version int, tiers [][]int, moves []flcore.TierMove) {
	ta.publishTiers(tiers)
	for _, mv := range moves {
		// Its acks are void for rounds pulled from here on, even should a
		// later rebuild move it back.
		ta.acks.Move(mv.Client, version)
		w := ta.liveWorker(mv.Client)
		if w == nil {
			continue
		}
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

// waitTierAlive waits for any member of tier t to come back within the
// RejoinWait grace window — a tier whose members all flapped at once gets
// a chance to heal instead of permanently exiting its loop. It re-checks at
// each registration and membership change. Zero RejoinWait reports failure
// immediately (the historical behaviour).
func (ta *TieredAsyncAggregator) waitTierAlive(t int, done <-chan struct{}) bool {
	if ta.fan.RejoinWait <= 0 {
		return false
	}
	return ta.await(func() bool { return ta.anyLive(ta.tiers()[t]) }, time.Now().Add(ta.fan.RejoinWait), done)
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
// update (exchange): every round — the synchronous Aggregator's, a flat
// root's tier round, a tree child's — shares its dispatch, seq routing and
// disconnect tolerance.
type fanIn struct {
	srv *server
	obs *obsState
	FanInConfig
	seq atomic.Int64 // train-request token source (Train.Seq)
}

// timedUpdate is one collected update, the position of the request it
// answers, and the exact connection it arrived on — a redispatched
// request's reply comes from a different registration of the same member.
type timedUpdate struct {
	flcore.Update
	idx  int
	src  *registered
	blob *[]byte // the buffer Weights or Encoded lives in (decodeUpdate); recycle returns it
}

// trainReq is one outstanding train request: its position in the round,
// the member, its Train.Seq token, and the connection and waiter it is
// bound to — a redispatch rebinds them to the member's fresh connection
// under the same token; mu guards the binding.
type trainReq struct {
	idx, id int
	seq     int64

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

// cohortRound is one round through the fan-in — its request and in-flight
// state — and the round's flcore.Trainer: Reach finds a member's live
// connection and registration, Train sends the bills and collects. target
// is how many decoded replies count: ClientsPerRound of a synchronous
// cohort, which over-selection makes larger; 0 counts every bill's.
type cohortRound struct {
	flcore.RoundRequest
	f      *fanIn
	target int
	done   <-chan struct{} // closed when the run ends; nil never aborts
	conns  []*registered   // the reached connections, in request order

	// In flight: the broadcast bytes redispatches add. The result: the
	// counted replies, in arrival order, and the round's wall clock.
	extraDown atomic.Int64
	updates   []timedUpdate
	seconds   float64
}

// redispatch waits (bounded by RejoinWait, the collection deadline and the
// run's end) for a dead cohort member to re-register, then re-sends its
// round request on the fresh connection under the SAME seq token: the
// pending waiter moves to the new connection, so whichever connection
// delivers first wins and the other reply finds no waiter — a retried
// round cannot double-count.
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
	if !f.srv.await(func() bool {
		nw = f.srv.liveWorker(rq.id)
		return nw != nil && nw != old
	}, until, cr.done) {
		return false
	}
	nch := nw.addPending(rq.seq)
	// Dense (a rejoined connection holds no base) but version-tagged: the
	// connection adopts it, and a counted reply acks it.
	tr := &Train{Round: cr.Round, Seq: rq.seq, Tier: cr.Tier, Version: cr.ChainVersion, weights: cr.Base}
	if err := nw.c.send(&Envelope{Type: MsgTrain, Train: tr}); err != nil {
		nw.dropPending(rq.seq)
		return false
	}
	db := int64(compress.DenseBytes(len(cr.Base)))
	cr.extraDown.Add(db)
	f.obs.addDownlink(db, 0)
	f.obs.noteRetry()
	rq.rebind(nw, nch)
	return true
}

// collect gathers the round's updates for the outstanding requests within
// the round timeout (0 = wait indefinitely): the first target decoded
// replies count, then the rest stop waiting. Each reply reaches its own
// request's waiter, so a worker trained by its old and new tier at once
// cannot have its updates cross-matched, and an update naming another
// client than its connection's is dropped. With retries configured, a
// request whose connection dies is redispatched to the rejoined one.
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
					tu, ok := decodeUpdate(w, env, cr.Base)
					tu.idx = rq.idx
					if ok && tu.ClientID != w.id {
						recycle(tu)
						ok = false
					}
					ch <- got{u: tu, ok: ok}
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
			recycle(g.u)
		}
	}
	return updates
}

// recycle returns the buffers the updates' Weights or Encoded live in once
// nothing reads them.
func recycle(updates ...timedUpdate) {
	for _, u := range updates {
		putBlob(u.blob)
	}
}

// exchange sends each reached connection the round's request — its bill's
// catch-up where it has one, else the round's base, written to the socket
// from the vector itself, which nothing writes while the round is in
// flight (a snapshot, a chain's base, the synchronous model) — and
// collects the matched replies into cr.updates, granting an all-slow cohort
// extra collection windows (a member persistently slower than its cohort is
// still dropped each round; live re-tiering moves it to a slower tier). It
// returns the downlink bytes sent, redispatches included.
func (f *fanIn) exchange(cr *cohortRound) (int64, flcore.RoundStatus) {
	const maxCollects = 3
	start := time.Now()
	var reqs []*trainReq
	defer func() {
		for _, rq := range reqs {
			// Drop on whichever connection currently holds the waiter — a
			// redispatch may have moved it off the original one.
			w, _ := rq.current()
			w.dropPending(rq.seq)
		}
	}()
	var down int64
	for i, w := range cr.conns {
		rq := &trainReq{idx: i, id: w.id, w: w, seq: f.seq.Add(1)}
		rq.ch = w.addPending(rq.seq)
		b := cr.Bills[i] // b.Bytes is the blob's length: what the wire carries
		tr := &Train{Round: cr.Round, Seq: rq.seq, Tier: cr.Tier, Version: cr.ChainVersion, weights: cr.Base}
		if b.Delta != nil {
			tr.Delta, tr.DeltaBase, tr.DeltaCodec, tr.weights = b.Delta, b.From, cr.DeltaCodec, nil
		}
		if err := w.c.send(&Envelope{Type: MsgTrain, Train: tr}); err != nil {
			w.dropPending(rq.seq)
			continue
		}
		f.obs.addDownlink(int64(b.Bytes), len(tr.Delta))
		down += int64(b.Bytes)
		reqs = append(reqs, rq)
	}
	if len(reqs) == 0 {
		return down, flcore.RoundNoCohort
	}
	cr.updates = f.collect(reqs, cr)
	for retry := 0; len(cr.updates) == 0 && retry < maxCollects-1; retry++ {
		select {
		case <-cr.done:
			return down, flcore.RoundAbort
		default:
		}
		cr.updates = f.collect(reqs, cr)
	}
	down += cr.extraDown.Load()
	cr.seconds = time.Since(start).Seconds()
	if len(cr.updates) == 0 {
		return down, flcore.RoundEmpty
	}
	return down, flcore.RoundCommitted
}

func (cr *cohortRound) Reach(_, _, member int) (int, bool) {
	w := cr.f.srv.liveWorker(member)
	if w == nil {
		return 0, false
	}
	cr.conns = append(cr.conns, w)
	return w.reg, true
}

func (cr *cohortRound) Train(req *flcore.RoundRequest) ([]flcore.Reply, int64, flcore.RoundStatus) {
	cr.RoundRequest, cr.target = *req, cmp.Or(cr.target, len(req.Bills))
	down, status := cr.f.exchange(cr)
	replies := make([]flcore.Reply, len(cr.updates))
	for i, u := range cr.updates {
		if u.Latency <= 0 {
			u.Latency = cr.seconds // peer-supplied, so guarded: the round's wall clock instead
		}
		replies[i] = flcore.Reply{Update: u.Update, Bill: u.idx, Reg: u.src.reg}
	}
	return replies, down, status
}

// tierRound is flcore.RunTierRound over a cohortRound counting target
// replies (0: all) and the server's ack ledger, filling tc — the tier's one
// commit, whose vectors every round reuses — with the round's commit; any
// status but RoundCommitted leaves tc unspecified.
func (f *fanIn) tierRound(p flcore.TierPull, dl *compress.Chain, done <-chan struct{}, target int, tc *TierCommit) flcore.RoundStatus {
	cr := &cohortRound{f: f, done: done, target: target}
	status := flcore.RunTierRound(p, dl, &f.srv.acks, cr, &tc.Commit)
	recycle(cr.updates...)
	tc.Clients, tc.Seconds = len(cr.updates), cr.seconds
	return status
}

// tierEvent is what a tier's driver — a flat tier loop, a tree child's
// pump — reports to the committer goroutine.
type tierEvent struct {
	tier int
	// commit is a finished round. nil (with gone unset) means the round
	// ended without one — dead cohort, empty collection windows — and the
	// tier asks for its redraw.
	commit *TierCommit
	// blob is the receive buffer behind a tree child's commit, recycled
	// once the committer has applied or refused it; nil for a flat tier's.
	blob *[]byte
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
	// every driver is gone waits for that before failing. evict closes the
	// connection of a child whose commit Apply refused, so its tier
	// degrades as after a crash. The flat root builds its own commits: nil,
	// and such a commit fails the run.
	rejoin chan *registered
	revive func(w *registered) bool
	grace  time.Duration
	evict  func(tier int)
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

// tierLoop runs tier t's rounds until the run ends or the tier gives up
// (its last live worker gone, or giveUp). Every round starts from a pull
// the committer took after the tier's previous event — version, weights,
// round index and cohort — so it trains from exactly the state the sim's
// dispatch sees, and re-tierings take effect at the tier's next pull.
func (ta *TieredAsyncAggregator) tierLoop(t int, pulls <-chan flcore.TierPull, dl *compress.Chain, tp *topology) {
	// The tier's one commit: its next round refills it only after the
	// committer has applied it and answered with a pull.
	tc := &TierCommit{}
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
		status := ta.fan.tierRound(p, dl, tp.done, 0, tc)
		if giveUp(status, &empty) {
			return
		}
		// A commit, or (nil) the request for the round's redraw: either way
		// the committer answers with the next pull.
		ev := tierEvent{tier: t}
		if status == flcore.RoundCommitted {
			ev.commit = tc
		}
		if !tp.post(ev) {
			return
		}
	}
}

// giveUp is the retry policy a flat tier loop and a tree child share, applied
// to how a tier's round ended: a dead cohort is redrawn after a brief
// back-off (so the redraw loop cannot burn a core while dead flags
// propagate), and the tier gives up when the run ends or after
// maxEmptyRounds consecutive rounds, each with several collection windows,
// counted no update — when every tier has, the run fails instead of
// hanging. empty carries the consecutive count.
func giveUp(status flcore.RoundStatus, empty *int) bool {
	const maxEmptyRounds = 3
	switch status {
	case flcore.RoundCommitted:
		*empty = 0
	case flcore.RoundNoCohort:
		time.Sleep(10 * time.Millisecond)
	case flcore.RoundEmpty:
		*empty++
		return *empty >= maxEmptyRounds
	}
	return status == flcore.RoundAbort
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
	snaps := make([][]float64, len(tiers))
	tp.dispatch = func(t int, p flcore.TierPull) {
		// The tier trains from a snapshot while later commits mix into the
		// live vector: one per tier, overwritten at each pull, because a
		// tier asks for its next pull only once its round — every send
		// included — has ended. Buffered 1 and answered one request at a
		// time, the channel never blocks the committer.
		snaps[t] = append(snaps[t][:0], p.Weights...)
		p.Weights = snaps[t]
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
	// commit events that arrived ahead of their turn.
	gone := make([]int, len(com.Tiers()))
	alive := len(gone)
	var queue []tierEvent
	var graceC <-chan time.Time
	next := func() (tierEvent, error) {
		for {
			want := -1 // any tier: arrival order
			if ta.commitOrder != nil {
				want = ta.commitOrder(com.Version())
			}
			for i, ev := range queue {
				if want < 0 || ev.tier == want {
					queue = append(queue[:i], queue[i+1:]...)
					return ev, nil
				}
			}
			switch {
			case want >= len(gone) || want >= 0 && gone[want] > 0:
				// A received event is an accounted one, so an empty queue
				// after the tier's exit means its commit is never coming.
				return tierEvent{}, fmt.Errorf("flnet: scripted commit order stalled: tier %d cannot deliver commit %d of %d", want, com.Version()+1, ta.tcfg.GlobalCommits)
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
				default:
					queue = append(queue, ev)
				}
			case w := <-tp.rejoin:
				if tp.revive(w) {
					gone[w.id]--
					alive++
					graceC = nil
				}
			case <-graceC:
				return tierEvent{}, fmt.Errorf("flnet: every tier stopped making progress after %d of %d commits", com.Version(), ta.tcfg.GlobalCommits)
			}
		}
	}

	for com.Version() < ta.tcfg.GlobalCommits {
		ev, err := next()
		if err != nil {
			return finish(err)
		}
		tc := ev.commit
		rec, moves, err := com.Apply(tc.Commit)
		putBlob(ev.blob)
		if err != nil {
			if tp.evict == nil {
				return finish(err)
			}
			tp.evict(tc.Tier)
			continue
		}
		stats := TierCommitStats{TierRoundRecord: rec, Clients: tc.Clients, Seconds: tc.Seconds}
		res.Log = append(res.Log, stats)
		ta.obs.noteCommit(stats)
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
// whole run, so callers should surface the dropout list. A run with a
// live Manager (SetManager) calls Run instead: the Manager's own
// profiling pass seeded its tiers.
func (ta *TieredAsyncAggregator) ProfileAndRun(numTiers int, profileTimeout time.Duration) (*TieredAsyncRunResult, []core.Tier, []int, error) {
	lat, dropouts, err := ta.ProfileWorkers(profileTimeout)
	if err != nil {
		return nil, nil, dropouts, err
	}
	tiers := core.BuildTiers(lat, numTiers, core.Quantile)
	res, err := ta.Run(core.TierMembers(tiers))
	return res, tiers, dropouts, err
}
