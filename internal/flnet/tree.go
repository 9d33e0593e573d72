package flnet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/compress"
	"repro/internal/flcore"
)

// Hierarchical aggregation tree: the paper's master/child design for
// fan-in scale and fault isolation (Section 3.1/4.1), one process per
// node. A child aggregator owns a subset of workers and presents itself to
// the root as a single worker whose "update" is the FedAvg of its subtree;
// because FedAvg is a weighted mean, root-of-children equals a flat
// aggregation over all leaves. A root TieredAsyncAggregator
// speaks the reserved MsgTierCommit envelope to per-tier Child aggregator
// processes; each child runs its own mini-FedAvg fan-in (the exact fanIn
// machinery the in-process tier loops use) over the leaf workers that
// registered with it, so the root only ever sees one pre-reduced vector
// per tier round and FedAT's staleness-discounted commit mixing applies
// unchanged.
//
// The protocol is a strict commit/pull cycle per child:
//
//	child → root  MsgRegister   (Role=RoleChildAggregator, ClientID=tier,
//	                             Members=its leaf worker IDs)
//	root → child  MsgTierAssign (tier, cohort seed + size, start round)
//	root → child  MsgTreePull   (global version + weights)
//	child → root  MsgTierCommit (the tier round's FedAvg aggregate)
//	              ... root applies, replies the next MsgTreePull ...
//	root → child  MsgDone
//
// Because the pull is the reply to the child's own applied commit, each
// tier trains round r+1 from exactly the post-commit state of its round r
// — the same dispatch-at-commit the flat tier loops get from the same
// committer loop (drive) and the same flcore.Committer. A tree run whose
// commits apply in the same order as a flat run's is therefore
// byte-identical to it (the tree-vs-flat parity tests script the order);
// otherwise only the wall-clock commit interleaving differs, exactly as
// between two flat runs.
//
// Failure semantics: a child tolerates leaf-worker disconnects with the
// flat runtime's collect semantics (dead cohort members are skipped, empty
// rounds retried); the root tolerates a child death by degrading that tier
// — its pump goroutine exits and the remaining tiers keep committing — and
// only fails when every child is gone. Checkpoint/resume composes: the root checkpoints child-reported
// leaf membership per tier, and ResumeTree validates re-registered
// children against it, falling back to ResumeModel on ErrRosterChanged.

// ChildConfig configures one child-aggregator process of the tree.
type ChildConfig struct {
	// ID is the child's tier index at the root (0 = fastest tier). Children
	// must register the contiguous IDs 0..K-1.
	ID int
	// Addr is the child's own listen address for its leaf workers
	// ("127.0.0.1:0" when empty).
	Addr string
	// RootAddr is the tree root's listen address.
	RootAddr string
	// Workers is how many leaf workers must register with the child before
	// it joins the tree.
	Workers int
	// WorkerTimeout bounds the leaf registration wait (default 60s).
	WorkerTimeout time.Duration
	// RoundTimeout bounds each mini-round collection window, exactly like
	// TieredAsyncConfig.RoundTimeout (0 = wait indefinitely).
	RoundTimeout time.Duration
	// DialTimeout bounds the dial to the root (default 10s).
	DialTimeout time.Duration
	// Downlink enables the version-acked delta broadcast on the child's
	// leaf-worker fan-in, exactly as TieredAsyncConfig.Downlink does on the
	// flat runtime. It is independent of the root→child pull deltas, which
	// the root enables through its own Downlink config; a child re-encodes
	// each reconstructed pull against its own leaf-side chains.
	Downlink *compress.Downlink
	// Dial overrides the transport used to reach the root (fault injection;
	// nil = net.DialTimeout).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// RPCTimeout bounds every send on the root link and on each leaf-worker
	// connection, and — when the child is mid-cycle — how long a reply pull
	// may take to arrive (0 = wait indefinitely, the legacy behavior). Keep
	// it zero against a root whose parity test scripts the commit order:
	// there a reply pull is deferred until the script reaches this tier.
	RPCTimeout time.Duration
	// MaxRetries bounds per-request redispatches when a leaf dies mid-round
	// (TieredAsyncConfig.MaxRetries semantics; 0 = dead leaves are skipped).
	MaxRetries int
	// RejoinWait bounds how long a redispatch waits for the dead leaf to
	// reconnect and re-register (default 2s when MaxRetries > 0).
	RejoinWait time.Duration
}

// Child is a per-tier child aggregator: an FL server to its leaf workers
// (registration, codec negotiation, seq-routed rounds — the full
// flat-runtime worker contract) and a single pre-reduced "worker" to the
// tree root.
type Child struct {
	cfg  ChildConfig
	agg  *server
	fan  *fanIn
	done chan struct{}

	mu     sync.Mutex
	closed bool
	root   *conn
}

// NewChild listens for leaf workers on cfg.Addr. Run joins the tree.
func NewChild(cfg ChildConfig) (*Child, error) {
	switch {
	case cfg.ID < 0:
		return nil, fmt.Errorf("flnet: child ID = %d", cfg.ID)
	case cfg.Workers <= 0:
		return nil, fmt.Errorf("flnet: child Workers = %d", cfg.Workers)
	case cfg.RootAddr == "":
		return nil, fmt.Errorf("flnet: child needs a RootAddr")
	case cfg.MaxRetries < 0:
		return nil, fmt.Errorf("flnet: child MaxRetries = %d", cfg.MaxRetries)
	}
	if cfg.MaxRetries > 0 && cfg.RejoinWait <= 0 {
		cfg.RejoinWait = 2 * time.Second
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	// No model yet: the child learns its blob bound from its first pull.
	agg, err := listen(addr, cfg.RPCTimeout, nil)
	if err != nil {
		return nil, err
	}
	return &Child{
		cfg:  cfg,
		agg:  agg,
		fan:  &fanIn{srv: agg, obs: &obsState{}, timeout: cfg.RoundTimeout, retries: cfg.MaxRetries, rejoinWait: cfg.RejoinWait},
		done: make(chan struct{}),
	}, nil
}

// Addr returns the child's leaf-worker listen address.
func (ch *Child) Addr() string { return ch.agg.Addr() }

// Close tears the child down: its root connection, its listener, and every
// leaf worker connection. A Run in progress returns nil if the shutdown
// was deliberate.
func (ch *Child) Close() {
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return
	}
	ch.closed = true
	root := ch.root
	close(ch.done)
	ch.mu.Unlock()
	if root != nil {
		root.close() //nolint:errcheck // shutdown path
	}
	ch.agg.Close()
}

func (ch *Child) isClosed() bool {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.closed
}

// Run waits for the configured leaf workers, registers with the root as a
// child aggregator, then serves the pull/commit cycle until the root sends
// MsgDone (returned error nil), the child is Closed (nil), or the tree
// breaks (the error). Leaf workers negotiate codecs with the child exactly
// as with a flat aggregator, and each commit reports the tier round's
// encoded uplink traffic upstream into the root's metrics.
func (ch *Child) Run() error {
	wt := ch.cfg.WorkerTimeout
	if wt <= 0 {
		wt = 60 * time.Second
	}
	if err := ch.agg.WaitForWorkers(ch.cfg.Workers, wt); err != nil {
		return fmt.Errorf("flnet: child %d: %w", ch.cfg.ID, err)
	}
	members := ch.agg.ids()
	total := 0
	for _, w := range ch.agg.roster() {
		total += w.samples
	}

	dt := ch.cfg.DialTimeout
	if dt <= 0 {
		dt = 10 * time.Second
	}
	dial := ch.cfg.Dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	raw, err := dial(ch.cfg.RootAddr, dt)
	if err != nil {
		return fmt.Errorf("flnet: child %d dialing root: %w", ch.cfg.ID, err)
	}
	root := newConn(raw)
	root.writeTimeout = ch.cfg.RPCTimeout
	defer root.close() //nolint:errcheck // Run owns the root connection
	ch.mu.Lock()
	if ch.closed {
		ch.mu.Unlock()
		return nil
	}
	ch.root = root
	ch.mu.Unlock()

	if err := root.send(&Envelope{Type: MsgRegister, Register: &Register{
		ClientID: ch.cfg.ID, NumSamples: total, Role: RoleChildAggregator,
		Members: members, Addr: ch.agg.Addr(),
	}}); err != nil {
		return ch.runErr(err)
	}
	env, err := root.recv(0)
	if err != nil {
		return ch.runErr(err)
	}
	if env.Type == MsgDone {
		ch.agg.FinishWorkers(env.Done.Rounds)
		return nil
	}
	if env.Type != MsgTierAssign {
		return fmt.Errorf("flnet: child %d: expected tier assignment, got message %d", ch.cfg.ID, env.Type)
	}
	as := env.TierAssign
	r := as.StartRound
	// Forward the placement to the leaves (best effort, informational —
	// exactly what the flat aggregator announces).
	for _, id := range members {
		if w := ch.agg.liveWorker(id); w != nil {
			w.c.send(&Envelope{Type: MsgTierAssign, TierAssign: &TierAssign{Tier: as.Tier, NumTiers: as.NumTiers}}) //nolint:errcheck // best effort
		}
	}
	// Keep accepting leaf connections for the rest of the run so a flapped
	// worker's reconnect loop can re-register mid-run. A rejoined leaf gets
	// its placement re-announced; its codec/downlink state was rebuilt by
	// the handshake (fresh ack state means its next broadcast is dense).
	ch.agg.setRejoinHook(func(w *registered) {
		if w.role != RoleWorker {
			w.c.close() //nolint:errcheck // reject non-leaf registrations
			return
		}
		ch.fan.obs.noteReconnect(w.id)
		w.c.send(&Envelope{Type: MsgTierAssign, TierAssign: &TierAssign{Tier: as.Tier, NumTiers: as.NumTiers}}) //nolint:errcheck // best effort
	})
	defer ch.agg.setRejoinHook(nil)
	accepting := make(chan struct{})
	var stopAccepting sync.Once
	defer stopAccepting.Do(func() { close(accepting) })
	go func() {
		<-ch.done
		stopAccepting.Do(func() { close(accepting) })
	}()
	go ch.agg.acceptLoop(accepting)
	// Root-side pull base (the strict pull→commit cycle means the root may
	// delta against the previous pull) and the child's own leaf-side delta
	// chain — a reconstructed pull is re-encoded against the leaves' bases,
	// so pull compression and leaf compression compose without either side
	// knowing about the other.
	pullVer := -1
	var pullBase []float64
	// The round's weights live in one child-owned vector: the pull→commit
	// cycle is strictly sequential, and nothing downstream of localRound
	// keeps the slice past the round.
	var weights []float64
	var leafDL *downTier
	if ch.cfg.Downlink != nil {
		leafDL = &downTier{chain: ch.cfg.Downlink.NewChain()}
	}
	for {
		env, err := root.recv(ch.cfg.RPCTimeout)
		if err != nil {
			var ne net.Error
			if ch.cfg.RPCTimeout > 0 && errors.As(err, &ne) && ne.Timeout() {
				err = fmt.Errorf("no pull from the root within the %v RPC timeout: %w", ch.cfg.RPCTimeout, err)
			}
			return ch.runErr(err)
		}
		switch env.Type {
		case MsgTreePull:
			if env.TreePull.Delta != nil {
				if pullBase == nil || env.TreePull.DeltaBase != pullVer {
					return fmt.Errorf("flnet: child %d: pull delta against version %d, holding %d", ch.cfg.ID, env.TreePull.DeltaBase, pullVer)
				}
				weights, err = compress.ApplyDelta(env.TreePull.DeltaCodec, env.TreePull.Delta, pullBase)
			} else {
				weights, err = env.TreePull.pullWeights(weights)
			}
			env.release()
			if err != nil {
				return fmt.Errorf("flnet: child %d: decoding pull: %w", ch.cfg.ID, err)
			}
			ch.agg.blobMax.Store(blobBound(len(weights))) // what a leaf of this model may send
			pullVer = env.TreePull.Version
			pullBase = append(pullBase[:0], weights...)
			tc, err := ch.localRound(&r, as, members, env.TreePull.Version, weights, leafDL)
			if err != nil {
				return ch.runErr(err)
			}
			if err := root.send(&Envelope{Type: MsgTierCommit, TierCommit: tc}); err != nil {
				return ch.runErr(err)
			}
		case MsgDone:
			ch.agg.FinishWorkers(env.Done.Rounds)
			return nil
		default:
			return fmt.Errorf("flnet: child %d: unexpected message %d from root", ch.cfg.ID, env.Type)
		}
	}
}

// runErr maps mid-run failures after a deliberate Close to a clean nil.
func (ch *Child) runErr(err error) error {
	if ch.isClosed() {
		return nil
	}
	return fmt.Errorf("flnet: child %d: %w", ch.cfg.ID, err)
}

// errChildClosed signals localRound abandonment after Close.
var errChildClosed = fmt.Errorf("flnet: child closed")

// localRound drives mini-rounds of the child's tier until one commits,
// mirroring the flat tierLoop's retry policy: dead cohort draws are
// redrawn next round, empty rounds (cohort reached, no update before the
// collection windows closed) are retried up to the same bound, and the
// round index advances per attempt either way. The committed aggregate is
// returned for shipping to the root.
func (ch *Child) localRound(r *int, as *TierAssign, members []int, version int, weights []float64, dl *downTier) (*TierCommit, error) {
	const maxEmptyRounds = 3
	empty := 0
	for {
		select {
		case <-ch.done:
			return nil, errChildClosed
		default:
		}
		if !ch.agg.anyLive(members) {
			return nil, fmt.Errorf("every leaf worker disconnected")
		}
		if empty >= maxEmptyRounds {
			return nil, fmt.Errorf("%d consecutive rounds produced no update", empty)
		}
		cohort := flcore.TierCohort(as.Seed, *r, as.Tier, members, as.ClientsPerRound)
		if len(cohort) == 0 {
			return nil, fmt.Errorf("round %d drew an empty cohort", *r)
		}
		tc, status := ch.fan.runRound(as.Tier, *r, cohort, version, weights, dl, ch.done)
		*r++
		switch status {
		case roundCommitted:
			return tc, nil
		case roundNoCohort:
			// Whole cohort dead while other members live: next round draws a
			// different cohort. Back off briefly while dead flags propagate.
			time.Sleep(10 * time.Millisecond)
		case roundEmpty:
			empty++
		case roundAbort:
			return nil, errChildClosed
		}
	}
}

// WaitForChildren accepts registrations until n child aggregators have
// joined (or timeout) and validates the tree shape: contiguous tier IDs
// 0..n-1, non-empty and disjoint leaf membership, no plain workers
// registered directly with the root.
func (ta *TieredAsyncAggregator) WaitForChildren(n int, timeout time.Duration) error {
	if err := ta.WaitForWorkers(n, timeout); err != nil {
		return err
	}
	_, err := ta.treeChildren()
	return err
}

// treeChildren snapshots and validates the registered child aggregators,
// sorted by tier ID.
func (ta *TieredAsyncAggregator) treeChildren() ([]*registered, error) {
	children := ta.roster()
	seen := make(map[int]int)
	for i, c := range children {
		if c.role != RoleChildAggregator {
			return nil, fmt.Errorf("flnet: node %d registered with the tree root as a plain worker; leaves must register with a child aggregator", c.id)
		}
		if c.id != i {
			return nil, fmt.Errorf("flnet: child-aggregator IDs must be the contiguous tier indexes 0..%d; got %d", len(children)-1, c.id)
		}
		if len(c.members) == 0 {
			return nil, fmt.Errorf("flnet: child aggregator %d registered no leaf workers", c.id)
		}
		for _, id := range c.members {
			if prev, dup := seen[id]; dup {
				return nil, fmt.Errorf("flnet: leaf worker %d claimed by child aggregators %d and %d", id, prev, c.id)
			}
			seen[id] = c.id
		}
	}
	return children, nil
}

// sameMembers reports set equality of two membership lists.
func sameMembers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int(nil), a...)
	bs := append([]int(nil), b...)
	sort.Ints(as)
	sort.Ints(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// ResumeTree loads a TieredCheckpoint into a tree root before RunTree,
// validating the re-registered children against the checkpointed leaf
// membership per tier. Every child must have re-registered first
// (WaitForChildren); a changed roster fails with ErrRosterChanged and the
// caller should fall back to ResumeModel (fresh cursors over the new
// tree). RunTree then continues toward the absolute GlobalCommits target,
// handing each child its checkpointed round cursor via the assignment.
func (ta *TieredAsyncAggregator) ResumeTree(c *flcore.TieredCheckpoint) error {
	if err := ta.checkResume(c); err != nil {
		return err
	}
	if len(c.ManagerState) > 0 {
		return fmt.Errorf("flnet: checkpoint carries tiering-manager state; the tree topology does not support a live Manager")
	}
	children, err := ta.treeChildren()
	if err != nil {
		return err
	}
	if len(children) != len(c.Tiers) {
		return fmt.Errorf("%w: checkpoint has %d tiers, %d child aggregators re-registered", ErrRosterChanged, len(c.Tiers), len(children))
	}
	for t, child := range children {
		if !sameMembers(child.members, c.Tiers[t]) {
			return fmt.Errorf("%w: tier %d leaf membership %v does not match checkpointed %v", ErrRosterChanged, t, child.members, c.Tiers[t])
		}
	}
	ta.resume, ta.resumeModel = c, false
	return nil
}

// sendPull hands a child its next pull — the tree's dispatch-at-commit.
// Best effort: a dead child is degraded by its pump, not here. With a
// Downlink config every pull after the first travels as a delta against
// the previous pull: the strict pull→commit cycle means the received commit
// IS the ack that the child holds that base, so no explicit ack tracking is
// needed. dl.seq holds the previous pull's Version for the child-side
// sanity check. p.Weights is the live model; it is fully encoded before
// sendPull returns.
func (ta *TieredAsyncAggregator) sendPull(c *registered, dl *downTier, p flcore.TierPull) {
	pull := &TreePull{Version: p.Version}
	if dl != nil && dl.chain.HasBase() {
		pull.Delta, pull.DeltaCodec = dl.chain.Encode(p.Weights)
		pull.DeltaBase = dl.seq
	} else {
		raw := encodeBlob(p.Weights)
		defer putBlob(raw)
		pull.Raw = *raw
		if dl != nil {
			dl.chain.Adopt(p.Weights)
		}
	}
	if dl != nil {
		dl.seq = p.Version
	}
	if c.c.send(&Envelope{Type: MsgTreePull, TreePull: pull}) == nil {
		ta.obs.addDownlink(int64(len(pull.Delta) + len(pull.Raw)))
	}
}

// RunTree drives the hierarchical topology over the registered child
// aggregators until GlobalCommits commits have been applied: assign each
// child its tier (ID order, 0 = fastest), hand out initial pulls, then
// apply their MsgTierCommit envelopes through the committer loop the flat
// run uses (drive), which replies each applied commit with the child's
// next pull. A dead child degrades its tier (the run continues on the
// remaining tiers); the root keeps accepting, so a respawned child that
// re-registers with the pinned leaf membership revives its tier mid-run
// (assignment with the tier's current round cursor, dense first pull,
// /metrics flips the tier back to alive). RunTree fails when every child
// is gone before the target (after a RejoinWait grace, if set) or on the
// first malformed commit. Live tiering Managers are not supported over the
// tree.
func (ta *TieredAsyncAggregator) RunTree() (*TieredAsyncRunResult, error) {
	if ta.tcfg.Manager != nil {
		return nil, fmt.Errorf("flnet: the tree topology does not support a live tiering Manager; run flat or pre-assign tiers")
	}
	children, err := ta.treeChildren()
	if err != nil {
		return nil, err
	}
	if len(children) == 0 {
		return nil, fmt.Errorf("flnet: tree run needs at least one child aggregator")
	}
	k := len(children)
	tiers := make([][]int, k)
	for t, c := range children {
		tiers[t] = c.members
	}
	com, err := ta.newCommitter(tiers)
	if err != nil {
		return nil, err
	}
	// Per-child pull-delta chains (fresh every run: a resumed child holds
	// no base, so it re-enters through the dense first pull).
	pulls := make([]*downTier, k)

	// rejoin is buffered so a burst of respawned children registering at
	// once does not hold their handshake goroutines on the committer.
	tp := &topology{events: make(chan tierEvent), done: make(chan struct{}), rejoin: make(chan *registered, 4), grace: ta.tcfg.RejoinWait}
	tp.dispatch = func(t int, p flcore.TierPull) { ta.sendPull(children[t], pulls[t], p) }
	// One pump per child: commits flow from the connection reader into the
	// committer; a closed inbox is the child's death.
	pump := func(t int, c *registered) {
		defer tp.wg.Done()
		for {
			select {
			case env, ok := <-c.inbox:
				if !ok {
					ta.obs.noteChildDown(t)
					tp.post(tierEvent{tier: t, gone: true})
					return
				}
				if env.Type != MsgTierCommit {
					continue // stray profile replies etc.; commits are the contract
				}
				if !tp.post(tierEvent{tier: t, commit: env.TierCommit}) {
					return
				}
			case <-tp.done:
				return
			}
		}
	}
	// join starts (or, after a revival, restarts) tier t's commit cycle on
	// child c: a fresh pull chain — the child holds no base, so its first
	// pull is dense — the assignment with the tier's current round cursor,
	// an immediate pull, and a pump feeding the committer. Best effort: a
	// child that died since registering is degraded by its pump.
	join := func(t int, c *registered) {
		children[t] = c
		if ta.tcfg.Downlink != nil {
			pulls[t] = &downTier{chain: ta.tcfg.Downlink.NewChain()}
		}
		addr := c.addr
		if addr == "" {
			addr = c.c.raw.RemoteAddr().String()
		}
		ta.obs.noteChildUp(t, addr)
		p := com.Pull(t)
		c.c.send(&Envelope{Type: MsgTierAssign, TierAssign: &TierAssign{ //nolint:errcheck // best effort
			Tier: t, NumTiers: k,
			Seed: ta.tcfg.Seed, ClientsPerRound: ta.tcfg.ClientsPerRound,
			StartRound: p.Round,
		}})
		ta.sendPull(c, pulls[t], p)
		tp.wg.Add(1)
		go pump(t, c)
	}
	// A mid-run child re-registration is validated against the pinned
	// topology; one that does not match — wrong role, out-of-range tier,
	// changed leaf membership — is refused by closing the connection,
	// exactly as ResumeTree refuses a changed roster. Runs on the committer
	// goroutine, which owns children, pulls and the Committer.
	tp.revive = func(w *registered) bool {
		if w.role != RoleChildAggregator || w.id < 0 || w.id >= k || !sameMembers(w.members, tiers[w.id]) {
			w.c.close() //nolint:errcheck // refused rejoin
			return false
		}
		ta.obs.noteChildRejoin(w.id)
		join(w.id, w)
		return true
	}
	for t, c := range children {
		join(t, c)
	}
	go ta.acceptLoop(tp.done)
	ta.setRejoinHook(func(w *registered) {
		select {
		case tp.rejoin <- w:
		case <-tp.done:
			w.c.close() //nolint:errcheck // run over; refuse late rejoins
		}
	})
	return ta.drive(com, tp)
}
