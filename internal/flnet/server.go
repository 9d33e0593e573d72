package flnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/compress"
	"repro/internal/flcore"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// SelectFunc chooses the client IDs participating in a round from the
// registered population. The aggregator passes a deterministic per-round
// rng.
type SelectFunc func(round int, ids []int, rng *rand.Rand) []int

// UniformSelect returns a vanilla-FL selector over the registered IDs.
func UniformSelect(clientsPerRound int) SelectFunc {
	return func(round int, ids []int, rng *rand.Rand) []int {
		if clientsPerRound >= len(ids) {
			return ids
		}
		perm := rng.Perm(len(ids))
		out := make([]int, clientsPerRound)
		for i := range out {
			out[i] = ids[perm[i]]
		}
		return out
	}
}

// AggregatorConfig configures a (master) aggregator run.
type AggregatorConfig struct {
	Rounds          int
	ClientsPerRound int
	// Overselect selects ceil((1+Overselect)·ClientsPerRound) clients and
	// keeps the first ClientsPerRound responses, discarding stragglers —
	// the Bonawitz et al. 130% mitigation the paper contrasts with (0.3
	// reproduces it; 0 disables over-selection).
	Overselect float64
	// RoundTimeout bounds how long the aggregator waits for updates each
	// round; 0 means wait indefinitely.
	RoundTimeout   time.Duration
	InitialWeights []float64
	Seed           int64
	// SendTimeout bounds every send to a worker with a write deadline, so
	// a peer that stops draining its socket cannot wedge a round's
	// broadcast; 0 = block forever (the historical behaviour).
	SendTimeout time.Duration
}

func (c AggregatorConfig) validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("flnet: Rounds = %d", c.Rounds)
	case c.ClientsPerRound <= 0:
		return fmt.Errorf("flnet: ClientsPerRound = %d", c.ClientsPerRound)
	case c.Overselect < 0:
		return fmt.Errorf("flnet: Overselect = %v", c.Overselect)
	case len(c.InitialWeights) == 0:
		return fmt.Errorf("flnet: InitialWeights empty")
	}
	return nil
}

// RoundStats records one aggregator round.
type RoundStats struct {
	Round     int
	Selected  int
	Used      int // updates aggregated (≤ Selected under over-selection)
	Discarded int // straggler updates dropped
	Wall      time.Duration
	// UplinkBytes is the round's aggregated update traffic as encoded on
	// the wire: codec payload sizes for compressed workers, dense
	// nn.EncodeWeights sizes for the rest.
	UplinkBytes int64
}

// RunResult is a finished distributed training job.
type RunResult struct {
	Weights []float64
	Rounds  []RoundStats
	// UplinkBytes is the total aggregated update traffic over the job.
	UplinkBytes int64
}

// registered is one connected worker from the aggregator's point of view.
type registered struct {
	id      int
	samples int
	role    byte   // Role* constants (RoleWorker for leaf workers)
	members []int  // leaf worker IDs behind a child aggregator (RoleChildAggregator only)
	addr    string // self-reported listen address (child aggregators; informational)
	c       *conn

	// codec is the worker's current update compression (compress.IDNone =
	// dense), negotiated at the handshake and renegotiated on tier
	// migrations. prevCodec stays accepted alongside it: a training round
	// dispatched under the old codec can deliver its update after the
	// renegotiation landed, and that in-flight reply must not be dropped.
	cmu       sync.Mutex
	codec     byte
	prevCodec byte
	updates   chan *Envelope
	dead      atomic.Bool   // set by the reader goroutine when the conn drops
	deadCh    chan struct{} // closed by the reader goroutine on exit
	err       error

	// pending routes seq-tagged updates (Train.Seq echoes) to the exact
	// train request waiting for them. Registered before the request is
	// sent, so a reply can never beat its waiter; buffered size 1, so the
	// reader never blocks on delivery. Updates whose seq has no waiter are
	// stragglers of an abandoned round and are discarded, mirroring the
	// synchronous path's straggler-discard semantics.
	pmu     sync.Mutex
	pending map[int64]chan *Envelope

	// Delta-downlink ack state (runs with a downlink mode): the tier and
	// versioned-broadcast counter of the last snapshot this worker is known
	// to hold — recorded when its update for that broadcast arrives, never
	// merely when the broadcast was sent. A delta is only dispatched when
	// the ack matches the tier chain's base exactly; everything else (first
	// contact, a missed round, a migration, a resume) degrades to the dense
	// snapshot.
	amu     sync.Mutex
	ackTier int
	ackVer  int
}

// setAck records that the worker acknowledged (responded to) the versioned
// broadcast of tier t at global version ver.
func (w *registered) setAck(t, ver int) {
	w.amu.Lock()
	defer w.amu.Unlock()
	w.ackTier, w.ackVer = t, ver
}

// clearAck forgets the worker's ack — called when a re-tiering migrates it,
// so a stale same-tier ack can never resurface after the worker returns to
// a tier it left.
func (w *registered) clearAck() {
	w.amu.Lock()
	defer w.amu.Unlock()
	w.ackTier, w.ackVer = -1, -1
}

// ackMatch reports whether the worker's last ack is exactly tier t at
// version ver — the eligibility test for a delta against that base.
func (w *registered) ackMatch(t, ver int) bool {
	w.amu.Lock()
	defer w.amu.Unlock()
	return ver >= 0 && w.ackTier == t && w.ackVer == ver
}

// codecID returns the worker's current negotiated codec.
func (w *registered) codecID() byte {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	return w.codec
}

// setCodec renegotiates the worker's codec, keeping the previous one
// accepted for the switch window.
func (w *registered) setCodec(id byte) {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	if id == w.codec {
		return
	}
	w.prevCodec = w.codec
	w.codec = id
}

// acceptsCodec reports whether an incoming compressed update's codec is
// valid for this worker: its current negotiated codec or, during a
// renegotiation window, the previous one.
func (w *registered) acceptsCodec(id byte) bool {
	w.cmu.Lock()
	defer w.cmu.Unlock()
	return id == w.codec || id == w.prevCodec
}

// addPending registers a waiter for the given request seq.
func (w *registered) addPending(seq int64) chan *Envelope {
	ch := make(chan *Envelope, 1)
	w.pmu.Lock()
	w.pending[seq] = ch
	w.pmu.Unlock()
	return ch
}

// dropPending abandons a request's waiter (the round is over).
func (w *registered) dropPending(seq int64) {
	w.pmu.Lock()
	delete(w.pending, seq)
	w.pmu.Unlock()
}

// route delivers a seq-tagged update to its waiter, reporting whether one
// existed. An update nobody will decode gives its receive buffer back here.
func (w *registered) route(seq int64, env *Envelope) bool {
	w.pmu.Lock()
	ch, ok := w.pending[seq]
	w.pmu.Unlock()
	if !ok {
		env.release()
		return false
	}
	select {
	case ch <- env: // buffered 1: one reply per request
	default:
		env.release()
	}
	return true
}

// Aggregator is the FL server: it accepts worker registrations, optionally
// profiles them, then drives synchronous FedAvg rounds.
type Aggregator struct {
	cfg AggregatorConfig
	ln  net.Listener
	// blobMax is blobBound of the model this aggregator serves, the blob
	// bound of every connection it accepts (0 = not known yet: a tree child
	// learns it from its first pull).
	blobMax atomic.Int64

	mu      sync.Mutex
	workers map[int]*registered
	// onRejoin observes mid-run re-registrations: it fires (outside a.mu,
	// on the handshake goroutine) whenever a registration replaces a dead
	// entry for the same ID. The tiered-async runs install it to
	// re-announce the returning worker's tier or revive a tree child.
	onRejoin func(w *registered)
}

// setRejoinHook installs (or, with nil, clears) the mid-run
// re-registration observer.
func (a *Aggregator) setRejoinHook(h func(*registered)) {
	a.mu.Lock()
	a.onRejoin = h
	a.mu.Unlock()
}

// NewAggregator listens on addr (e.g. "127.0.0.1:0").
func NewAggregator(addr string, cfg AggregatorConfig) (*Aggregator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("flnet: listen: %w", err)
	}
	a := &Aggregator{cfg: cfg, ln: ln, workers: make(map[int]*registered)}
	a.blobMax.Store(blobBound(len(cfg.InitialWeights)))
	return a, nil
}

// Addr returns the aggregator's listen address.
func (a *Aggregator) Addr() string { return a.ln.Addr().String() }

// Close shuts the listener and all worker connections.
func (a *Aggregator) Close() {
	a.ln.Close() //nolint:errcheck // shutdown path
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, w := range a.workers {
		w.c.close() //nolint:errcheck // shutdown path
	}
}

// WaitForWorkers accepts connections until n workers have registered or the
// timeout elapses. Accepting polls in short slices so registration progress
// is observed promptly even while the listener is idle.
func (a *Aggregator) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	tcp, _ := a.ln.(*net.TCPListener)
	for {
		a.mu.Lock()
		have := len(a.workers)
		a.mu.Unlock()
		if have >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("flnet: waiting for %d workers, have %d: timeout", n, have)
		}
		if tcp != nil {
			slice := time.Now().Add(50 * time.Millisecond)
			if slice.After(deadline) {
				slice = deadline
			}
			if err := tcp.SetDeadline(slice); err != nil {
				return fmt.Errorf("flnet: accept deadline: %w", err)
			}
		}
		raw, err := a.ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue // poll registration progress
			}
			return fmt.Errorf("flnet: accept: %w", err)
		}
		go a.handshake(raw)
	}
}

// handshake performs registration — of workers and tree children alike —
// and starts the per-connection reader.
func (a *Aggregator) handshake(raw net.Conn) {
	c := newConn(raw)
	c.writeTimeout = a.cfg.SendTimeout
	c.limit = &a.blobMax
	// What this build can never serve — another wire version, an update
	// codec it cannot decode — is told why before the hang-up, so the peer
	// fails once instead of redialing into the same refusal.
	refuse := func(reason string) {
		c.send(&Envelope{Type: MsgDone, Done: &Done{Reason: reason}}) //nolint:errcheck // best effort, closing anyway
		c.close()                                                     //nolint:errcheck // refused handshake
	}
	env, err := c.recv(10 * time.Second)
	var ve *wireVersionError
	switch {
	case errors.As(err, &ve):
		refuse(ve.Error())
		return
	case err != nil || env.Type != MsgRegister:
		c.close() //nolint:errcheck // failed handshake
		return
	case !compress.Known(env.Register.Codec):
		refuse(fmt.Sprintf("unknown update codec %d", env.Register.Codec))
		return
	}
	w := &registered{
		id: env.Register.ClientID, samples: env.Register.NumSamples,
		codec: env.Register.Codec, prevCodec: env.Register.Codec,
		role:    env.Register.Role,
		members: append([]int(nil), env.Register.Members...),
		addr:    env.Register.Addr, c: c,
		updates: make(chan *Envelope, 4),
		deadCh:  make(chan struct{}),
		pending: make(map[int64]chan *Envelope),
		ackTier: -1, ackVer: -1,
	}
	a.mu.Lock()
	old := a.workers[w.id]
	if old != nil && !old.dead.Load() {
		// A live connection already owns this ID: refuse the duplicate
		// with a bare close, which the peer may retry. A reconnecting
		// worker that races the server's EOF detection lands here too —
		// its backoff loop simply retries until the dead read surfaces and
		// the slot frees up.
		a.mu.Unlock()
		c.close() //nolint:errcheck // duplicate registration
		return
	}
	a.workers[w.id] = w
	hook := a.onRejoin
	a.mu.Unlock()
	go func() {
		for {
			env, err := c.recv(0)
			if err != nil {
				w.err = err
				w.dead.Store(true)
				close(w.deadCh)
				close(w.updates)
				return
			}
			// Seq-tagged updates go straight to the train request that is
			// waiting for them; everything else (profile replies, the
			// synchronous Aggregator's round-matched updates, tree commits)
			// flows through the shared channel.
			switch {
			case env.Type == MsgUpdate && env.Update.Seq != 0:
				w.route(env.Update.Seq, env)
				continue
			case env.Type == MsgCompressedUpdate && env.CompressedUpdate.Seq != 0:
				w.route(env.CompressedUpdate.Seq, env)
				continue
			}
			w.updates <- env
		}
	}()
	if old != nil && hook != nil {
		// Rejoin: the reader is live, so liveWorker(id) already resolves
		// to the fresh connection by the time the hook observes it.
		hook(w)
	}
}

// acceptLoop keeps admitting registrations while a run is in flight, so a
// disconnected worker (or a respawned child aggregator) can rejoin
// mid-run — WaitForWorkers only accepts until the fleet is assembled.
// It polls the listener in short deadline slices and exits when done is
// closed or the listener dies.
func (a *Aggregator) acceptLoop(done <-chan struct{}) {
	tcp, _ := a.ln.(*net.TCPListener)
	for {
		select {
		case <-done:
			if tcp != nil {
				tcp.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
			}
			return
		default:
		}
		if tcp != nil {
			if err := tcp.SetDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
				return
			}
		}
		raw, err := a.ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return // listener closed
		}
		go a.handshake(raw)
	}
}

// liveWorker returns the registered worker with the given ID if its
// connection is still up, nil otherwise.
func (a *Aggregator) liveWorker(id int) *registered {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := a.workers[id]
	if w == nil || w.dead.Load() {
		return nil
	}
	return w
}

// anyLive reports whether any of the given workers has its connection up.
func (a *Aggregator) anyLive(ids []int) bool {
	for _, id := range ids {
		if a.liveWorker(id) != nil {
			return true
		}
	}
	return false
}

// ids returns the sorted registered client IDs.
func (a *Aggregator) ids() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]int, 0, len(a.workers))
	for id := range a.workers {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// ProfileWorkers sends every registered worker one profiling task and
// returns measured training seconds per client — the network analogue of
// core.Profile. Workers that fail to reply within timeout, or whose reported
// seconds are not a positive finite number (the value seeds tier building
// and latency EWMAs, which neither order NaN nor bound Inf), are reported in
// the dropouts list.
func (a *Aggregator) ProfileWorkers(timeout time.Duration) (map[int]float64, []int, error) {
	ids := a.ids()
	lat := make(map[int]float64, len(ids))
	var dropouts []int
	for _, id := range ids {
		a.mu.Lock()
		w := a.workers[id]
		a.mu.Unlock()
		if err := w.c.send(&Envelope{Type: MsgProfile, Profile: &Profile{Weights: a.cfg.InitialWeights}}); err != nil {
			dropouts = append(dropouts, id)
			continue
		}
	}
	for _, id := range ids {
		a.mu.Lock()
		w := a.workers[id]
		a.mu.Unlock()
		env, ok := recvTimeout(w, timeout)
		if !ok || env.Type != MsgProfileReply {
			dropouts = append(dropouts, id)
			continue
		}
		secs := env.ProfileReply.Seconds
		if !(secs > 0) || math.IsInf(secs, 1) { // NaN fails the first test
			dropouts = append(dropouts, id)
			continue
		}
		lat[id] = secs
	}
	if len(lat) == 0 {
		return nil, dropouts, fmt.Errorf("flnet: no workers completed profiling")
	}
	return lat, dropouts, nil
}

// recvTimeout pops the worker's next message through its reader channel.
func recvTimeout(w *registered, timeout time.Duration) (*Envelope, bool) {
	if timeout <= 0 {
		env, ok := <-w.updates
		return env, ok
	}
	select {
	case env, ok := <-w.updates:
		return env, ok
	case <-time.After(timeout):
		return nil, false
	}
}

// Run drives cfg.Rounds synchronous rounds using sel to pick participants
// and returns final weights plus per-round stats. It requires at least one
// registered worker.
func (a *Aggregator) Run(sel SelectFunc) (*RunResult, error) {
	weights := append([]float64(nil), a.cfg.InitialWeights...)
	res := &RunResult{}
	for r := 0; r < a.cfg.Rounds; r++ {
		rng := rand.New(rand.NewSource(a.cfg.Seed + int64(r)*1_000_003))
		target := a.cfg.ClientsPerRound
		want := target
		if a.cfg.Overselect > 0 {
			want = int(float64(target)*(1+a.cfg.Overselect) + 0.999)
		}
		all := a.ids()
		if len(all) == 0 {
			return nil, fmt.Errorf("flnet: round %d: no registered workers", r)
		}
		chosen := sel(r, all, rng)
		if extra := want - len(chosen); a.cfg.Overselect > 0 && extra > 0 {
			// Over-selection: top up with uniformly drawn spares beyond the
			// policy's picks; only the first `target` responses count.
			inChosen := make(map[int]bool, len(chosen))
			for _, id := range chosen {
				inChosen[id] = true
			}
			for _, i := range rng.Perm(len(all)) {
				if extra == 0 {
					break
				}
				if !inChosen[all[i]] {
					chosen = append(chosen, all[i])
					extra--
				}
			}
		}
		start := time.Now()
		stats := RoundStats{Round: r, Selected: len(chosen)}
		updates, err := a.RunRound(r, chosen, weights, target)
		if err != nil {
			return nil, err
		}
		stats.Used = len(updates)
		if d := stats.Selected - stats.Used; d > 0 {
			stats.Discarded = d
		}
		for _, u := range updates {
			stats.UplinkBytes += int64(u.WireBytes)
		}
		res.UplinkBytes += stats.UplinkBytes
		weights = flcore.FedAvg(updates)
		stats.Wall = time.Since(start)
		res.Rounds = append(res.Rounds, stats)
	}
	res.Weights = weights
	a.FinishWorkers(a.cfg.Rounds)
	return res, nil
}

// RunRound drives one synchronous round over the chosen registered workers:
// broadcast weights, collect up to target updates (stragglers beyond target
// or the round timeout are discarded), and return the updates.
func (a *Aggregator) RunRound(round int, chosen []int, weights []float64, target int) ([]flcore.Update, error) {
	live := make([]*registered, 0, len(chosen))
	raw := nn.EncodeWeights(weights) // once per round, shared by the cohort
	for _, id := range chosen {
		a.mu.Lock()
		w := a.workers[id]
		a.mu.Unlock()
		if w == nil {
			continue
		}
		if err := w.c.send(&Envelope{Type: MsgTrain, Train: &Train{Round: round, Raw: raw}}); err != nil {
			continue
		}
		live = append(live, w)
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("flnet: round %d: no reachable workers", round)
	}
	updates := a.collect(live, target, round, weights)
	if len(updates) == 0 {
		return nil, fmt.Errorf("flnet: round %d: no updates before timeout", round)
	}
	return updates, nil
}

// FinishWorkers notifies every registered worker that training is over.
func (a *Aggregator) FinishWorkers(rounds int) {
	for _, id := range a.ids() {
		a.mu.Lock()
		w := a.workers[id]
		a.mu.Unlock()
		w.c.send(&Envelope{Type: MsgDone, Done: &Done{Rounds: rounds}}) //nolint:errcheck // best effort
	}
}

// decodeUpdate converts a worker's update envelope into an aggregatable
// flcore.Update against the round's broadcast weights, and releases the
// envelope's receive buffer: this is the one place an update's blob is read.
// It enforces the handshake codec negotiation; a payload that fails to
// decode to a vector of the model's length — compressed or dense — is
// treated like a dropped worker: one bad update must not kill the round. So
// is a dense update holding a NaN or ±Inf, which FedAvg would spread over
// the whole model; the decode pass reads that off the bits it loads.
// Compressed updates and Committer.Apply are not checked for finiteness
// here (ROADMAP item 4).
//
// With a non-nil vecs a dense update decodes into a vector drawn from it,
// which the caller returns once the round's FedAvg has read it; a
// compressed update's vector is always fresh and never the pool's.
func decodeUpdate(w *registered, env *Envelope, weights []float64, vecs *tensor.Pool) (flcore.Update, bool) {
	defer env.release()
	switch env.Type {
	case MsgUpdate:
		// A dense update of the wrong length would panic FedAvg; drop it like
		// any other payload that does not decode to the model.
		if len(env.Update.Raw) != compress.DenseBytes(len(weights)) {
			return flcore.Update{}, false
		}
		var dst []float64
		if vecs != nil {
			dst = vecs.Get(len(weights))
		}
		uw, finite, err := nn.DecodeWeightsInto(dst, env.Update.Raw)
		if err != nil || !finite {
			if vecs != nil {
				vecs.Put(dst)
			}
			return flcore.Update{}, false
		}
		return flcore.Update{
			ClientID: env.Update.ClientID, Weights: uw,
			NumSamples: env.Update.NumSamples,
			Latency:    env.Update.Seconds,
			WireBytes:  compress.DenseBytes(len(uw)),
		}, true
	case MsgCompressedUpdate:
		cu := env.CompressedUpdate
		// Enforce the negotiation: updates must arrive under the worker's
		// negotiated codec (current, or the previous one during a live
		// renegotiation window).
		if !w.acceptsCodec(cu.Codec) {
			return flcore.Update{}, false
		}
		rec, err := compress.AddDecoded(cu.Codec, cu.Payload, weights)
		if err != nil {
			return flcore.Update{}, false
		}
		return flcore.Update{
			ClientID: cu.ClientID, Weights: rec,
			NumSamples: cu.NumSamples, Latency: cu.Seconds,
			WireBytes: len(cu.Payload),
		}, true
	}
	return flcore.Update{}, false
}

// updateRound extracts the round an update envelope claims, or -1.
func updateRound(env *Envelope) int {
	switch env.Type {
	case MsgUpdate:
		return env.Update.Round
	case MsgCompressedUpdate:
		return env.CompressedUpdate.Round
	}
	return -1
}

// drainFor pulls one round-r update from the worker's shared channel,
// draining stale messages (e.g. a previous round's straggler update) until
// the round's update arrives or the deadline passes (zero deadline blocks
// indefinitely).
func drainFor(w *registered, round int, weights []float64, deadline time.Time) (flcore.Update, bool) {
	for {
		wait := time.Duration(0)
		if !deadline.IsZero() {
			wait = time.Until(deadline)
			if wait <= 0 {
				return flcore.Update{}, false
			}
		}
		env, ok := recvTimeout(w, wait)
		if !ok {
			return flcore.Update{}, false
		}
		if updateRound(env) == round {
			return decodeUpdate(w, env, weights, nil) // the caller keeps the vectors
		}
		env.release() // a stale message, skipped undecoded
	}
}

// collect gathers up to target updates for round r from the live workers,
// respecting the round timeout; late updates are discarded (straggler
// mitigation). weights is the round's broadcast weight vector, against
// which compressed deltas are reconstructed.
func (a *Aggregator) collect(live []*registered, target, round int, weights []float64) []flcore.Update {
	type got struct {
		u  flcore.Update
		ok bool
	}
	ch := make(chan got, len(live))
	var deadline time.Time
	if a.cfg.RoundTimeout > 0 {
		deadline = time.Now().Add(a.cfg.RoundTimeout)
	}
	for _, w := range live {
		go func(w *registered) {
			u, ok := drainFor(w, round, weights, deadline)
			ch <- got{u: u, ok: ok}
		}(w)
	}
	var updates []flcore.Update
	for i := 0; i < len(live); i++ {
		g := <-ch
		if g.ok {
			updates = append(updates, g.u)
			if len(updates) >= target {
				break // remaining responders are stragglers; discard
			}
		}
	}
	return updates
}
