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
	"repro/internal/core"
	"repro/internal/flcore"
	"repro/internal/nn"
)

// AggregatorConfig configures a synchronous aggregator run (Algorithm 1).
type AggregatorConfig struct {
	Rounds          int
	ClientsPerRound int
	// Overselect selects ceil((1+Overselect)·ClientsPerRound) clients and
	// keeps the first ClientsPerRound responses, discarding stragglers —
	// the Bonawitz et al. 130% mitigation the paper contrasts with (0.3
	// reproduces it; 0 disables over-selection).
	Overselect float64
	// RoundTimeout is the fan-in's collection window, as in
	// TieredAsyncConfig.RoundTimeout: a round whose window closes with at
	// least one update ends there, and a cohort that delivered nothing gets
	// up to two more windows before the round fails. 0 waits indefinitely.
	RoundTimeout   time.Duration
	InitialWeights []float64
	// Seed keys the per-round selection source (flcore.SelectionRNG), the
	// one flcore.Engine.Run uses.
	Seed int64
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
	// reg is this connection's registration number from the ack ledger: no
	// ack an earlier connection of the same ID earned bills this one.
	reg int

	// codec is the worker's current update compression (compress.IDNone =
	// dense), negotiated at the handshake and renegotiated on tier
	// migrations. prevCodec stays accepted alongside it: a training round
	// dispatched under the old codec can deliver its update after the
	// renegotiation landed, and that in-flight reply must not be dropped.
	cmu       sync.Mutex
	codec     byte
	prevCodec byte
	// inbox carries what the reader does not route by Seq: profile replies
	// and, from a tree child, tier commits. Closed by the reader on exit.
	inbox  chan *Envelope
	dead   atomic.Bool   // set by the reader goroutine when the conn drops
	deadCh chan struct{} // closed by the reader goroutine on exit

	// pending routes updates to the exact train request waiting for them,
	// by the Train.Seq token they echo. Registered before the request is
	// sent, so a reply can never beat its waiter; buffered size 1, so the
	// reader never blocks on delivery. An update whose seq has no waiter —
	// a straggler of a round that ended without it, or one that echoes no
	// token at all — is released undecoded.
	pmu     sync.Mutex
	pending map[int64]chan *Envelope
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

// server is what the synchronous Aggregator, the TieredAsyncAggregator and a
// tree Child share: the listener, the roster of registered peers with its
// handshake and per-connection readers, the mid-run rejoin hook, and the
// profiling pass.
type server struct {
	ln             *net.TCPListener
	sendTimeout    time.Duration // write deadline of every accepted connection (0 = none)
	profileWeights []float64     // the model ProfileWorkers hands out
	// blobMax is blobBound of the model this server holds, the blob bound
	// of every connection it accepts (0 = not known yet: a tree child
	// learns it from its first pull).
	blobMax atomic.Int64
	acks    flcore.AckLedger // bills the tier rounds this server's fan-in runs

	mu      sync.Mutex
	workers map[int]*registered
	// onRejoin observes mid-run re-registrations: it fires (outside mu, on
	// the handshake goroutine) whenever a registration replaces a dead
	// entry for the same ID. The tiered-async runs install it to
	// re-announce the returning worker's tier or revive a tree child.
	onRejoin func(w *registered)
}

// listen opens a server on addr for peers exchanging the given model.
func listen(addr string, sendTimeout time.Duration, model []float64) (*server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("flnet: listen: %w", err)
	}
	s := &server{ln: ln.(*net.TCPListener), sendTimeout: sendTimeout, profileWeights: model, workers: make(map[int]*registered)}
	if len(model) > 0 {
		s.blobMax.Store(blobBound(len(model)))
	}
	return s, nil
}

// setRejoinHook installs (or, with nil, clears) the mid-run
// re-registration observer.
func (a *server) setRejoinHook(h func(*registered)) {
	a.mu.Lock()
	a.onRejoin = h
	a.mu.Unlock()
}

// Addr returns the aggregator's listen address.
func (a *server) Addr() string { return a.ln.Addr().String() }

// Close shuts the listener and all worker connections.
func (a *server) Close() {
	a.ln.Close() //nolint:errcheck // shutdown path
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, w := range a.workers {
		w.c.close() //nolint:errcheck // shutdown path
	}
}

// admit waits until the given time for one connection and hands it to the
// handshake. A wait that ends without one is not an error.
func (a *server) admit(until time.Time) error {
	if err := a.ln.SetDeadline(until); err != nil {
		return err
	}
	raw, err := a.ln.Accept()
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return nil
	}
	if err == nil {
		go a.handshake(raw)
	}
	return err
}

// WaitForWorkers accepts connections until n workers have registered or the
// timeout elapses. Accepting polls in short slices so registration progress
// is observed promptly even while the listener is idle.
func (a *server) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		a.mu.Lock()
		have := len(a.workers)
		a.mu.Unlock()
		if have >= n {
			return nil
		}
		now := time.Now()
		if now.After(deadline) {
			return fmt.Errorf("flnet: waiting for %d workers, have %d: timeout", n, have)
		}
		slice := now.Add(50 * time.Millisecond)
		if slice.After(deadline) {
			slice = deadline
		}
		if err := a.admit(slice); err != nil {
			return fmt.Errorf("flnet: accept: %w", err)
		}
	}
}

// handshake performs registration — of workers and tree children alike —
// and starts the per-connection reader.
func (a *server) handshake(raw net.Conn) {
	c := newConn(raw)
	c.writeTimeout = a.sendTimeout
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
		inbox:   make(chan *Envelope, 4), // slack for a reply sent ahead of its reader; nothing relies on the size
		deadCh:  make(chan struct{}),
		pending: make(map[int64]chan *Envelope),
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
	// Forgotten before the swap: once liveWorker can reach the new
	// connection, no ack its predecessor earned bills it a catch-up.
	w.reg = a.acks.Forget(w.id)
	a.workers[w.id] = w
	hook := a.onRejoin
	a.mu.Unlock()
	go func() {
		for {
			env, err := c.recv(0)
			if err != nil {
				// A refused frame ends the connection, so the peer learns.
				c.close() //nolint:errcheck // already failed
				w.dead.Store(true)
				close(w.deadCh)
				close(w.inbox)
				return
			}
			// An update goes straight to the train request waiting for its
			// Seq, or nowhere: one that echoes no token (they start at 1) is
			// released like any straggler's, never queued where no round
			// would drain it. Profile replies and tree commits take the inbox.
			switch env.Type {
			case MsgUpdate:
				w.route(env.Update.Seq, env)
			case MsgCompressedUpdate:
				w.route(env.CompressedUpdate.Seq, env)
			default:
				w.inbox <- env
			}
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
func (a *server) acceptLoop(done <-chan struct{}) {
	for {
		select {
		case <-done:
			return
		default:
		}
		if a.admit(time.Now().Add(100*time.Millisecond)) != nil {
			return // listener closed
		}
	}
}

// liveWorker returns the registered worker with the given ID if its
// connection is still up, nil otherwise.
func (a *server) liveWorker(id int) *registered {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := a.workers[id]
	if w == nil || w.dead.Load() {
		return nil
	}
	return w
}

// anyLive reports whether any of the given workers has its connection up.
func (a *server) anyLive(ids []int) bool {
	for _, id := range ids {
		if a.liveWorker(id) != nil {
			return true
		}
	}
	return false
}

// roster returns every registered peer, live or not, sorted by ID.
func (a *server) roster() []*registered {
	a.mu.Lock()
	out := make([]*registered, 0, len(a.workers))
	for _, w := range a.workers {
		out = append(out, w)
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// ids returns the sorted registered client IDs.
func (a *server) ids() []int {
	var out []int
	for _, w := range a.roster() {
		out = append(out, w.id)
	}
	return out
}

// ProfileWorkers sends every registered worker one profiling task and
// returns measured training seconds per client — the network analogue of
// core.Profile. Workers that fail to reply within timeout, or whose reported
// seconds are not a positive finite number (the value seeds tier building
// and latency EWMAs, which neither order NaN nor bound Inf), are reported in
// the dropouts list.
func (a *server) ProfileWorkers(timeout time.Duration) (map[int]float64, []int, error) {
	peers := a.roster()
	lat := make(map[int]float64, len(peers))
	var dropouts []int
	for _, w := range peers {
		if err := w.c.send(&Envelope{Type: MsgProfile, Profile: &Profile{Weights: a.profileWeights}}); err != nil {
			dropouts = append(dropouts, w.id)
		}
	}
	for _, w := range peers {
		env, ok := recvTimeout(w, timeout)
		if !ok || env.Type != MsgProfileReply {
			dropouts = append(dropouts, w.id)
			continue
		}
		secs := env.ProfileReply.Seconds
		if !(secs > 0) || math.IsInf(secs, 1) { // NaN fails the first test
			dropouts = append(dropouts, w.id)
			continue
		}
		lat[w.id] = secs
	}
	if len(lat) == 0 {
		return nil, dropouts, fmt.Errorf("flnet: no workers completed profiling")
	}
	return lat, dropouts, nil
}

// recvTimeout pops the worker's next inbox message.
func recvTimeout(w *registered, timeout time.Duration) (*Envelope, bool) {
	var expired <-chan time.Time // nil, never ready: no timeout waits for good
	if timeout > 0 {
		expired = time.After(timeout)
	}
	select {
	case env, ok := <-w.inbox:
		return env, ok
	case <-expired:
		return nil, false
	}
}

// Aggregator is the synchronous FL server of Algorithm 1: it registers and
// optionally profiles workers, then drives FedAvg rounds over the cohorts a
// flcore.Selector picks, through the fan-in the tier loops and tree children run.
type Aggregator struct {
	*server
	cfg AggregatorConfig
	fan *fanIn
}

// NewAggregator listens on addr (e.g. "127.0.0.1:0").
func NewAggregator(addr string, cfg AggregatorConfig) (*Aggregator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	srv, err := listen(addr, cfg.SendTimeout, cfg.InitialWeights)
	if err != nil {
		return nil, err
	}
	return &Aggregator{server: srv, cfg: cfg, fan: newFanIn(srv, &obsState{}, FanInConfig{RoundTimeout: cfg.RoundTimeout})}, nil
}

// UniformSelector is vanilla FL over the workers registered so far, as a
// one-tier core.StaticSelector: each round draws clientsPerRound uniformly.
func (a *Aggregator) UniformSelector(clientsPerRound int) flcore.Selector {
	everyone := []core.Tier{{Members: a.ids()}}
	return core.NewStaticSelector(everyone, core.StaticPolicy{Name: "vanilla", Probs: []float64{1}}, clientsPerRound)
}

// Run drives cfg.Rounds synchronous rounds and returns the final weights
// plus per-round stats. sel picks each round's participants by worker ID
// from the source flcore.Engine.Run would hand it, and updates are averaged
// in selection order whatever order they arrive in: the same selector and
// seed give the simulation's run. Under over-selection the first
// ClientsPerRound decoded updates count.
func (a *Aggregator) Run(sel flcore.Selector) (*RunResult, error) {
	weights := append([]float64(nil), a.cfg.InitialWeights...)
	res := &RunResult{}
	for r := 0; r < a.cfg.Rounds; r++ {
		start := time.Now()
		rng := flcore.SelectionRNG(a.cfg.Seed, r)
		chosen := sel.Select(r, rng)
		if a.cfg.Overselect > 0 {
			chosen = a.overselect(chosen, rng)
		}
		cr := &cohortRound{RoundRequest: flcore.RoundRequest{Round: r, Base: weights}, target: a.cfg.ClientsPerRound}
		switch a.fan.gather(cr, chosen) {
		case flcore.RoundNoCohort:
			return nil, fmt.Errorf("flnet: round %d: no reachable workers", r)
		case flcore.RoundEmpty:
			return nil, fmt.Errorf("flnet: round %d: no updates before timeout", r)
		}
		stats := RoundStats{Round: r, Selected: len(chosen), Used: len(cr.updates), Discarded: len(chosen) - len(cr.updates)}
		plain := make([]flcore.Update, len(cr.updates))
		for i, u := range cr.updates {
			plain[i] = u.Update
			stats.UplinkBytes += int64(u.WireBytes)
		}
		flcore.FedAvgInto(weights, plain)
		recycle(cr.updates...)
		stats.Wall = time.Since(start)
		res.UplinkBytes += stats.UplinkBytes
		res.Rounds = append(res.Rounds, stats)
	}
	res.Weights = weights
	a.FinishWorkers(a.cfg.Rounds)
	return res, nil
}

// overselect tops the selector's picks up to ceil((1+Overselect)·target)
// with uniformly drawn spares from the rest of the roster.
func (a *Aggregator) overselect(chosen []int, rng *rand.Rand) []int {
	want := int(float64(a.cfg.ClientsPerRound)*(1+a.cfg.Overselect) + 0.999)
	picked := make(map[int]bool, want)
	for _, id := range chosen {
		picked[id] = true
	}
	all := a.ids()
	for _, i := range rng.Perm(len(all)) {
		if len(chosen) >= want {
			break
		}
		if !picked[all[i]] {
			chosen = append(chosen, all[i])
		}
	}
	return chosen
}

// FinishWorkers notifies every registered worker that training is over.
func (a *server) FinishWorkers(rounds int) {
	for _, w := range a.roster() {
		w.c.send(&Envelope{Type: MsgDone, Done: &Done{Rounds: rounds}}) //nolint:errcheck // best effort
	}
}

// decodeUpdate converts a worker's update envelope into an aggregatable
// flcore.Update against the round's broadcast weights, and releases the
// envelope's receive buffer or takes it over: this is the one place an
// update's blob is read. It enforces the handshake codec negotiation; a
// payload that fails to decode to a vector of the model's length —
// compressed or dense — is treated like a dropped worker: one bad update
// must not kill the round. So is a dense update holding a NaN or ±Inf,
// which FedAvg would spread over the whole model (one nn.AllFinite scan).
// Compressed updates are not checked for finiteness (ROADMAP item 4).
//
// A dense update's Weights view its receive buffer (nn.ViewWeights), and a
// compressed update decodes into a recycled one (vectorBlob); either way
// the result carries that buffer as blob for the caller to recycle once
// the round's aggregation has read it.
// The result's src is w; its idx is the caller's to set.
func decodeUpdate(w *registered, env *Envelope, weights []float64) (timedUpdate, bool) {
	defer env.release()
	switch env.Type {
	case MsgUpdate:
		// A dense update of the wrong length would panic FedAvg; drop it like
		// any other payload that does not decode to the model.
		if len(env.Update.Raw) != compress.DenseBytes(len(weights)) {
			return timedUpdate{}, false
		}
		uw, err := nn.ViewWeights(env.Update.Raw)
		if err != nil || !nn.AllFinite(uw) {
			return timedUpdate{}, false
		}
		return timedUpdate{Update: flcore.Update{
			ClientID: env.Update.ClientID, Weights: uw,
			NumSamples: env.Update.NumSamples,
			Latency:    env.Update.Seconds,
			WireBytes:  compress.DenseBytes(len(uw)),
		}, src: w, blob: env.take()}, true
	case MsgCompressedUpdate:
		cu := env.CompressedUpdate
		// Enforce the negotiation: updates must arrive under the worker's
		// negotiated codec (current, or the previous one during a live
		// renegotiation window).
		if !w.acceptsCodec(cu.Codec) {
			return timedUpdate{}, false
		}
		blob, out := vectorBlob(len(weights))
		rec, err := compress.AddDecoded(out, cu.Codec, cu.Payload, weights)
		if err != nil {
			putBlob(blob)
			return timedUpdate{}, false
		}
		return timedUpdate{Update: flcore.Update{
			ClientID: cu.ClientID, Weights: rec,
			NumSamples: cu.NumSamples, Latency: cu.Seconds,
			WireBytes: len(cu.Payload),
		}, src: w, blob: blob}, true
	}
	return timedUpdate{}, false
}
