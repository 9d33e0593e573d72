package flcore

import (
	"slices"
	"sync"

	"repro/internal/compress"
)

// AckLedger records, per (member, tier), the downlink chain state a member
// is known to hold: the one ack rule behind every catch-up. A counted reply
// acks its round's state; the member's next request in that tier spends
// it, so a member whose reply was not counted is sent the dense model next.
// Acks are per tier, as workers keep their bases: a migrating member can be
// sent its old and its new tier's requests in either order. Safe for
// concurrent use; the zero value is ready.
type AckLedger struct {
	mu    sync.Mutex
	acks  map[int][]ack // per member, at most one per tier
	moves map[int][]int // per member, the versions re-tierings moved it at (never pruned)
	regs  int           // the last registration number Forget handed out
}

// ack is the chain state ver the member holds in tier, earned on
// registration reg by a round pulled at global version at.
type ack struct{ tier, ver, reg, at int }

// Spend returns, and forgets, the chain state member holds in tier, for a
// request on registration reg of a round pulled at global version at: 0
// when none is known. An ack earned on another registration names a base
// this connection never received, and one is void once a re-tiering moved
// the member after its round's pull and no later than this one's: a
// migration takes effect at the pulls after it, however late a runtime
// sends a request it pulled earlier.
func (l *AckLedger) Spend(member, reg, tier, at int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	acks := l.acks[member]
	i := slices.IndexFunc(acks, func(a ack) bool { return a.tier == tier })
	if i < 0 {
		return 0
	}
	a := acks[i]
	l.acks[member] = slices.Delete(acks, i, i+1)
	if a.reg != reg || slices.ContainsFunc(l.moves[member], func(m int) bool { return a.at < m && m <= at }) {
		return 0
	}
	return a.ver
}

// Ack records that tier counted member's reply, arrived on registration
// reg, to the broadcast of chain state ver pulled at global version at.
func (l *AckLedger) Ack(member, reg, tier, ver, at int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.acks == nil {
		l.acks = make(map[int][]ack)
	}
	acks := slices.DeleteFunc(l.acks[member], func(a ack) bool { return a.tier == tier })
	l.acks[member] = append(acks, ack{tier: tier, ver: ver, reg: reg, at: at})
}

// Move records a re-tiering that moved member at global version version.
func (l *AckLedger) Move(member, version int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.moves == nil {
		l.moves = make(map[int][]int)
	}
	l.moves[member] = append(l.moves[member], version)
}

// Forget drops member's acks — it churned out of a round, or registered a
// new connection — and returns a registration number no earlier ack
// carries, for the new connection to be tagged with before it is
// reachable: a late reply on the old one then earns the new one nothing.
func (l *AckLedger) Forget(member int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.acks, member)
	l.regs++
	return l.regs
}

// Bill is what one reached member, reached on registration Reg, is sent:
// the chain's payloads from its acked state From (the chain's slices,
// valid for the round), or with Delta nil the round's base, dense. Bytes
// is what the wire carries.
type Bill struct {
	Member, Reg, From int
	Delta             [][]byte
	Bytes             int
}

// RoundRequest is one tier round on its way to its reached cohort. Base
// (read-only) is what the cohort trains from: the chain's post-round base
// in state ChainVersion, which every catch-up rebuilds, or without a chain
// (ChainVersion 0) the pull's weights; DeltaCodec is the payloads' codec.
// Bills are the members Reach accepted, in the order it accepted them.
type RoundRequest struct {
	Tier, Round, ChainVersion int
	DeltaCodec                byte
	Base                      []float64
	Bills                     []Bill
}

// Reply is one counted answer: the update (its ClientID unread), the index
// of the bill it answers, and the registration it arrived on.
type Reply struct {
	Update
	Bill, Reg int
}

// RoundStatus is how one attempted tier round ended.
type RoundStatus int

const (
	RoundCommitted RoundStatus = iota // replies were aggregated into a Commit
	RoundNoCohort                     // no member could be reached or sent to; the tier redraws
	RoundEmpty                        // the cohort was reached but no reply was counted
	RoundAbort                        // the run ended while the round waited
)

// Trainer is how a runtime reaches and trains a tier round's cohort.
type Trainer interface {
	// Reach reports whether member can take part in round of tier, and the
	// registration its request goes out on (0 where nothing reconnects).
	Reach(tier, round, member int) (reg int, ok bool)
	// Train sends every bill and trains; it returns the counted replies in
	// any order (read before Train is called again), the downlink bytes it
	// sent, redispatches included, and how the round ended.
	Train(req *RoundRequest) (replies []Reply, downlink int64, status RoundStatus)
}

// RunTierRound is TiFL's unit of work, once for every runtime: it runs
// tier round p through tr and fills c (reusing its Weights and Observed)
// with the commit. It filters the cohort to the members tr reaches,
// advances the tier's chain ch once (nil: dense), bills each member a
// catch-up from its ack or the dense base, has tr train the bills, then
// FedAvgs the replies in cohort order and acks the repliers. Any status
// but RoundCommitted leaves c unspecified. The synchronous engine and the
// socket runtimes call it whole; the tiered sim runs its two halves,
// billTierRound and commitTierRound, apart, training on its trainer pool.
func RunTierRound(p TierPull, ch *compress.Chain, acks *AckLedger, tr Trainer, c *Commit) RoundStatus {
	req := &RoundRequest{Bills: make([]Bill, 0, len(p.Cohort))}
	if !billTierRound(p, ch, acks, tr.Reach, req) {
		return RoundNoCohort
	}
	replies, down, status := tr.Train(req)
	if status != RoundCommitted {
		return status
	}
	commitTierRound(p, acks, req, replies, down, c)
	return RoundCommitted
}

// billTierRound is a tier round's dispatch half: it fills req, reusing its
// Bills, with the members of p's cohort reach accepts, advances ch and
// bills each member. It reports false, leaving the chain alone, when no
// member was reached.
func billTierRound(p TierPull, ch *compress.Chain, acks *AckLedger, reach func(tier, round, member int) (reg int, ok bool), req *RoundRequest) bool {
	*req = RoundRequest{Tier: p.Tier, Round: p.Round, Base: p.Weights, Bills: req.Bills[:0]}
	for _, m := range p.Cohort {
		if reg, ok := reach(p.Tier, p.Round, m); ok {
			req.Bills = append(req.Bills, Bill{Member: m, Reg: reg})
		}
	}
	if len(req.Bills) == 0 {
		return false
	}
	// One payload per round, whatever the cohort; the round proceeds from
	// the chain's post-round base, so under a lossy codec training, uplink
	// reconstruction and dense sends all see what catch-ups rebuild.
	if ch != nil {
		if ch.HasBase() {
			_, req.DeltaCodec = ch.Encode(p.Weights)
		} else {
			ch.Adopt(p.Weights)
		}
		req.Base, req.ChainVersion = ch.Base(), ch.Version()
	}
	for i := range req.Bills {
		b := &req.Bills[i]
		b.Bytes = compress.DenseBytes(len(p.Weights))
		if ch != nil {
			b.From = acks.Spend(b.Member, b.Reg, p.Tier, p.Version)
			if payloads, n := ch.CatchUp(b.From); n > 0 {
				b.Delta, b.Bytes = payloads, n
			}
		}
	}
	return true
}

// commitTierRound is a tier round's commit half: it FedAvgs the replies to
// req, sorted into cohort order, into c, charges it down downlink bytes and
// acks the repliers under a chain.
func commitTierRound(p TierPull, acks *AckLedger, req *RoundRequest, replies []Reply, down int64, c *Commit) {
	// FedAvg's float sums are order-sensitive: cohort order, not arrival.
	slices.SortFunc(replies, func(a, b Reply) int { return a.Bill - b.Bill })
	updates := make([]Update, len(replies))
	c.Observed = grow(c.Observed, len(replies))
	c.UplinkBytes = 0
	for i, r := range replies {
		m := req.Bills[r.Bill].Member
		updates[i] = r.Update
		c.UplinkBytes += int64(r.WireBytes)
		c.Observed[i] = Observation{Client: m, Seconds: r.Latency}
		if req.ChainVersion != 0 {
			acks.Ack(m, r.Reg, p.Tier, req.ChainVersion, p.Version)
		}
	}
	c.Weights = grow(c.Weights, len(req.Base))
	FedAvgInto(c.Weights, updates)
	c.Tier, c.TierRound, c.PulledVersion, c.DownlinkBytes = p.Tier, p.Round, p.Version, down
}
