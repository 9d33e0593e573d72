package flcore

import (
	"sync"
	"testing"

	"repro/internal/compress"
)

// ackTrainer reaches every member on the registration regs names (0 by
// default) and counts a reply from every bill whose member is not muted,
// echoing the round's base. It keeps the last round's bills.
type ackTrainer struct {
	regs  map[int]int
	mute  map[int]bool
	bills []Bill
}

func (s *ackTrainer) Reach(_, _, member int) (int, bool) { return s.regs[member], true }

func (s *ackTrainer) Train(req *RoundRequest) ([]Reply, int64, RoundStatus) {
	s.bills = append(s.bills[:0], req.Bills...)
	var replies []Reply
	var down int64
	for i, b := range req.Bills {
		down += int64(b.Bytes)
		if !s.mute[b.Member] {
			replies = append(replies, Reply{Update: Update{Weights: req.Base, NumSamples: 1}, Bill: i, Reg: b.Reg})
		}
	}
	if len(replies) == 0 {
		return nil, down, RoundEmpty
	}
	return replies, down, RoundCommitted
}

// ackHarness plays tier rounds of a drifting model through RunTierRound,
// one delta+int8 chain per tier and one ledger, and records whether the
// subject (member 1) was billed a catch-up in each round it took part in.
type ackHarness struct {
	t      *testing.T
	acks   AckLedger
	chains map[int]*compress.Chain
	tr     ackTrainer
	cohort []int
	w      []float64
	rounds int
	caught []bool
}

func newAckHarness(t *testing.T) *ackHarness {
	return &ackHarness{
		t: t, chains: map[int]*compress.Chain{}, cohort: []int{1, 2}, w: make([]float64, 256),
		tr: ackTrainer{regs: map[int]int{}, mute: map[int]bool{}},
	}
}

// round runs one round of tier pulled at global version at.
func (h *ackHarness) round(tier, at int) {
	h.t.Helper()
	ch := h.chains[tier]
	if ch == nil {
		ch = (&compress.Downlink{Codec: compress.NewInt8(0)}).NewChain()
		h.chains[tier] = ch
	}
	h.rounds++
	for i := range h.w {
		h.w[i] += 0.01 * float64((i+h.rounds)%7-3)
	}
	var c Commit
	RunTierRound(TierPull{Tier: tier, Version: at, Round: h.rounds, Cohort: h.cohort, Weights: h.w}, ch, &h.acks, &h.tr, &c)
	for _, b := range h.tr.bills {
		if b.Member == 1 {
			h.caught = append(h.caught, b.Delta != nil)
		}
	}
}

// TestAckLedger is one row per rule of the downlink ack: what the subject
// is billed in its last round after the row's script. Every rule is the
// ledger's and RunTierRound's, so the sim, the flat root and a tree child
// bill alike.
func TestAckLedger(t *testing.T) {
	for _, row := range []struct {
		name   string
		script func(h *ackHarness)
		catch  bool // the last bill is a catch-up
	}{
		{"first contact is dense", func(h *ackHarness) { h.round(0, 0) }, false},
		{"a counted reply earns a catch-up", func(h *ackHarness) { h.round(0, 0); h.round(0, 1) }, true},
		{"an uncounted reply spends the ack", func(h *ackHarness) {
			h.round(0, 0)
			h.tr.mute[1] = true
			h.round(0, 1)
			h.tr.mute[1] = false
			h.round(0, 2)
		}, false},
		{"a move between the ack's pull and the spend's voids it", func(h *ackHarness) {
			h.round(0, 0)
			h.acks.Move(1, 1)
			h.round(0, 2)
		}, false},
		{"a move after the spend's pull does not", func(h *ackHarness) {
			h.round(0, 0)
			h.acks.Move(1, 3)
			h.round(0, 2)
		}, true},
		{"moved back before training elsewhere is dense", func(h *ackHarness) {
			h.round(0, 0)
			h.acks.Move(1, 1)
			h.acks.Move(1, 2)
			h.round(0, 3)
		}, false},
		{"acks are per tier", func(h *ackHarness) { h.round(0, 0); h.round(1, 1); h.round(0, 2) }, true},
		{"another tier's ack bills nothing", func(h *ackHarness) { h.round(0, 0); h.round(1, 1) }, false},
		{"a re-registration is dense", func(h *ackHarness) {
			h.round(0, 0)
			h.tr.regs[1] = h.acks.Forget(1)
			h.round(0, 1)
		}, false},
		{"a late reply on the old registration earns the new one nothing", func(h *ackHarness) {
			h.round(0, 0)
			h.tr.regs[1] = h.acks.Forget(1)
			h.acks.Ack(1, 0, 0, h.chains[0].Version(), 0)
			h.round(0, 1)
		}, false},
		{"a gap inside the ring catches up", func(h *ackHarness) {
			h.round(0, 0)
			h.cohort = []int{2}
			h.round(0, 1)
			h.round(0, 2)
			h.cohort = []int{1, 2}
			h.round(0, 3)
		}, true},
		{"a gap older than the ring is dense", func(h *ackHarness) {
			h.round(0, 0)
			h.cohort = []int{2}
			for at := 1; at < 20; at++ {
				h.round(0, at)
			}
			h.cohort = []int{1, 2}
			h.round(0, 20)
		}, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			h := newAckHarness(t)
			row.script(h)
			if got := h.caught[len(h.caught)-1]; got != row.catch {
				t.Fatalf("last bill is a catch-up: %v, want %v (bills %v)", got, row.catch, h.caught)
			}
		})
	}

	// Tier goroutines share one ledger, as a flat root's tier loops do:
	// under -race, every member's every round after its first in a tier is
	// a one-step catch-up, whatever the other tiers do meanwhile.
	t.Run("concurrent tiers", func(t *testing.T) {
		var acks AckLedger
		var wg sync.WaitGroup
		for tier := 0; tier < 4; tier++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ch := (&compress.Downlink{Codec: compress.NewInt8(0)}).NewChain()
				tr := &ackTrainer{}
				w := make([]float64, 64)
				var c Commit
				for r := 0; r < 30; r++ {
					w[r%len(w)] += 0.5
					acks.Move(100+tier, r) // a member no round trains
					p := TierPull{Tier: tier, Version: r, Round: r, Cohort: []int{0, 1, 2, 3, 4, 5}, Weights: w}
					if RunTierRound(p, ch, &acks, tr, &c) != RoundCommitted {
						t.Errorf("tier %d round %d did not commit", tier, r)
						return
					}
					for _, b := range tr.bills {
						if catchUp := len(b.Delta) == 1; catchUp != (r > 0) {
							t.Errorf("tier %d round %d member %d billed %d payloads", tier, r, b.Member, len(b.Delta))
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}
