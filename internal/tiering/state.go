package tiering

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"repro/internal/flcore"
)

// State is the serializable snapshot of a Manager, carried opaquely inside
// flcore.TieredCheckpoint.ManagerState. It captures everything behind the
// Manager's mutex — membership, EWMA latency estimates, hysteresis
// placements, Algorithm-2 probabilities and credits, and the rebuild
// counters — so a restored Manager continues the run exactly where the
// checkpointed one stopped (same cohort draws, same rebuild points).
//
// Blobs written by earlier Managers may carry fields State no longer has
// (Pinned migration pins, the Log of reassignments, the CommBytes wire-byte
// estimates); gob skips a stream field the receiver lacks, so they restore
// unchanged and the retired state lapses.
type State struct {
	Tiers    [][]int
	EWMA     map[int]float64
	Placed   map[int]float64
	Probs    []float64
	HaveAccs bool
	Credits  []int
	Draws    []int

	Retiers, Rebuilds, Skipped, LastVersion int
}

// SnapshotState serializes the Manager's current state with gob. It is
// the flcore.TierManagerState implementation that makes managed runs
// checkpointable.
func (m *Manager) SnapshotState() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := State{
		Tiers:    copyTiers(m.tiers),
		EWMA:     make(map[int]float64, len(m.ewma)),
		Placed:   make(map[int]float64, len(m.placed)),
		Probs:    append([]float64(nil), m.probs...),
		HaveAccs: m.haveAccs,
		Credits:  append([]int(nil), m.credits...),
		Draws:    append([]int(nil), m.draws...),
		Retiers:  m.retiers, Rebuilds: m.rebuilds, Skipped: m.skipped,
		LastVersion: m.lastVersion,
	}
	for c, v := range m.ewma {
		s.EWMA[c] = v
	}
	for c, v := range m.placed {
		s.Placed[c] = v
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		return nil, fmt.Errorf("tiering: encoding manager state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState replaces the Manager's state with a blob produced by
// SnapshotState. The Manager must have been constructed with the same tier
// count the snapshot maintains (NewManager over any profile of the same
// population; the restored EWMAs supersede the profile's estimates). The
// blob comes off disk, so every number in it is checked before any state
// changes: latencies finite and positive, an estimate for every tier
// member (a rebuild places only clients it has one for), probabilities a
// distribution, and no negative credits or draws.
func (m *Manager) RestoreState(data []byte) error {
	var s State
	r := bytes.NewReader(data)
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("tiering: decoding manager state: %w", err)
	}
	if r.Len() > 0 {
		return fmt.Errorf("tiering: manager state has %d bytes of trailing garbage", r.Len())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(s.Tiers) != m.cfg.NumTiers {
		return fmt.Errorf("tiering: state has %d tiers, manager maintains %d", len(s.Tiers), m.cfg.NumTiers)
	}
	if len(s.Probs) != len(s.Tiers) || len(s.Credits) != len(s.Tiers) || len(s.Draws) != len(s.Tiers) {
		return fmt.Errorf("tiering: state vectors (%d probs, %d credits, %d draws) do not match %d tiers",
			len(s.Probs), len(s.Credits), len(s.Draws), len(s.Tiers))
	}
	tierOf := make(map[int]int, len(s.EWMA))
	for t, members := range s.Tiers {
		if len(members) == 0 {
			return fmt.Errorf("tiering: state tier %d is empty", t)
		}
		for _, c := range members {
			if prev, dup := tierOf[c]; dup {
				return fmt.Errorf("tiering: state places client %d in tiers %d and %d", c, prev, t)
			}
			if _, ok := s.EWMA[c]; !ok {
				return fmt.Errorf("tiering: state has no latency estimate for tier %d member %d", t, c)
			}
			tierOf[c] = t
		}
	}
	for name, lat := range map[string]map[int]float64{"estimate": s.EWMA, "placement": s.Placed} {
		for c, v := range lat {
			if !(v > 0) || math.IsInf(v, 0) {
				return fmt.Errorf("tiering: state %s latency %v for client %d is not finite and positive", name, v, c)
			}
		}
	}
	sum := 0.0
	for t, p := range s.Probs {
		if !(p >= 0) || math.IsInf(p, 0) {
			return fmt.Errorf("tiering: state probability %v for tier %d", p, t)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("tiering: state probabilities sum to %v, not 1", sum)
	}
	for t := range s.Tiers {
		if s.Credits[t] < 0 || s.Draws[t] < 0 {
			return fmt.Errorf("tiering: state tier %d has %d credits and %d draws", t, s.Credits[t], s.Draws[t])
		}
	}
	m.tiers = copyTiers(s.Tiers)
	m.tierOf = tierOf
	m.ewma = make(map[int]float64, len(s.EWMA))
	for c, v := range s.EWMA {
		m.ewma[c] = v
	}
	m.placed = make(map[int]float64, len(s.Placed))
	for c, v := range s.Placed {
		m.placed[c] = v
	}
	m.probs = append([]float64(nil), s.Probs...)
	m.haveAccs = s.HaveAccs
	m.credits = append([]int(nil), s.Credits...)
	m.draws = append([]int(nil), s.Draws...)
	m.retiers, m.rebuilds, m.skipped = s.Retiers, s.Rebuilds, s.Skipped
	m.lastVersion = s.LastVersion
	return nil
}

var _ flcore.TierManagerState = (*Manager)(nil)
