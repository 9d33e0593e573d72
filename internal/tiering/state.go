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
// placements, an adaptive Manager's Algorithm-2 probabilities and credits
// (nil otherwise), and the rebuild counters — so a restored Manager
// continues the run exactly where the checkpointed one stopped (same cohort
// draws, same rebuild points).
//
// Blobs written by earlier Managers may carry fields State no longer has
// (Pinned migration pins, the Log of reassignments, the CommBytes wire-byte
// estimates, the HaveAccs flag and Draws counts of the retired commit-share
// fallback); gob skips a stream field the receiver lacks, so they restore
// unchanged and the retired state lapses. A non-adaptive Manager ignores
// the probabilities and credits such blobs always carry.
type State struct {
	Tiers   [][]int
	EWMA    map[int]float64
	Placed  map[int]float64
	Probs   []float64
	Credits []int

	Retiers, Rebuilds, Skipped, LastVersion int
}

// SnapshotState serializes the Manager's current state with gob. It is
// the flcore.TierManagerState implementation that makes managed runs
// checkpointable.
func (m *Manager) SnapshotState() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := State{
		Tiers:   copyTiers(m.tiers),
		EWMA:    make(map[int]float64, len(m.ewma)),
		Placed:  make(map[int]float64, len(m.placed)),
		Retiers: m.retiers, Rebuilds: m.rebuilds, Skipped: m.skipped,
		LastVersion: m.lastVersion,
	}
	if m.alg2 != nil {
		s.Probs, s.Credits = m.alg2.Snapshot()
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
// member (a rebuild places only clients it has one for), and, for an
// adaptive Manager, core.AdaptiveState.Restore's checks on the
// probabilities and credits.
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
	// Checked last: Restore validates before it assigns, so a refused blob
	// changes nothing.
	if m.alg2 != nil {
		if err := m.alg2.Restore(s.Probs, s.Credits); err != nil {
			return fmt.Errorf("tiering: state: %w", err)
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
	m.retiers, m.rebuilds, m.skipped = s.Retiers, s.Rebuilds, s.Skipped
	m.lastVersion = s.LastVersion
	return nil
}

var _ flcore.TierManagerState = (*Manager)(nil)
