package tiering

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/flcore"
)

// State is the serializable snapshot of a Manager, carried opaquely inside
// flcore.TieredCheckpoint.ManagerState. It captures everything behind the
// Manager's mutex — membership, EWMA latency estimates, hysteresis
// placements, Algorithm-2 probabilities and credits, and the rebuild
// counters — so a restored Manager continues the run exactly where the
// checkpointed one stopped (same cohort draws, same rebuild points).
//
// Blobs written while the Manager still had migration pins carry a Pinned
// field; gob skips a stream field the receiver lacks, so they restore
// unchanged and the pins lapse.
type State struct {
	Tiers    [][]int
	EWMA     map[int]float64
	Placed   map[int]float64
	Probs    []float64
	HaveAccs bool
	Credits  []int
	Draws    []int

	Retiers, Rebuilds, Skipped, LastVersion int
	Log                                     []Reassignment

	// CommBytes carries the per-client wire-byte EWMAs (comm-aware
	// tiering). Snapshots from before the field gob-decode to nil, which
	// restores as an empty map — byte estimates simply rebuild from the
	// resumed run's observations.
	CommBytes map[int]float64
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
	s.CommBytes = make(map[int]float64, len(m.commBytes))
	for c, v := range m.commBytes {
		s.CommBytes[c] = v
	}
	for c, v := range m.placed {
		s.Placed[c] = v
	}
	for _, r := range m.log {
		s.Log = append(s.Log, Reassignment{Version: r.Version, Moves: append([]Move(nil), r.Moves...)})
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
// population; the restored EWMAs supersede the profile's estimates).
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
			tierOf[c] = t
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
	m.commBytes = make(map[int]float64, len(s.CommBytes))
	for c, v := range s.CommBytes {
		m.commBytes[c] = v
	}
	m.probs = append([]float64(nil), s.Probs...)
	m.haveAccs = s.HaveAccs
	m.credits = append([]int(nil), s.Credits...)
	m.draws = append([]int(nil), s.Draws...)
	m.retiers, m.rebuilds, m.skipped = s.Retiers, s.Rebuilds, s.Skipped
	m.lastVersion = s.LastVersion
	m.log = m.log[:0]
	for _, rec := range s.Log {
		m.log = append(m.log, Reassignment{Version: rec.Version, Moves: append([]Move(nil), rec.Moves...)})
	}
	return nil
}

var _ flcore.TierManagerState = (*Manager)(nil)
