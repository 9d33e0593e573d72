package core

import (
	"fmt"
	"math/rand"
	"sort"
)

// DeadlineSelector is the FedCS baseline (Nishio & Yonetani, reference [28]
// of the TiFL paper): client selection filters to clients whose profiled
// response latency fits within a per-round deadline, then draws uniformly
// among them. Unlike TiFL it is accuracy-blind — clients beyond the
// deadline simply never contribute, which is exactly the data-exclusion
// bias the paper criticizes.
type DeadlineSelector struct {
	Deadline        float64
	ClientsPerRound int

	eligible []int
	fastest  []int // fallback ordering when too few clients fit
}

// NewDeadlineSelector builds the FedCS-style selector from profiled
// latencies. If fewer than clientsPerRound clients fit the deadline, the
// fastest clients are used regardless (FedCS would shrink the round; we
// keep |C| fixed like the rest of the harness).
func NewDeadlineSelector(latency map[int]float64, deadline float64, clientsPerRound int) *DeadlineSelector {
	if len(latency) == 0 {
		panic("core: DeadlineSelector with no profiled clients")
	}
	if deadline <= 0 || clientsPerRound <= 0 {
		panic(fmt.Sprintf("core: invalid deadline %v / clientsPerRound %d", deadline, clientsPerRound))
	}
	type cl struct {
		id  int
		lat float64
	}
	all := make([]cl, 0, len(latency))
	for id, l := range latency {
		all = append(all, cl{id, l})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].lat != all[j].lat {
			return all[i].lat < all[j].lat
		}
		return all[i].id < all[j].id
	})
	s := &DeadlineSelector{Deadline: deadline, ClientsPerRound: clientsPerRound}
	for _, c := range all {
		s.fastest = append(s.fastest, c.id)
		if c.lat <= deadline {
			s.eligible = append(s.eligible, c.id)
		}
	}
	return s
}

// Select implements flcore.Selector.
func (s *DeadlineSelector) Select(r int, rng *rand.Rand) []int {
	pool := s.eligible
	if len(pool) < s.ClientsPerRound {
		pool = s.fastest[:s.ClientsPerRound]
	}
	return sampleClients(pool, s.ClientsPerRound, rng)
}
