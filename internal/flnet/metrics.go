package flnet

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Live observability for the tiered-async aggregator: an opt-in HTTP
// endpoint (TieredAsyncConfig.MetricsAddr) serving JSON snapshots of the
// run — per-tier commit progress and round rate, last staleness, EWMA
// latency estimates, uplink/downlink traffic, and checkpoint freshness —
// so a long-horizon FedAT run is no longer a black box between its log
// lines. The endpoint is read-only and allocation-light; it never touches
// the training hot path beyond the obsState mutex.

// TierMetrics is one tier's slice of a MetricsSnapshot.
type TierMetrics struct {
	Tier    int `json:"tier"`
	Members int `json:"members"`
	// Commits is the tier's cumulative applied commits (including commits
	// restored from a checkpoint); RoundRatePerSec is this process's
	// commit rate since Run started.
	Commits         int     `json:"commits"`
	RoundRatePerSec float64 `json:"round_rate_per_sec"`
	// LastStaleness and LastRoundSeconds describe the tier's most recent
	// applied commit.
	LastStaleness    int     `json:"last_staleness"`
	LastRoundSeconds float64 `json:"last_round_seconds"`
	// MeanEWMASeconds is the mean of the tiering Manager's EWMA latency
	// estimates over the tier's members (0 without a Manager).
	MeanEWMASeconds float64 `json:"mean_ewma_seconds"`
	// LiveMemberFraction is the fraction of the tier's members whose
	// connections are up right now (flat runs: live worker connections;
	// tree runs: 1 or 0 by the tier's child-aggregator liveness).
	LiveMemberFraction float64 `json:"live_member_fraction"`
}

// ChildMetrics is one child aggregator's slice of a tree-run
// MetricsSnapshot: which tier the child serves, its self-reported address,
// whether its connection is still up, the age of its last applied partial
// (commit), and the cumulative leaf→child uplink traffic it has reported
// upstream.
type ChildMetrics struct {
	Tier  int    `json:"tier"`
	Addr  string `json:"addr,omitempty"`
	Alive bool   `json:"alive"`
	// LastPartialAgeSeconds is the age of the child's most recent applied
	// commit (-1 = none applied yet).
	LastPartialAgeSeconds float64 `json:"last_partial_age_seconds"`
	// UplinkBytes is the child's cumulative reported leaf-side update
	// traffic across its applied commits.
	UplinkBytes int64 `json:"uplink_bytes"`
	// DownlinkBytes is the child's cumulative reported leaf-side broadcast
	// traffic across its applied commits — delta payloads where the
	// child's version-acked scheme allowed them, dense snapshots otherwise.
	DownlinkBytes int64 `json:"downlink_bytes"`
}

// Worker connection states reported in WorkerMetrics.State.
const (
	// WorkerConnected: the worker's connection is live.
	WorkerConnected = "connected"
	// WorkerBackingOff: the connection is down but the worker still holds
	// a tier slot, so the run expects it back (reconnecting workers are in
	// their backoff loop from the aggregator's point of view).
	WorkerBackingOff = "backing-off"
	// WorkerEvicted: the connection is down and no tier holds the worker —
	// it sits out the rest of the run unless a re-tiering re-admits it.
	WorkerEvicted = "evicted"
)

// WorkerMetrics is one worker's connection row in a MetricsSnapshot: the
// registration state as the aggregator sees it, the tier currently holding
// the worker (-1 = none), and how many times it has re-registered mid-run.
type WorkerMetrics struct {
	ID         int    `json:"id"`
	Tier       int    `json:"tier"`
	State      string `json:"state"`
	Reconnects int    `json:"reconnects"`
}

// MetricsSnapshot is the GET /metrics response body.
type MetricsSnapshot struct {
	Running       bool          `json:"running"`
	Version       int           `json:"version"`
	TargetCommits int           `json:"target_commits"`
	UptimeSeconds float64       `json:"uptime_seconds"`
	LiveWorkers   int           `json:"live_workers"`
	Tiers         []TierMetrics `json:"tiers"`
	// Workers carries per-worker connection rows on flat runs (empty on
	// tree runs, where leaf connections live at the child aggregators).
	Workers []WorkerMetrics `json:"workers,omitempty"`
	// Children carries per-child-aggregator rows on tree runs (empty on
	// flat runs).
	Children      []ChildMetrics `json:"children,omitempty"`
	UplinkBytes   int64          `json:"uplink_bytes"`
	DownlinkBytes int64          `json:"downlink_bytes"`
	Retiers       int            `json:"retiers"`
	Reassigned    int            `json:"reassigned"`
	// Reconnects counts worker re-registrations, Retries counts mid-round
	// request redispatches to rejoined workers, and ChildRejoins counts
	// tree child-aggregator revivals.
	Reconnects   int `json:"reconnects"`
	Retries      int `json:"retries"`
	ChildRejoins int `json:"child_rejoins"`
	// LastCheckpointVersion is the global version of the newest durable
	// snapshot (0 = none yet); LastCheckpointAgeSeconds its age (-1 = none
	// yet). LastCheckpointError surfaces a failed write.
	LastCheckpointVersion    int     `json:"last_checkpoint_version"`
	LastCheckpointAgeSeconds float64 `json:"last_checkpoint_age_seconds"`
	LastCheckpointError      string  `json:"last_checkpoint_error,omitempty"`
}

// obsState accumulates the observable side of a tiered-async run. All
// writers come through its methods; the HTTP handler only reads.
type obsState struct {
	mu            sync.Mutex
	running       bool
	started       time.Time
	target        int
	version       int
	commits       []int // cumulative per tier
	startCommits  []int // baseline at Run start (round-rate zero point)
	lastStaleness []int
	lastSeconds   []float64
	members       []int
	uplink        int64
	downlink      int64
	retiers       int
	reassigned    int
	ckptVersion   int
	ckptTime      time.Time
	ckptErr       string
	children      []childObs // tree runs: per-child-aggregator rows
	// Self-healing counters: per-worker and total re-registrations,
	// mid-round redispatches, and tree child revivals.
	reconnects      map[int]int
	totalReconnects int
	retries         int
	childRejoins    int
}

// noteReconnect records worker id re-registering mid-run.
func (o *obsState) noteReconnect(id int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.reconnects == nil {
		o.reconnects = make(map[int]int)
	}
	o.reconnects[id]++
	o.totalReconnects++
}

// noteRetry records one mid-round request redispatch to a rejoined worker.
func (o *obsState) noteRetry() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.retries++
}

// noteChildRejoin records tier t's child aggregator being revived.
func (o *obsState) noteChildRejoin(t int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.childRejoins++
}

// childObs is one child aggregator's observable state (tree runs).
type childObs struct {
	addr     string
	alive    bool
	last     time.Time // last applied partial (zero = none yet)
	uplink   int64     // cumulative reported leaf-side uplink bytes
	downlink int64     // cumulative reported leaf-side broadcast bytes
}

// noteChildUp records a child aggregator joining the tree at tier t.
func (o *obsState) noteChildUp(t int, addr string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.children) <= t {
		o.children = append(o.children, childObs{})
	}
	o.children[t] = childObs{addr: addr, alive: true}
}

// noteChildCommit records one applied partial from tier t's child.
func (o *obsState) noteChildCommit(t int, uplink, downlink int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if t < 0 || t >= len(o.children) {
		return
	}
	o.children[t].last = time.Now()
	o.children[t].uplink += uplink
	o.children[t].downlink += downlink
}

// noteChildDown marks tier t's child connection as gone.
func (o *obsState) noteChildDown(t int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if t < 0 || t >= len(o.children) {
		return
	}
	o.children[t].alive = false
}

// noteRunStart arms the observable state for a run over numTiers tiers,
// seeding the cumulative counters from a resumed checkpoint's totals.
func (o *obsState) noteRunStart(target int, version int, commits []int, retiers, reassigned int, uplink int64, memberCounts []int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := len(memberCounts)
	o.running = true
	o.started = time.Now()
	o.target = target
	o.version = version
	o.commits = append([]int(nil), commits...)
	o.startCommits = append([]int(nil), commits...)
	o.lastStaleness = make([]int, n)
	o.lastSeconds = make([]float64, n)
	o.members = append([]int(nil), memberCounts...)
	o.retiers, o.reassigned = retiers, reassigned
	o.uplink = uplink
}

// noteRunEnd marks the run finished.
func (o *obsState) noteRunEnd() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.running = false
}

// noteCommit records one applied commit.
func (o *obsState) noteCommit(s TierCommitStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.version = s.Version
	if s.Tier >= 0 && s.Tier < len(o.commits) {
		o.commits[s.Tier]++
		o.lastStaleness[s.Tier] = s.Staleness
		o.lastSeconds[s.Tier] = s.Seconds
	}
	o.uplink += s.UplinkBytes
}

// noteRetier records one applied re-tiering and the new member counts.
func (o *obsState) noteRetier(moved int, memberCounts []int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.retiers++
	o.reassigned += moved
	o.members = append(o.members[:0], memberCounts...)
}

// addDownlink accumulates broadcast traffic.
func (o *obsState) addDownlink(n int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.downlink += n
}

// noteCheckpoint records a checkpoint write attempt.
func (o *obsState) noteCheckpoint(version int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err != nil {
		o.ckptErr = err.Error()
		return
	}
	o.ckptErr = ""
	o.ckptVersion = version
	o.ckptTime = time.Now()
}

// Metrics assembles the current observability snapshot. It is what the
// HTTP endpoint serves, exported so in-process supervisors (and tests)
// can poll without the HTTP round trip.
func (ta *TieredAsyncAggregator) Metrics() MetricsSnapshot {
	o := ta.obs
	o.mu.Lock()
	snap := MetricsSnapshot{
		Running:               o.running,
		Version:               o.version,
		TargetCommits:         o.target,
		LiveWorkers:           0,
		UplinkBytes:           o.uplink,
		DownlinkBytes:         o.downlink,
		Retiers:               o.retiers,
		Reassigned:            o.reassigned,
		Reconnects:            o.totalReconnects,
		Retries:               o.retries,
		ChildRejoins:          o.childRejoins,
		LastCheckpointVersion: o.ckptVersion,
		LastCheckpointError:   o.ckptErr,
	}
	perWorkerReconnects := make(map[int]int, len(o.reconnects))
	for id, n := range o.reconnects {
		perWorkerReconnects[id] = n
	}
	snap.LastCheckpointAgeSeconds = -1
	if !o.ckptTime.IsZero() {
		snap.LastCheckpointAgeSeconds = time.Since(o.ckptTime).Seconds()
	}
	var elapsed float64
	if !o.started.IsZero() {
		elapsed = time.Since(o.started).Seconds()
		snap.UptimeSeconds = elapsed
	}
	for t := range o.commits {
		tm := TierMetrics{
			Tier:          t,
			Commits:       o.commits[t],
			LastStaleness: o.lastStaleness[t],
		}
		if t < len(o.lastSeconds) {
			tm.LastRoundSeconds = o.lastSeconds[t]
		}
		if t < len(o.members) {
			tm.Members = o.members[t]
		}
		if elapsed > 0 && t < len(o.startCommits) {
			tm.RoundRatePerSec = float64(o.commits[t]-o.startCommits[t]) / elapsed
		}
		snap.Tiers = append(snap.Tiers, tm)
	}
	for t, c := range o.children {
		cm := ChildMetrics{Tier: t, Addr: c.addr, Alive: c.alive, UplinkBytes: c.uplink, DownlinkBytes: c.downlink}
		cm.LastPartialAgeSeconds = -1
		if !c.last.IsZero() {
			cm.LastPartialAgeSeconds = time.Since(c.last).Seconds()
		}
		snap.Children = append(snap.Children, cm)
	}
	o.mu.Unlock()

	// Live worker count, per-worker connection rows, live-member
	// fractions, and EWMA means come from their owners, outside the obs
	// mutex.
	type connState struct {
		live bool
		leaf bool
	}
	conns := make(map[int]connState)
	ta.mu.Lock()
	for id, w := range ta.workers {
		live := !w.dead.Load()
		if live {
			snap.LiveWorkers++
		}
		conns[id] = connState{live: live, leaf: w.role == RoleWorker}
	}
	ta.mu.Unlock()
	tierOf := make(map[int]int)
	tierMembers := ta.tiers()
	for t, ms := range tierMembers {
		for _, id := range ms {
			tierOf[id] = t
		}
	}
	if len(snap.Children) == 0 {
		// Flat run: one row per registered leaf worker, with the state the
		// self-healing layer acts on — connected, backing-off (down but
		// still holding a tier slot, so a rejoin is expected), or evicted.
		// Tree runs skip the rows: leaf connections live at the children.
		for id, cs := range conns {
			if !cs.leaf {
				continue
			}
			wm := WorkerMetrics{ID: id, Tier: -1, Reconnects: perWorkerReconnects[id]}
			t, inTier := tierOf[id]
			if inTier {
				wm.Tier = t
			}
			switch {
			case cs.live:
				wm.State = WorkerConnected
			case inTier:
				wm.State = WorkerBackingOff
			default:
				wm.State = WorkerEvicted
			}
			snap.Workers = append(snap.Workers, wm)
		}
		sort.Slice(snap.Workers, func(i, j int) bool { return snap.Workers[i].ID < snap.Workers[j].ID })
		for t, ms := range tierMembers {
			if t >= len(snap.Tiers) || len(ms) == 0 {
				continue
			}
			live := 0
			for _, id := range ms {
				if conns[id].live {
					live++
				}
			}
			snap.Tiers[t].LiveMemberFraction = float64(live) / float64(len(ms))
		}
	} else {
		// Tree run: a tier's members are reachable iff its child is.
		for t := range snap.Tiers {
			if t < len(snap.Children) && snap.Children[t].Alive {
				snap.Tiers[t].LiveMemberFraction = 1
			}
		}
	}
	if est, ok := ta.tcfg.Manager.(interface{ EWMA(int) (float64, bool) }); ok {
		for t, ms := range tierMembers {
			if t >= len(snap.Tiers) {
				break
			}
			sum, n := 0.0, 0
			for _, c := range ms {
				if v, ok := est.EWMA(c); ok {
					sum += v
					n++
				}
			}
			if n > 0 {
				snap.Tiers[t].MeanEWMASeconds = sum / float64(n)
			}
		}
	}
	return snap
}

// metricsServer is the opt-in HTTP observability endpoint.
type metricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// startMetrics binds the observability endpoint on addr and serves
// GET /metrics (JSON MetricsSnapshot) and GET /healthz.
func (ta *TieredAsyncAggregator) startMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("flnet: metrics listen on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(ta.Metrics()) //nolint:errcheck // client hangup
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok") //nolint:errcheck // client hangup
	})
	ms := &metricsServer{ln: ln, srv: &http.Server{Handler: mux}}
	go ms.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	ta.metrics = ms
	return nil
}

// MetricsAddr returns the observability endpoint's listen address
// ("" when metrics are disabled) — with a ":0" MetricsAddr config this is
// where the ephemeral port landed.
func (ta *TieredAsyncAggregator) MetricsAddr() string {
	if ta.metrics == nil {
		return ""
	}
	return ta.metrics.ln.Addr().String()
}

// Close shuts the aggregator (listener and worker connections) and the
// metrics endpoint.
func (ta *TieredAsyncAggregator) Close() {
	if ta.metrics != nil {
		ta.metrics.srv.Close() //nolint:errcheck // shutdown path
	}
	ta.server.Close()
}
