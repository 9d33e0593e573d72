package main

import (
	"net"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Spans are recorded only from benchmark files, at the seams the public
// configs expose (Train, Dial, Codec, OnRound/OnCommit/OnCheckpoint), kept in
// memory, and written out once when the benchmark ends. Spans inside the
// program are a later change (ROADMAP item 5).

// Layers a span's self time is attributed to.
const (
	layerSetup = "setup"
	layerTrain = "train"
	layerWire  = "wire"
	layerCodec = "codec"
	layerAgg   = "agg"
	layerIdle  = "idle" // blocked before a message's first byte: not work
	layerMark  = "mark" // zero-length event (checkpoint written)
)

// span is one timed interval. Spans of one commit share Commit (tier and
// tier round); Parent is the span that caused it.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Unit    int     `json:"unit"`
	Commit  string  `json:"commit,omitempty"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	Bytes   int64   `json:"bytes,omitempty"`

	start, end  time.Time
	tier, round int
}

func (s *span) dur() float64 { return s.end.Sub(s.start).Seconds() }

// tracer collects spans. A nil *tracer is tracing switched off: every method
// is a no-op, so the untraced pass pays one nil check per seam.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	unit  int
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s *span) *span {
	if t == nil {
		return s
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	s.Unit = t.unit
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// region times fn as a child of parent.
func (t *tracer) region(parent *span, name, layer string, fn func()) {
	if t == nil {
		fn()
		return
	}
	s := &span{Name: name, Layer: layer, start: time.Now(), tier: -1}
	if parent != nil {
		s.Parent = parent.ID
	}
	fn()
	s.end = time.Now()
	t.add(s)
}

// finish stamps the millisecond offsets for the span file.
func (t *tracer) finish() []*span {
	if t == nil {
		return nil
	}
	for _, s := range t.spans {
		s.StartMs = s.start.Sub(t.epoch).Seconds() * 1e3
		s.EndMs = s.end.Sub(t.epoch).Seconds() * 1e3
	}
	return t.spans
}

// peerTrace is the tracing state of one worker link or one child's root
// link. Everything on it runs on that peer's session goroutine, which reads
// a message, works, writes the reply, and reads again — so plain fields
// suffice and only tracer.add takes the lock.
//
//	leaf:   read … read | unmarshal | Train | codec calls, marshal | write … write
//	child:  read … read | (its leaf round)                         | write
type peerTrace struct {
	tr   *tracer
	tier int
	leaf bool // a worker link; false: a child aggregator's link to the root
	// lossy: updates and broadcasts travel codec-coded, so rebuilding the
	// model from a broadcast and the error-feedback arithmetic around the
	// codec calls are codec work; on the dense path both are weight
	// (de)serialisation, which is wire work.
	lossy bool

	round    int // the tier round being served; a child link counts its messages
	reading  bool
	wrote    bool // a write happened since the last read: the next read starts a new message
	blocked  time.Duration
	rdStart  time.Time
	rdEnd    time.Time
	rdBytes  int64
	wrStart  time.Time
	wrEnd    time.Time
	wrBytes  int64
	trainEnd time.Time
	inCodec  time.Duration // codec time since the last train, to split marshal from it
}

func (p *peerTrace) link() string {
	if p.leaf {
		return "wire"
	}
	return "wire.child"
}

func (p *peerTrace) emit(name, layer string, start, end time.Time, bytes int64) {
	if end.Before(start) {
		end = start
	}
	p.tr.add(&span{Name: name, Layer: layer, start: start, end: end, Bytes: bytes, tier: p.tier, round: p.round})
}

func (p *peerTrace) aroundCodec() string {
	if p.lossy {
		return layerCodec
	}
	return layerWire
}

// flushRead closes the message that was being read; on a leaf, now is the
// start of the Train call it delivered.
func (p *peerTrace) flushRead(now time.Time) {
	if !p.reading {
		return
	}
	p.reading = false
	p.emit(p.link()+".blocked", layerIdle, p.rdStart.Add(-p.blocked), p.rdStart, 0)
	p.emit(p.link()+".read", layerWire, p.rdStart, p.rdEnd, p.rdBytes)
	if p.leaf {
		p.emit("worker.unmarshal", p.aroundCodec(), p.rdEnd, now, 0)
	}
	p.blocked, p.rdBytes = 0, 0
}

// flushWrite closes the reply that followed the last train call.
func (p *peerTrace) flushWrite() {
	if p.wrBytes == 0 {
		return
	}
	if !p.trainEnd.IsZero() {
		// Train end → first reply byte is serialisation plus the codec calls
		// the decorator already reported.
		if gap := p.wrStart.Sub(p.trainEnd) - p.inCodec; gap > 0 {
			p.emit("worker.marshal", p.aroundCodec(), p.wrStart.Add(-gap), p.wrStart, 0)
		}
	}
	p.emit(p.link()+".write", layerWire, p.wrStart, p.wrEnd, p.wrBytes)
	p.wrBytes, p.inCodec, p.trainEnd = 0, 0, time.Time{}
}

// countingConn reports read and write time and bytes of one connection. The
// Read that returns the first bytes of a message was mostly spent blocked
// waiting for the peer, so it is booked as idle, not wire work. Close is not
// intercepted: it can come from another goroutine, and every reply is already
// flushed by the Read that follows it.
type countingConn struct {
	net.Conn
	p *peerTrace
}

func (c *countingConn) Read(b []byte) (int, error) {
	p := c.p
	first := p.wrote || !p.reading
	if first {
		p.flushWrite()
		if !p.leaf && p.wrote {
			p.round++ // a child link's reply ends its tier round
		}
		p.wrote = false
	}
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	t1 := time.Now()
	if first {
		p.reading = true
		p.blocked = t1.Sub(t0)
		p.rdStart = t1
	}
	p.rdEnd = t1
	p.rdBytes += int64(n)
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	p := c.p
	if !p.leaf {
		p.flushRead(time.Time{})
	}
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	t1 := time.Now()
	if p.wrBytes == 0 {
		p.wrStart = t0
	}
	p.wrEnd = t1
	p.wrBytes += int64(n)
	p.wrote = true
	return n, err
}

// commitLog is what a workload's result log says about one applied commit.
type commitLog struct {
	tier, round int
	seconds     float64 // the tier round's own wall time
}

// assembleCommits builds one commit span per applied commit out of the peer
// spans of a socket unit and hangs those spans under it. A tier's commit
// span runs from the first byte of its round's broadcast to the first byte
// of the tier's next broadcast, so the aggregator's share (fan-in, FedAvg,
// commit mix, checkpoint, next dispatch) is the part its children leave
// uncovered. Peer spans of rounds that never committed are dropped.
func (t *tracer) assembleCommits(root *span, log []commitLog) {
	if t == nil {
		return
	}
	type key struct{ tier, round int }
	kids := map[key][]*span{}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for _, s := range spans {
		if s.Unit == root.Unit && s.tier >= 0 && s.Parent == 0 {
			kids[key{s.tier, s.round}] = append(kids[key{s.tier, s.round}], s)
		}
	}
	byTier := map[int][]*span{}
	for _, c := range log {
		ch := kids[key{c.tier, c.round}]
		if len(ch) == 0 {
			continue
		}
		var start time.Time
		for _, s := range ch {
			if s.Layer != layerIdle && (start.IsZero() || s.start.Before(start)) {
				start = s.start
			}
		}
		cs := t.add(&span{
			Name: "commit", Layer: layerAgg, Parent: root.ID,
			Commit: commitKey(c.tier, c.round), tier: c.tier, round: c.round,
			start: start, end: start.Add(time.Duration(c.seconds * float64(time.Second))),
		})
		for _, s := range ch {
			s.Parent, s.Commit = cs.ID, cs.Commit
		}
		byTier[c.tier] = append(byTier[c.tier], cs)
	}
	for _, cs := range byTier {
		sort.Slice(cs, func(i, j int) bool { return cs[i].start.Before(cs[j].start) })
		for i := 0; i+1 < len(cs); i++ {
			if cs[i+1].start.After(cs[i].end) {
				cs[i].end = cs[i+1].start
			}
		}
	}
	for _, ch := range kids {
		for _, s := range ch {
			if s.Parent == 0 {
				s.Layer = "dropped"
			}
		}
	}
}

func commitKey(tier, round int) string {
	return "t" + strconv.Itoa(tier) + "r" + strconv.Itoa(round)
}

// selfTimes sums span self time per layer: a span's duration minus the part
// of it its children cover. Concurrent children each count in
// full, so the total can exceed wall time but the shares cannot exceed 1.
func selfTimes(spans []*span) map[string]float64 {
	children := map[int][]*span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.Layer == layerIdle || s.Layer == layerMark || s.Layer == "dropped" {
			continue
		}
		var ivs [][2]time.Time
		for _, c := range children[s.ID] {
			if c.Layer == layerIdle || c.Layer == layerMark {
				continue
			}
			a, b := c.start, c.end
			if a.Before(s.start) {
				a = s.start
			}
			if b.After(s.end) {
				b = s.end
			}
			if b.After(a) {
				ivs = append(ivs, [2]time.Time{a, b})
			}
		}
		out[s.Layer] += s.dur() - unionSeconds(ivs)
	}
	return out
}

func unionSeconds(ivs [][2]time.Time) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	total := 0.0
	var curA, curB time.Time
	for i, iv := range ivs {
		if i == 0 || iv[0].After(curB) {
			total += curB.Sub(curA).Seconds()
			curA, curB = iv[0], iv[1]
		} else if iv[1].After(curB) {
			curB = iv[1]
		}
	}
	return total + curB.Sub(curA).Seconds()
}
