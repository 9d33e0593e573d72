package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"time"
)

// A probe times one layer standalone, at the shapes the workloads use, and
// reports throughput in the layer's natural unit. Every probe states which
// end-to-end metric on which workload it should move (Moves): the prediction
// written down before measuring.
type probe struct {
	name, unit, better, moves string
	// make builds the state outside the timed region and returns the
	// operation and how much work one call does, in the unit's numerator
	// (flops, bytes, samples, parameters, commits).
	make func(px *probeCtx) (op func(), work float64, err error)
	// perOp reports seconds per call × scale (ms: 1e3, us: 1e6, ns: 1e9);
	// otherwise the probe reports work ÷ seconds ÷ scale (G: 1e9, M: 1e6).
	perOp bool
	scale float64
	// value, set in place of make, reports an exact count or a figure the
	// probe has to time itself (a whole fleet run).
	value func(px *probeCtx) (float64, error)
}

type probeCtx struct {
	quick   bool
	tmp     string
	cleanup []func() // run once the probe that registered them is done
}

func (px *probeCtx) after(fn func()) { px.cleanup = append(px.cleanup, fn) }

func (px *probeCtx) done() {
	for i := len(px.cleanup) - 1; i >= 0; i-- {
		px.cleanup[i]()
	}
	px.cleanup = nil
}

// probes is every standalone probe: the hardware ceilings first, then the
// layers in dependency order (layers.go).
var probes = append(ceilingProbes, layerProbes...)

// probeResults are the probes' reported values and, for the timed ones, the
// process CPU seconds one unit of their work cost (a call for per-call
// probes, a flop/byte/sample for rate probes). The sharded kernels use both
// cores, so CPU seconds, not wall seconds, is what a simulated unit's CPU
// time divides into.
type probeResults struct {
	value, cpu map[string]float64
}

// runProbes gives every probe an equal slice of the budget: one discarded
// warm-up batch, then 7 timed batches, median reported.
func runProbes(budget float64, quick bool) (*probeResults, error) {
	tmp, cleanup, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	px := &probeCtx{quick: quick, tmp: tmp}
	// Building a probe's state costs about as much again as timing it.
	per := 0.55 * budget / float64(len(probes))
	out := &probeResults{value: map[string]float64{}, cpu: map[string]float64{}}
	for _, p := range probes {
		v, cpu, err := p.run(px, per)
		px.done()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out.value[p.name], out.cpu[p.name] = v, cpu
		runtime.GC() // a probe's garbage is not the next probe's problem
	}
	return out, nil
}

func (p *probe) run(px *probeCtx, budget float64) (value, cpuPerWork float64, err error) {
	if p.value != nil {
		value, err = p.value(px)
		return value, 0, err
	}
	op, work, err := p.make(px)
	if err != nil {
		return 0, 0, err
	}
	sec, cpu := timeOp(op, budget)
	if p.perOp {
		return sec * p.scale, cpu, nil
	}
	return work / sec / p.scale, cpu / work, nil
}

const probeBatches = 7

// timeOp returns the median wall and CPU seconds per call over probeBatches
// batches sized to fill the budget, after one warm-up batch.
func timeOp(op func(), budget float64) (wall, cpu float64) {
	t0 := time.Now()
	op()
	first := time.Since(t0).Seconds()
	n := 1
	if first > 0 {
		n = max(1, int(budget/float64(probeBatches+1)/first))
	}
	if n > 1 {
		for i := 0; i < n; i++ { // warm-up batch
			op()
		}
	}
	walls, cpus := make([]float64, probeBatches), make([]float64, probeBatches)
	for b := range walls {
		c0, t0 := cpuSeconds(), time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		walls[b] = time.Since(t0).Seconds() / float64(n)
		cpus[b] = (cpuSeconds() - c0) / float64(n)
	}
	return median(walls), median(cpus)
}

// allocsPerOp counts heap allocations per call in steady state.
func allocsPerOp(op func(), n int) float64 {
	op()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

const ceilingNote = "reference only: the same-box ceiling printed beside every GFLOP/s, GB/s and MB/s number"

var sink float64

// ceilingProbes are same-box hardware ceilings, not layers of the program.
var ceilingProbes = []probe{
	{name: "ceiling.scalar_gflops", unit: "GFLOP/s", better: "higher", moves: ceilingNote + "; one core, so a sharded kernel may reach nproc times this", scale: 1e9,
		make: func(*probeCtx) (func(), float64, error) {
			const n = 2048 // both operands stay in L1
			a, b := make([]float64, n), make([]float64, n)
			for i := range a {
				a[i], b[i] = float64(i%7), float64(i%5)
			}
			return func() {
				// Eight independent accumulators keep the adder's pipeline
				// full; Go does not fuse the multiply-add on amd64.
				var s0, s1, s2, s3, s4, s5, s6, s7 float64
				for i := 0; i+8 <= n; i += 8 {
					s0 += a[i] * b[i]
					s1 += a[i+1] * b[i+1]
					s2 += a[i+2] * b[i+2]
					s3 += a[i+3] * b[i+3]
					s4 += a[i+4] * b[i+4]
					s5 += a[i+5] * b[i+5]
					s6 += a[i+6] * b[i+6]
					s7 += a[i+7] * b[i+7]
				}
				sink = s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
			}, 2 * n, nil
		}},
	{name: "ceiling.memmove_gb_s", unit: "GB/s", better: "higher", moves: ceilingNote, scale: 1e9,
		make: func(*probeCtx) (func(), float64, error) {
			const n = 32 << 20 // well past the last-level cache
			src, dst := make([]byte, n), make([]byte, n)
			return func() { copy(dst, src) }, n, nil
		}},
	{name: "ceiling.loopback_mb_s", unit: "MB/s", better: "higher", moves: ceilingNote, scale: 1e6, make: loopbackPingPong},
}

// loopbackPingPong moves one 4 MB message each way over a raw TCP loopback
// connection per call: what flnet.roundtrip_dense_mb_s could reach with free
// framing and serialisation.
func loopbackPingPong(px *probeCtx) (func(), float64, error) {
	const n = 4 << 20
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer ln.Close()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, n)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return // the probe closed its end
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-served
		return nil, 0, err
	}
	px.after(func() {
		c.Close()
		<-served
	})
	buf := make([]byte, n)
	return func() {
		if _, err := c.Write(buf); err != nil {
			panic(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			panic(err)
		}
	}, 2 * n, nil
}
