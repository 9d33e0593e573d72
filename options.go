package tifl

import (
	"flag"
	"time"

	"repro/internal/compress"
)

// Option sub-structs, each declared once and embedded where it applies.
// A job's spec — codec, downlink, live tiering — is Options'
// CompressionOptions and TieringOptions, which every tiered-async entry
// point reads as its defaults; a distributed run's socket behaviour is
// NetOptions' RobustnessOptions. Each also registers its own tifl-node
// flags (AddFlags), so the command cannot drift from the API.

// TieringOptions are the live-tiering knobs (internal/tiering): they make
// tiered-async jobs re-tier mid-run instead of freezing the profiled
// tiers. Embedded in Options.
type TieringOptions struct {
	// RetierEvery rebuilds tiers from observed latencies every k global
	// commits (0 keeps the profiled tiers frozen, the paper's one-shot
	// Section 4.2 behaviour).
	RetierEvery int
	// EWMABeta weights new latency observations in the live estimates
	// (0 defaults to 0.5).
	EWMABeta float64
	// AdaptiveSelection enables Algorithm-2 selection inside the tier
	// loops: accuracy-driven tier probabilities size each tier's cohorts
	// under per-tier Credits budgets. Simulation only: the accuracies come
	// from the sim's evaluations, and socket runs refuse it.
	AdaptiveSelection bool
	// Credits is the per-tier boosted-round budget Credits_t for
	// AdaptiveSelection (0 = unlimited).
	Credits int
}

// Live reports whether these options ask for a live tiering Manager.
func (o TieringOptions) Live() bool { return o.RetierEvery > 0 || o.AdaptiveSelection }

// AddFlags registers the live-tiering flags on fs, bound to o's fields
// with its current values as defaults (tifl-node's flag surface).
func (o *TieringOptions) AddFlags(fs *flag.FlagSet) {
	fs.IntVar(&o.RetierEvery, "retier-every", o.RetierEvery,
		"tiered-aggregator: rebuild tiers every k commits from observed latencies (0 = frozen tiers)")
	fs.Float64Var(&o.EWMABeta, "ewma-beta", o.EWMABeta,
		"tiered-aggregator: EWMA weight of new latency observations (0 = default 0.5)")
}

// CompressionOptions are the update-compression knobs. Embedded in
// Options; a distributed run builds its workers' codec policy (TierCodec,
// ReassignPolicy) from the job's codec and AdaptiveCompression.
type CompressionOptions struct {
	// Compression, if set, is the update codec clients/workers apply to
	// their trained deltas (error-feedback residual kept client-side).
	Compression Codec
	// AdaptiveCompression makes the codec tier-aware on distributed runs:
	// workers in the slower half of the tiers negotiate the configured
	// codec (top-k@10% when none is configured) while fast-tier workers
	// stay dense. Ignored by the pure simulation paths.
	AdaptiveCompression bool
	// Downlink, if set, delta-compresses the broadcast direction: the
	// aggregator encodes each tier round's model as one shared delta and
	// sends each worker the deltas since the base it acked, falling back to
	// a dense snapshot on first contact, resume, migration, or a gap longer
	// than a dense model's worth of deltas (Delta, or DeltaCodec with the
	// int8 codec). nil keeps plain dense broadcasts. Applies identically to the
	// simulated and distributed tiered-async paths, so both report the
	// same DownlinkBytes on the same seed.
	Downlink *compress.Downlink
}

// TierCodec resolves the codec a worker profiled into tier (of numTiers,
// 0 = fastest) negotiates under this policy: the uniform Compression
// codec, or — under AdaptiveCompression — dense (nil) for the fast half of
// the tiers and the configured codec (top-k@10% when none is configured)
// for the slow half.
func (o CompressionOptions) TierCodec(tier, numTiers int) Codec {
	if !o.AdaptiveCompression {
		return o.Compression
	}
	if tier < (numTiers+1)/2 {
		return nil // fast half: dense updates
	}
	if o.Compression != nil {
		return o.Compression
	}
	return TopKCodec(0.1)
}

// ReassignPolicy is TierCodec's live counterpart: under
// AdaptiveCompression it returns the per-tier codec-spec function an
// aggregator uses to renegotiate a migrating worker's codec
// (flnet.TieredAsyncConfig.ReassignCodec), keeping the fast-half-dense /
// slow-half-compressed split intact through re-tierings. nil (the
// default) leaves codecs as negotiated at registration.
func (o CompressionOptions) ReassignPolicy() func(tier, numTiers int) string {
	if !o.AdaptiveCompression {
		return nil
	}
	return func(tier, numTiers int) string {
		if c := o.TierCodec(tier, numTiers); c != nil {
			return c.Name()
		}
		return "none"
	}
}

// AddFlags registers the compression flags on fs. -codec parses the spec
// eagerly ("none" | "int8" | "int8@<chunk>" | "topk@<fraction>"), so a bad
// spec fails at flag parse time, and "none" resolves to a nil codec (the
// dense path).
func (o *CompressionOptions) AddFlags(fs *flag.FlagSet) {
	fs.Func("codec", "uplink update compression: none | int8 | int8@<chunk> | topk@<fraction>", func(spec string) error {
		c, err := compress.Parse(spec)
		if err != nil {
			return err
		}
		if c.ID() == compress.IDNone {
			o.Compression = nil // dense updates, no compression path
		} else {
			o.Compression = c
		}
		return nil
	})
	fs.BoolVar(&o.AdaptiveCompression, "adaptive-compress", o.AdaptiveCompression,
		"tiered-aggregator: slow-half tiers compress (with -codec, default topk@0.1), fast half stays dense")
	fs.Func("downlink-codec", "broadcast compression: dense | delta | delta+int8 | delta+int8@<chunk>", func(spec string) error {
		dl, err := compress.ParseDownlink(spec)
		if err != nil {
			return err
		}
		o.Downlink = dl // nil for "dense": plain snapshots
		return nil
	})
}

// RobustnessOptions are the self-healing knobs of a distributed run: they
// turn the fail-stop socket layer into one that rides out worker flaps,
// child-aggregator crashes, and slow links. Embedded in NetOptions and
// registered as tifl-node flags (-reconnect, -rpc-timeout, -max-retries,
// -rejoin-wait). All zero values keep the strict fail-stop behaviour.
type RobustnessOptions struct {
	// Reconnect makes workers survive connection loss: instead of
	// returning the first dial/read/write error, a worker re-dials with
	// capped exponential backoff (deterministic per-client jitter),
	// re-registers under its ClientID, re-enters the tier the aggregator
	// still holds for it, and resumes serving Train requests mid-run.
	Reconnect bool
	// RPCTimeout bounds every blocking protocol read and write (worker
	// recv, aggregator send, child↔root link). 0 keeps blocking I/O —
	// required by parity tests that script the commit order, where a tier's
	// next pull waits for the script to reach it and must not time out.
	RPCTimeout time.Duration
	// MaxRetries is the aggregator-side redispatch budget: a tier-round
	// Train RPC that dies with its connection is re-sent — under the same
	// idempotent sequence number, so a retried round cannot double-count —
	// to the worker's replacement connection up to this many times. It
	// also caps a worker's reconnect attempts between successful
	// registrations (0 = the worker default of 8).
	MaxRetries int
	// RejoinWait is how long a dispatching aggregator waits for a dead
	// worker (or, at the tree root, the last dead child) to reconnect
	// before giving up on it. Defaults to 2s whenever MaxRetries > 0.
	RejoinWait time.Duration
}

// AddFlags registers the robustness flags on fs with o's current values
// as defaults (tifl-node's flag surface).
func (o *RobustnessOptions) AddFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.Reconnect, "reconnect", o.Reconnect,
		"worker: survive connection loss via backoff re-dial and tier re-entry")
	fs.DurationVar(&o.RPCTimeout, "rpc-timeout", o.RPCTimeout,
		"per-RPC read/write deadline on every role (0 = blocking I/O)")
	fs.IntVar(&o.MaxRetries, "max-retries", o.MaxRetries,
		"aggregator: redispatch budget per dead in-flight Train RPC; worker: reconnect attempts (0 = default 8)")
	fs.DurationVar(&o.RejoinWait, "rejoin-wait", o.RejoinWait,
		"aggregator: wait for a dead worker/child to rejoin before abandoning it (0 = 2s when -max-retries set)")
}
