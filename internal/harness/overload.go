// Overload harness: the §5.4 saturation experiment under admission
// control. Open-loop clients offer a fixed aggregate Poisson rate —
// arrivals launch on schedule whether or not earlier ops completed, so
// pushing the ladder past the saturation knee grows the leader's ingress
// queue instead of throttling the offered load. With MaxPending bounding
// that queue and Busy backpressure pacing the clients, goodput should stay
// flat past the knee instead of collapsing under queueing delay; without
// it (MaxPending < 0) the same sweep shows the seed's degradation.
package harness

import (
	"fmt"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/loadgen"
	"pigpaxos/internal/metrics"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/workload"
)

// OverloadOptions parameterize one open-loop overload run. The embedded
// Options configure the cluster exactly as Run does; the closed-loop
// clients are replaced by open-loop Poisson arrival processes.
type OverloadOptions struct {
	Options

	// Rate is the aggregate offered load in ops/sec (required). It is
	// split evenly over Clients; superposition keeps the aggregate exact.
	Rate float64
	// OpTimeout abandons an op this long after its arrival (default 1s of
	// virtual time). Abandoned ops count as timeouts.
	OpTimeout time.Duration

	// MaxPending, QueueTTL and OverloadLatency are forwarded to every
	// replica's decision core. MaxPending 0 re-enables the window-derived
	// bound that Run's closed-loop path lifts; negative runs unbounded
	// (the seed behaviour, the sweep's control arm).
	MaxPending      int
	QueueTTL        time.Duration
	OverloadLatency time.Duration
}

func (o *OverloadOptions) applyDefaults() {
	o.Options.applyDefaults()
	if o.OpTimeout == 0 {
		o.OpTimeout = time.Second
	}
}

// clientWindow caps one open-loop client's outstanding ops; arrivals beyond
// it (or beyond the smaller window a Busy leaves the session) are shed
// client-side — the open loop's stand-in for an overloaded client machine,
// as pigload's clients shed beyond sessions.Window.
const clientWindow = 64

// OverloadResult is one rung's measurement. The counters count ops whose
// scheduled arrival fell inside the measurement window; goodput is their
// completions per second of window.
type OverloadResult struct {
	Rate float64
	loadgen.Counts
	// LeaderBusy/DroppedExpired/MaxQueueDepth aggregate the replicas'
	// overload counters: rejections issued, queued commands dropped after
	// QueueTTL, and the deepest ingress queue any leader saw — bounded by
	// the effective MaxPending when admission control is on.
	LeaderBusy     uint64
	DroppedExpired uint64
	MaxQueueDepth  uint64
	// Goodput is in-window completions per second; OfferedRate the
	// realized arrival rate over the window.
	Goodput     float64
	OfferedRate float64
	Latency     metrics.Summary
}

// String implements fmt.Stringer.
func (r OverloadResult) String() string {
	return fmt.Sprintf(
		"rate %.0f: goodput %.0f/s (completed %d shed %d busy %d timeout %d dropped %d qdepth %d) lat %v",
		r.Rate, r.Goodput, r.Completed, r.Shed, r.Busy, r.Timeouts,
		r.DroppedExpired, r.MaxQueueDepth, r.Latency)
}

// RunOverload executes one open-loop rung and returns its measurement. The
// rung runs one unsharded group: it panics on Shards > 0.
func RunOverload(opts OverloadOptions) OverloadResult {
	opts.applyDefaults()
	if opts.Rate <= 0 {
		panic(fmt.Sprintf("harness: non-positive overload rate %v", opts.Rate))
	}
	if opts.Shards > 0 {
		panic("harness: overload runs are unsharded")
	}
	// EPaxos has no leader ingress queue to bound; the rung runs Paxos, as
	// it always has.
	if opts.Protocol == EPaxos {
		opts.Protocol = Paxos
	}
	d := deploy(&opts.Options, nil, func(_ ids.ID, cfg *paxos.Config) {
		// paxosBatching lifts the ingress bound for closed-loop capacity
		// runs; this experiment is the open-loop consumer that wants it.
		cfg.MaxPending = opts.MaxPending
		cfg.QueueTTL = opts.QueueTTL
		cfg.OverloadLatency = opts.OverloadLatency
	})
	sim, cc := d.sim, d.cc
	leader := cc.Nodes[0]

	// Each client is pigload's open-loop client on a simulator endpoint of
	// its own, its first arrival staggered like the closed-loop launch.
	tally := loadgen.NewTally(opts.Warmup, opts.Warmup+opts.Measure)
	perRate := opts.Rate / float64(opts.Clients)
	d.start()
	for i := 0; i < opts.Clients; i++ {
		gen := workload.New(opts.Workload, sim.Rand())
		arrivals := workload.NewArrivals(perRate, sim.Rand())
		c := &simClient{}
		d.client(c, uint64(i+1), cc.ZoneOf(leader), 1000+i)
		s := &c.sessions[0]
		s.Window, s.Timeout = clientWindow, opts.OpTimeout
		first := time.Duration(i)*50*time.Microsecond + time.Millisecond
		loadgen.NewOpenLoop(s, gen, arrivals, tally, first).Start()
	}

	// Arrivals stop at the window's end; the drain grace lets in-window
	// stragglers complete or time out before counters are read.
	sim.Run(tally.End + opts.OpTimeout + 50*time.Millisecond)

	res := OverloadResult{Rate: opts.Rate, Counts: tally.Counts, Latency: tally.Latency()}
	res.Goodput, res.OfferedRate = tally.Rates()
	d.coreStats(func(_ ids.ID, core *paxos.Replica) {
		st := core.Stats()
		res.LeaderBusy += st.Busy
		res.DroppedExpired += st.DroppedExpired
		res.MaxQueueDepth = max(res.MaxQueueDepth, st.MaxQueueDepth)
	})
	return res
}

// OverloadSweep runs the rate ladder, one isolated deterministic sim per
// rung (seeded Seed+step like the metal sweep), and returns one result per
// rate. Push the ladder well past the saturation knee: with admission
// control on, the top rung's goodput should hold near the peak rung's.
func OverloadSweep(opts OverloadOptions, rates []float64) []OverloadResult {
	out := make([]OverloadResult, 0, len(rates))
	for step, r := range rates {
		o := opts
		o.Rate = r
		o.Seed = opts.Seed + int64(step)
		out = append(out, RunOverload(o))
	}
	return out
}
