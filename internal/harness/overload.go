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
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/metrics"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/wire"
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
	// ClientInFlight caps one client's outstanding ops; arrivals beyond
	// it are shed client-side (default 64) — the open loop's stand-in for
	// an overloaded client machine, same as loadgen's MaxInFlight.
	ClientInFlight int

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
	if o.ClientInFlight == 0 {
		o.ClientInFlight = 64
	}
}

// OverloadResult is one rung's measurement. Offered/Completed/Shed/Busy/
// Timeouts count ops whose scheduled arrival fell inside the measurement
// window; goodput is their completions per second of window.
type OverloadResult struct {
	Rate    float64
	Offered uint64
	// Completed counts in-window arrivals acknowledged OK before the
	// drain grace expired.
	Completed uint64
	// Shed counts arrivals dropped client-side at the in-flight cap.
	Shed uint64
	// Busy counts wire.Busy rejections received for in-window ops; each
	// is retried after the leader's hint, so Busy is backpressure volume,
	// not loss.
	Busy uint64
	// Timeouts counts in-window arrivals abandoned after OpTimeout.
	Timeouts uint64
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

// olOp is one outstanding open-loop operation.
type olOp struct {
	cmd      kvstore.Command
	at       time.Duration
	inWindow bool
	// busyN counts consecutive Busy rejections, driving exponential
	// backoff: without it every shed op retries each EWMA interval and
	// the leader livelocks on issuing rejections past ~5× saturation.
	busyN int
}

// busyBackoff grows the leader's retry hint exponentially with the op's
// consecutive rejections, capped so an op still retries a few times
// before its abandonment timeout.
func busyBackoff(hint time.Duration, busyN int, cap time.Duration) time.Duration {
	if hint <= 0 {
		hint = time.Millisecond
	}
	for i := 1; i < busyN && hint < cap; i++ {
		hint *= 2
	}
	if hint > cap {
		hint = cap
	}
	return hint
}

// olClient is an open-loop simulated client: a Poisson arrival clock in
// virtual time, a bounded pending set, Busy backoff-and-retry, per-op
// abandonment. It deliberately mirrors loadgen's worker semantics so the
// sim sweep and the metal sweep measure the same client model.
type olClient struct {
	id      uint64
	ep      *netsim.Endpoint
	target  ids.ID
	gen     *workload.Generator
	arr     *workload.Arrivals
	timeout time.Duration
	cap     int

	seq     uint64
	pending map[uint64]olOp
	stopped bool

	warmupEnd, windowEnd time.Duration
	hist                 *metrics.Histogram
	offered, completed   *metrics.Counter
	shed, busy, timeouts *metrics.Counter
}

// tick fires one scheduled arrival and arms the next.
func (c *olClient) tick() {
	if c.stopped {
		return
	}
	now := c.ep.Now()
	inWin := now >= c.warmupEnd && now < c.windowEnd
	if inWin {
		c.offered.Inc()
	}
	if len(c.pending) >= c.cap {
		if inWin {
			c.shed.Inc()
		}
	} else {
		c.seq++
		cmd := c.gen.Next(c.id, c.seq)
		// The generator's payload buffer is shared across Next calls;
		// retries re-send the same op, so pin a private copy.
		if cmd.Value != nil {
			cmd.Value = append([]byte(nil), cmd.Value...)
		}
		c.pending[c.seq] = olOp{cmd: cmd, at: now, inWindow: inWin}
		c.ep.Send(c.target, wire.Request{Cmd: cmd})
		seq := c.seq
		c.ep.After(c.timeout, func() {
			if o, ok := c.pending[seq]; ok {
				delete(c.pending, seq)
				if o.inWindow {
					c.timeouts.Inc()
				}
			}
		})
	}
	c.ep.After(c.arr.Next(), c.tick)
}

// OnMessage handles acks, redirects and Busy backpressure.
func (c *olClient) OnMessage(from ids.ID, m wire.Msg) {
	switch v := m.(type) {
	case wire.Busy:
		o, ok := c.pending[v.Seq]
		if !ok {
			return // already abandoned
		}
		if o.inWindow {
			c.busy.Inc()
		}
		o.busyN++
		c.pending[v.Seq] = o
		seq := v.Seq
		c.ep.After(busyBackoff(v.RetryAfter, o.busyN, c.timeout/4), func() {
			if o, ok := c.pending[seq]; ok {
				c.ep.Send(v.Leader, wire.Request{Cmd: o.cmd})
			}
		})
	case wire.Reply:
		o, ok := c.pending[v.Seq]
		if !ok {
			return
		}
		if !v.OK {
			if !v.Leader.IsZero() && v.Leader != c.target {
				// Redirected: move this client (and the stuck op) over.
				c.target = v.Leader
				c.ep.Send(v.Leader, wire.Request{Cmd: o.cmd})
			}
			return
		}
		delete(c.pending, v.Seq)
		if o.inWindow {
			c.completed.Inc()
			c.hist.Observe(c.ep.Now() - o.at)
		}
	}
}

// RunOverload executes one open-loop rung and returns its measurement.
func RunOverload(opts OverloadOptions) OverloadResult {
	opts.applyDefaults()
	if opts.Rate <= 0 {
		panic(fmt.Sprintf("harness: non-positive overload rate %v", opts.Rate))
	}
	// EPaxos has no leader ingress queue to bound; the rung runs Paxos, as
	// it always has.
	if opts.Protocol == EPaxos {
		opts.Protocol = Paxos
	}
	d := deploy(&opts.Options, nil, func(cfg *paxos.Config) {
		// paxosBatching lifts the ingress bound for closed-loop capacity
		// runs; this experiment is the open-loop consumer that wants it.
		cfg.MaxPending = opts.MaxPending
		cfg.QueueTTL = opts.QueueTTL
		cfg.OverloadLatency = opts.OverloadLatency
	})
	sim, cc, net := d.sim, d.cc, d.net
	leader := cc.Nodes[0]

	hist := metrics.NewHistogram()
	var offered, completed, shed, busy, timeouts metrics.Counter
	warmupEnd := opts.Warmup
	windowEnd := opts.Warmup + opts.Measure
	perRate := opts.Rate / float64(opts.Clients)

	clients := make([]*olClient, opts.Clients)
	for i := 0; i < opts.Clients; i++ {
		cl := &olClient{
			id:        uint64(i + 1),
			target:    leader,
			gen:       workload.New(opts.Workload, sim.Rand()),
			arr:       workload.NewArrivals(perRate, sim.Rand()),
			timeout:   opts.OpTimeout,
			cap:       opts.ClientInFlight,
			pending:   make(map[uint64]olOp),
			warmupEnd: warmupEnd,
			windowEnd: windowEnd,
			hist:      hist,
			offered:   &offered,
			completed: &completed,
			shed:      &shed,
			busy:      &busy,
			timeouts:  &timeouts,
		}
		cl.ep = net.Register(ids.NewID(cc.ZoneOf(leader), 1000+i), cl, true)
		clients[i] = cl
	}

	d.start()
	for i, cl := range clients {
		sim.Schedule(time.Duration(i)*50*time.Microsecond+time.Millisecond, cl.tick)
	}

	// Arrivals stop at the window's end; the drain grace lets in-window
	// stragglers complete or time out before counters are read.
	sim.Schedule(windowEnd, func() {
		for _, cl := range clients {
			cl.stopped = true
		}
	})
	sim.Run(windowEnd + opts.OpTimeout + 50*time.Millisecond)

	res := OverloadResult{
		Rate:      opts.Rate,
		Offered:   uint64(offered.Value()),
		Completed: uint64(completed.Value()),
		Shed:      uint64(shed.Value()),
		Busy:      uint64(busy.Value()),
		Timeouts:  uint64(timeouts.Value()),
		Latency:   hist.Snapshot(),
	}
	sec := opts.Measure.Seconds()
	res.Goodput = float64(res.Completed) / sec
	res.OfferedRate = float64(res.Offered) / sec
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
