// Package harness runs the paper's experiments: it builds a simulated
// cluster running one of the three protocols, attaches closed-loop clients
// driving the benchmark workload, and measures throughput and latency over
// a virtual-time window — the methodology of §5.2 (Paxi benchmark, clients
// on unmetered machines, 1000-key uniform workload).
package harness

import (
	"fmt"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/config"
	"pigpaxos/internal/epaxos"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/metrics"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/protocol"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/wire"
	"pigpaxos/internal/workload"
)

// Protocol selects the consensus protocol under test.
type Protocol = protocol.Kind

// Protocols under evaluation.
const (
	Paxos    = protocol.Paxos
	PigPaxos = protocol.PigPaxos
	EPaxos   = protocol.EPaxos
)

// Options describes one experiment run.
type Options struct {
	// Protocol picks the system under test.
	Protocol Protocol
	// N is the cluster size.
	N int
	// Shards partitions the key space over that many independent consensus
	// groups of max(3, N/Shards) members each (shard.Plan), their traffic
	// tagged with the group: disjoint groups when the cluster divides
	// evenly — the layout where each leader pays no follower duty for other
	// shards and scaling is near-linear — graceful overlap otherwise. 1 is
	// the tagged one-group baseline sharded sweeps compare against; 0 runs
	// one untagged group over the whole membership. EPaxos runs unsharded.
	Shards int
	// WAN spreads nodes over three regions (Figure 9); otherwise LAN.
	WAN bool
	// WANLossy additionally gives every WAN path its representative jitter
	// and loss (config.NewWAN3Lossy). Implies WAN. Only protocols with
	// retransmission machinery should run on it.
	WANLossy bool
	// Clients is the number of closed-loop clients.
	Clients int
	// Workload configures keys/read-ratio/payload (defaults: paper §5.2).
	Workload workload.Config
	// Warmup and Measure bound the measurement window of virtual time.
	Warmup  time.Duration
	Measure time.Duration
	// Seed drives all randomness; same seed ⇒ identical run.
	Seed int64
	// Net overrides the simulator cost model (zero → DefaultOptions).
	Net netsim.Options

	// BatchSize caps commands per log slot at the leader (≤1 = unbatched,
	// the paper's behaviour). Applies to Paxos and PigPaxos alike — the
	// relay plane forwards batched P2as transparently.
	BatchSize int
	// MaxInFlight bounds uncommitted slots in flight at the leader
	// (pipelining window). Defaults to 4 when BatchSize > 1 — without a
	// window, closed-loop clients never let batches accumulate.
	MaxInFlight int

	// NumGroups is PigPaxos' r.
	NumGroups int
	// ZoneGroups uses one relay group per zone (WAN experiments).
	ZoneGroups bool
	// MutPig/MutPaxos/MutEPaxos allow per-experiment protocol tweaks.
	MutPig    func(*pigpaxos.Config)
	MutPaxos  func(*paxos.Config)
	MutEPaxos func(*epaxos.Config)

	// Faults is armed on the run's clock: Figure 13's crash window, or the
	// thrifty-Paxos fragility ablation's sluggish node (§3.4).
	Faults chaos.Schedule

	// SampleWidth enables a throughput time series with that bucket
	// width (Figure 13 samples over 1-second intervals).
	SampleWidth time.Duration
}

func (o *Options) applyDefaults() {
	if o.N == 0 {
		o.N = 5
	}
	if o.Clients == 0 {
		o.Clients = 50
	}
	if o.Warmup == 0 {
		o.Warmup = 500 * time.Millisecond
	}
	if o.Measure == 0 {
		o.Measure = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Net == (netsim.Options{}) {
		o.Net = netsim.DefaultOptions()
	}
	if o.NumGroups == 0 {
		o.NumGroups = 3
	}
	if o.BatchSize > 1 && o.MaxInFlight == 0 {
		o.MaxInFlight = 4
	}
}

// plan is the shard plan the options select: nil for one untagged group.
func (o *Options) plan() *shard.Map {
	if o.Shards < 1 {
		return nil
	}
	p := shard.Plan(o.cluster(), o.Shards)
	return &p
}

// cluster builds the topology the options select. It carries the shard
// count, so the chaos availability rule holds each shard to its own majority.
func (o *Options) cluster() config.Cluster {
	var cc config.Cluster
	switch {
	case o.WANLossy:
		cc = config.NewWAN3Lossy(o.N)
	case o.WAN:
		cc = config.NewWAN3(o.N)
	default:
		cc = config.NewLAN(o.N)
	}
	cc.Shards = o.Shards
	return cc
}

// paxosBatching applies the batching/pipelining knobs to a decision-core
// config. The knobs are independent: MaxInFlight alone gives pure bounded
// pipelining without batching. All-zero options keep the seed defaults.
func (o *Options) paxosBatching(cfg *paxos.Config) {
	if o.BatchSize > 1 {
		cfg.MaxBatchSize = o.BatchSize
	}
	cfg.MaxInFlight = o.MaxInFlight
	// Closed-loop benchmark clients self-limit (one op in flight each), so
	// ingress admission control would only add Busy/retry latency noise to
	// the capacity curves Run measures. Lift the window-derived bound here;
	// overload experiments opt back in explicitly via MutPaxos/MutPig.
	cfg.MaxPending = -1
}

// Result is one experiment's measurement.
type Result struct {
	Protocol   Protocol
	N          int
	Shards     int `json:",omitempty"` // groups of a sharded run
	Clients    int
	Throughput float64 // completed requests/second within the window, all groups
	Latency    metrics.Summary
	Series     []metrics.Point // per-SampleWidth throughput, if enabled
	Messages   uint64          // network messages sent during the run
	// LeaderUtil and MeanFollowerUtil are CPU utilizations over the whole
	// run (busy time / wall time), reproducing the §6.1 observation that
	// the leader-follower utilization gap grows with the relay-group
	// count.
	LeaderUtil       float64
	MeanFollowerUtil float64
	// MeanBatchSize is commands per proposed slot at the leader over the
	// whole run (1.0 unbatched, 0 for EPaxos which does not batch).
	MeanBatchSize float64
	// MsgsPerCmd is network messages sent cluster-wide per command
	// executed at the leader — the amortization batching buys.
	MsgsPerCmd float64
	// LeaderMsgsPerCmd is the messages the (first group's) leader sent and
	// received per command it executed: §6.1's Ml, counted.
	LeaderMsgsPerCmd float64
	// PerShard breaks a sharded run down by group.
	PerShard []ShardLoad `json:",omitempty"`
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("%s N=%d clients=%d: %.0f req/s, lat %v (p99 %v)",
		r.Protocol, r.N, r.Clients, r.Throughput, r.Latency.Mean, r.Latency.P99)
}

// loadRun is what a closed-loop throughput run leaves behind for Run to
// report from.
type loadRun struct {
	d       *deployment
	clients []*closedLoop
	hist    *metrics.Histogram
	acked   []int // in-window acknowledgements per group
	series  *metrics.TimeSeries
}

// runLoad is the throughput runner behind Run: closed-loop generator-driven
// clients against the deployment the plan selects, measured over
// [Warmup, Warmup+Measure).
func runLoad(opts *Options, plan *shard.Map) loadRun {
	d := deploy(opts, plan, nil)
	lr := loadRun{d: d, hist: metrics.NewHistogram(), acked: make([]int, len(d.groups))}
	if opts.SampleWidth > 0 {
		lr.series = metrics.NewTimeSeries(opts.SampleWidth)
	}
	warmupEnd := opts.Warmup
	windowEnd := opts.Warmup + opts.Measure
	record := func(tag int, _ kvstore.Command, _ wire.Reply, started, now time.Duration) {
		if now >= warmupEnd && now < windowEnd {
			lr.hist.Observe(now - started)
			lr.acked[tag]++
		}
		if lr.series != nil && now >= warmupEnd {
			lr.series.Record(now - warmupEnd)
		}
	}

	// Clients live in the leader's zone (the paper ran client VMs in the
	// same region as the cluster under test). Paxos/PigPaxos clients talk to
	// their group's leader; EPaxos clients spread over all replicas (§5.4:
	// "a random node in EPaxos for each operation" — round-robin per client
	// gives the same aggregate mix deterministically).
	home := d.cc.ZoneOf(d.cc.Nodes[0])
	lr.clients = make([]*closedLoop, opts.Clients)
	for i := range lr.clients {
		gen := workload.New(opts.Workload, d.sim.Rand())
		cl := d.closedLoop(uint64(i+1), home, 1000+i, 0)
		cl.source = func(bool) (kvstore.Command, bool) { return gen.Next(0, 0), true }
		cl.record = record
		if opts.Protocol == EPaxos {
			s := &cl.sessions[0]
			cl.spread, s.Target = true, s.Targets[i%len(s.Targets)]
		}
		lr.clients[i] = cl
	}
	d.start()
	d.launch(lr.clients, 50*time.Microsecond)

	chaos.Apply(d.sim, d.net, opts.Faults, resolver{d})
	d.sim.Run(windowEnd)
	return lr
}

// Run executes one experiment and returns its measurements. With Shards
// set, closed-loop clients route by key across the groups at equal
// aggregate client count regardless of Shards, so sweeps compare shard
// counts at fixed offered load.
func Run(opts Options) Result {
	opts.applyDefaults()
	plan := opts.plan()
	lr := runLoad(&opts, plan)
	d := lr.d
	leader := d.groups[0].Leader
	res := Result{
		Protocol: opts.Protocol,
		N:        opts.N,
		Clients:  opts.Clients,
		Latency:  lr.hist.Snapshot(),
		Messages: d.net.MessagesSent(),
	}
	wall := (opts.Warmup + opts.Measure).Seconds()
	total := 0
	for k, g := range d.groups {
		total += lr.acked[k]
		if plan != nil {
			res.PerShard = append(res.PerShard, ShardLoad{
				Shard:      k,
				Leader:     g.Leader,
				Acked:      lr.acked[k],
				Throughput: float64(lr.acked[k]) / opts.Measure.Seconds(),
				LeaderUtil: d.net.Endpoint(g.Leader).BusyTotal().Seconds() / wall,
			})
		}
	}
	res.Shards = len(res.PerShard)
	res.Throughput = float64(total) / opts.Measure.Seconds()
	// Batching metrics come from the (first group's) leader's decision
	// core; EPaxos has no leader and reports zeroes.
	if core := d.groups[0].members[leader].Core; core != nil {
		pstats := core.Stats()
		res.MeanBatchSize = pstats.MeanBatchSize()
		if pstats.Executions > 0 {
			lep := d.net.Endpoint(leader)
			res.MsgsPerCmd = float64(res.Messages) / float64(pstats.Executions)
			res.LeaderMsgsPerCmd = float64(lep.Sent()+lep.Received()) / float64(pstats.Executions)
		}
	}
	res.LeaderUtil = d.net.Endpoint(leader).BusyTotal().Seconds() / wall
	var fsum float64
	for _, id := range d.cc.Nodes {
		if id != leader {
			fsum += d.net.Endpoint(id).BusyTotal().Seconds() / wall
		}
	}
	if len(d.cc.Nodes) > 1 {
		res.MeanFollowerUtil = fsum / float64(len(d.cc.Nodes)-1)
	}
	if lr.series != nil {
		res.Series = lr.series.Series()
	}
	return res
}

// CurvePoint is one (offered load, throughput, latency) sample of a
// latency-throughput curve.
type CurvePoint struct {
	Clients    int
	Throughput float64
	LatencyMs  float64
	P99Ms      float64
}

// Curve sweeps client counts and returns the latency-throughput curve the
// paper plots in Figures 8-11.
func Curve(opts Options, clientCounts []int) []CurvePoint {
	out := make([]CurvePoint, 0, len(clientCounts))
	for _, c := range clientCounts {
		o := opts
		o.Clients = c
		r := Run(o)
		out = append(out, CurvePoint{
			Clients:    c,
			Throughput: r.Throughput,
			LatencyMs:  float64(r.Latency.Mean.Microseconds()) / 1000,
			P99Ms:      float64(r.Latency.P99.Microseconds()) / 1000,
		})
	}
	return out
}

// MaxThroughput sweeps client counts and returns the best observed
// throughput ("maximum throughput" in Figures 7, 12, 13).
func MaxThroughput(opts Options, clientCounts []int) float64 {
	best := 0.0
	for _, c := range clientCounts {
		o := opts
		o.Clients = c
		if tp := Run(o).Throughput; tp > best {
			best = tp
		}
	}
	return best
}
