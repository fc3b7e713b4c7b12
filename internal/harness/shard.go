// Sharded harness: runs S independent consensus groups multiplexed over one
// simulated cluster and measures aggregate scaling — the "many groups behind
// a key router" axis that lifts the single-log serialization ceiling PigPaxos
// itself cannot (§7's scalability discussion: relay fan-out removes the
// leader's communication bottleneck, sharding removes the sequencing one).
//
// Sharded runs are the planned case of the same deployment, clients and
// runners the unsharded entry points use (deploy.go, client.go): each
// shard's replicas run under a shard.Wrap context so their traffic rides
// Sharded envelopes, demultiplexed by the per-node shard.Dispatcher.
package harness

import (
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/metrics"
	"pigpaxos/internal/shard"
)

// ShardedOptions parameterize a sharded run. The embedded ScenarioOptions
// configure everything a single-group scenario would; Shards adds the
// partitioning.
type ShardedOptions struct {
	ScenarioOptions

	// Shards is the number of independent consensus groups (default 1).
	// Each group has max(3, N/Shards) members (shard.Plan): disjoint groups
	// when the cluster divides evenly — the layout where each leader pays
	// no follower duty for other shards and scaling is near-linear —
	// graceful overlap otherwise.
	Shards int
}

func (o *ShardedOptions) applyDefaults() {
	if o.N == 0 {
		o.N = 12
	}
	if o.Clients == 0 {
		o.Clients = 48
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	o.ScenarioOptions.applyDefaults()
}

// ShardLoad is one shard's slice of a sharded throughput run.
type ShardLoad struct {
	Shard int
	// Leader is the shard's planned leader.
	Leader ids.ID
	// Acked counts in-window acknowledgements routed to this shard; with a
	// zipfian workload the spread across shards shows the hot shard.
	Acked int
	// Throughput is this shard's in-window acks per second.
	Throughput float64
	// LeaderUtil is the leader node's CPU utilization over the run. Nodes
	// hosting several shards report the same (whole-node) figure for each.
	LeaderUtil float64
}

// ShardedResult is a sharded throughput run's measurement.
type ShardedResult struct {
	Protocol   Protocol
	N          int
	Shards     int
	Clients    int
	Throughput float64 // aggregate in-window acks per second
	Latency    metrics.Summary
	Messages   uint64
	PerShard   []ShardLoad
}

// RunSharded executes one sharded throughput experiment: S consensus groups
// behind the key router, closed-loop clients routing by key at equal
// aggregate client count regardless of S (so sweeps compare shard counts at
// fixed offered load).
func RunSharded(opts ShardedOptions) ShardedResult {
	opts.applyDefaults()
	plan := shard.Plan(opts.cluster(), opts.Shards)
	lr := runLoad(&opts.Options, &plan)
	res := ShardedResult{
		Protocol: opts.Protocol,
		N:        opts.N,
		Shards:   plan.NumShards(),
		Clients:  opts.Clients,
		Latency:  lr.hist.Snapshot(),
		Messages: lr.d.net.MessagesSent(),
	}
	wall := (opts.Warmup + opts.Measure).Seconds()
	total := 0
	for k, desc := range plan.Shards {
		total += lr.acked[k]
		res.PerShard = append(res.PerShard, ShardLoad{
			Shard:      k,
			Leader:     desc.Leader,
			Acked:      lr.acked[k],
			Throughput: float64(lr.acked[k]) / opts.Measure.Seconds(),
			LeaderUtil: lr.d.net.Endpoint(desc.Leader).BusyTotal().Seconds() / wall,
		})
	}
	res.Throughput = float64(total) / opts.Measure.Seconds()
	return res
}

// probeKeys picks n keys the router assigns to shard k, scanning upward from
// `from` so probe keys never collide with the scripted keyspace.
func probeKeys(r shard.Router, k, n int, from uint64) []uint64 {
	out := make([]uint64, 0, n)
	for key := from; len(out) < n; key++ {
		if r.Shard(key) == k {
			out = append(out, key)
		}
	}
	return out
}

// ShardSlice is one shard's slice of a sharded scenario: what service looked
// like for the keys it owns.
type ShardSlice struct {
	Shard int
	// Members and Leader echo the plan (Leader is the planned initial
	// leader, not the post-fault one).
	Members []ids.ID
	Leader  ids.ID
	// Acked counts operations acknowledged for this shard's keys.
	Acked int
	// AvailabilityGap is the longest ack silence for this shard's keys,
	// GapStart its opening instant, and Stalls how many distinct gaps of at
	// least 250ms the shard suffered. The blast-radius criterion: a crash
	// of shard k's leader must leave Stalls at zero for every shard the
	// victim does not replicate.
	AvailabilityGap time.Duration
	GapStart        time.Duration
	Stalls          int
	// Converged reports the shard's members ended bit-identical, none
	// having applied a command twice.
	Converged bool
}

// ShardedScenarioResult is a sharded scenario's measurement and verdicts.
// Like ScenarioResult it contains only virtual-time-derived values, so two
// runs at one seed are asserted bit-identical.
type ShardedScenarioResult struct {
	Protocol Protocol
	N        int
	Shards   int
	Clients  int

	Acked      int
	Throughput float64
	Latency    metrics.Summary

	// Linearizable is the checker's verdict over the shared cross-shard
	// history: per-key linearizability must hold regardless of which shard
	// served which key.
	Linearizable bool
	LinBadKey    uint64
	LinChecked   int
	LinExplored  int
	AllComplete  bool
	// Converged reports every shard's members ended bit-identical.
	Converged bool

	Messages  uint64
	Delivered uint64
	Dropped   uint64

	PerShard []ShardSlice
	FaultLog []chaos.Applied
}

// RunShardedScenario executes a sharded run under a chaos schedule: scripted
// clients route by key across S groups, every completed operation lands in
// one shared linearizability history, and each shard's availability is
// tracked separately (its keys' acknowledgements plus a dedicated probe) so
// fault blast radius is measurable per shard.
func RunShardedScenario(opts ShardedOptions, sched chaos.Schedule) ShardedScenarioResult {
	opts.applyDefaults()
	plan := shard.Plan(opts.cluster(), opts.Shards)
	sr := runScenario(&opts.ScenarioOptions, &plan, sched)
	res := ShardedScenarioResult{
		Protocol:    opts.Protocol,
		N:           opts.N,
		Shards:      plan.NumShards(),
		Clients:     opts.Clients,
		Acked:       sr.gaps.Count(),
		Throughput:  float64(sr.inWindow) / opts.Measure.Seconds(),
		Latency:     sr.lat.Snapshot(),
		Messages:    sr.d.net.MessagesSent(),
		Delivered:   sr.d.net.MessagesDelivered(),
		Dropped:     sr.d.net.MessagesDropped(),
		FaultLog:    sr.faultLog,
		AllComplete: sr.allDone(),
		Converged:   true,
	}
	for k, g := range sr.d.groups {
		sl := ShardSlice{
			Shard:     k,
			Members:   g.Members,
			Leader:    g.Leader,
			Acked:     sr.groupGaps[k].Count(),
			Stalls:    sr.groupGaps[k].GapsOver(regionStallThreshold),
			Converged: g.converged() && sr.atMostOnce(k),
		}
		sl.GapStart, sl.AvailabilityGap = sr.groupGaps[k].MaxGap()
		res.Converged = res.Converged && sl.Converged
		res.PerShard = append(res.PerShard, sl)
	}
	lin := sr.hist.Check()
	res.Linearizable = lin.OK
	res.LinBadKey = lin.BadKey
	res.LinChecked = lin.Checked
	res.LinExplored = lin.Explored
	return res
}

// ShardPoint is one sample of a shard-count sweep.
type ShardPoint struct {
	Shards     int
	Throughput float64
	// SpeedupVsMin is aggregate throughput relative to the smallest swept
	// shard count (S=1 when the sweep includes it). It used to be named
	// Speedup and silently report 1.0 for every point whenever the sweep
	// lacked an S=1 sample — the baseline was only captured at s == 1.
	SpeedupVsMin float64
	MeanLatMs    float64
	P99Ms        float64
	// HotShardShare is the busiest shard's fraction of aggregate acks —
	// 1/S under a uniform workload, rising toward the zipfian skew's head
	// under a hot-key workload.
	HotShardShare float64
}

// ShardSweep runs RunSharded across shard counts at equal aggregate client
// count and reports the scaling curve, baselined against the smallest
// swept shard count. The acceptance bar for the sharding layer is
// SpeedupVsMin ≥ 3 at Shards=4 (with a sweep starting at S=1).
func ShardSweep(opts ShardedOptions, shardCounts []int) []ShardPoint {
	out := make([]ShardPoint, 0, len(shardCounts))
	for _, s := range shardCounts {
		o := opts
		o.Shards = s
		r := RunSharded(o)
		p := ShardPoint{
			Shards:       s,
			Throughput:   r.Throughput,
			SpeedupVsMin: 1,
			MeanLatMs:    float64(r.Latency.Mean.Microseconds()) / 1000,
			P99Ms:        float64(r.Latency.P99.Microseconds()) / 1000,
		}
		total := 0
		hot := 0
		for _, sl := range r.PerShard {
			total += sl.Acked
			if sl.Acked > hot {
				hot = sl.Acked
			}
		}
		if total > 0 {
			p.HotShardShare = float64(hot) / float64(total)
		}
		out = append(out, p)
	}
	// Baseline after the fact so the sweep order cannot matter: the
	// smallest swept S anchors the curve wherever it appears in the list.
	minIdx := -1
	for i, p := range out {
		if minIdx < 0 || p.Shards < out[minIdx].Shards {
			minIdx = i
		}
	}
	if minIdx >= 0 && out[minIdx].Throughput > 0 {
		base := out[minIdx].Throughput
		for i := range out {
			out[i].SpeedupVsMin = out[i].Throughput / base
		}
	}
	return out
}

// DefaultShardSweep is the shard-count ladder of the shard scenario.
var DefaultShardSweep = []int{1, 2, 4, 8}
