// Sharded harness: runs S independent consensus groups multiplexed over one
// simulated cluster and measures aggregate scaling — the "many groups behind
// a key router" axis that lifts the single-log serialization ceiling PigPaxos
// itself cannot (§7's scalability discussion: relay fan-out removes the
// leader's communication bottleneck, sharding removes the sequencing one).
//
// A sharded run is Run or RunScenario with Options.Shards set: the planned
// case of the same deployment, clients and runners (deploy.go, client.go).
// Each shard's replicas run under a shard.Wrap context so their traffic
// rides Sharded envelopes, demultiplexed by the per-node shard.Dispatcher;
// this file holds the per-shard result slices and the shard-count sweep.
package harness

import (
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/shard"
)

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

// ShardSweep runs Run across shard counts at equal aggregate client count
// and reports the scaling curve, baselined against the smallest swept shard
// count. The acceptance bar for the sharding layer is SpeedupVsMin ≥ 3 at
// Shards=4 (with a sweep starting at S=1).
func ShardSweep(opts Options, shardCounts []int) []ShardPoint {
	out := make([]ShardPoint, 0, len(shardCounts))
	for _, s := range shardCounts {
		o := opts
		o.Shards = s
		r := Run(o)
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
