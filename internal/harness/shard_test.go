package harness

import (
	"reflect"
	"testing"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/workload"
)

// shardTestOpts is a short sharded run: 12 nodes so 4 shards tile the
// membership disjointly.
func shardTestOpts(p Protocol) ScenarioOptions {
	return ScenarioOptions{
		Options: Options{
			Protocol: p,
			N:        12,
			Clients:  48,
			Warmup:   200 * time.Millisecond,
			Measure:  time.Second,
			Seed:     42,
		},
	}
}

// The tentpole acceptance bar: ≥3× aggregate throughput at S=4 vs S=1 at
// equal aggregate client count.
func TestShardSweepScalesNearLinearly(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		pts := ShardSweep(shardTestOpts(p).Options, []int{1, 4})
		if len(pts) != 2 {
			t.Fatalf("%v: sweep returned %d points", p, len(pts))
		}
		if pts[0].Throughput <= 0 {
			t.Fatalf("%v: S=1 throughput %.0f", p, pts[0].Throughput)
		}
		if pts[1].SpeedupVsMin < 3 {
			t.Errorf("%v: S=4 speedup %.2f× (S=1 %.0f req/s, S=4 %.0f req/s), want ≥3×",
				p, pts[1].SpeedupVsMin, pts[0].Throughput, pts[1].Throughput)
		}
	}
}

// Regression test for the sweep baseline: without an S=1 point the old
// code reported Speedup: 1 for every sample (the baseline was only
// captured at s == 1). The curve must now anchor on the smallest swept S,
// wherever it appears in the list.
func TestShardSweepBaselinesOnSmallestSweptS(t *testing.T) {
	pts := ShardSweep(shardTestOpts(Paxos).Options, []int{4, 2})
	if len(pts) != 2 {
		t.Fatalf("sweep returned %d points", len(pts))
	}
	s4, s2 := pts[0], pts[1]
	if s4.Shards != 4 || s2.Shards != 2 {
		t.Fatalf("point order changed: %+v", pts)
	}
	if s2.SpeedupVsMin != 1 {
		t.Errorf("S=2 (smallest swept) speedup %.3f, want exactly 1", s2.SpeedupVsMin)
	}
	if s2.Throughput <= 0 {
		t.Fatalf("S=2 throughput %.0f", s2.Throughput)
	}
	want := s4.Throughput / s2.Throughput
	if s4.SpeedupVsMin != want {
		t.Errorf("S=4 speedup %.3f, want throughput ratio %.3f", s4.SpeedupVsMin, want)
	}
	if s4.SpeedupVsMin <= 1.2 {
		t.Errorf("S=4 vs S=2 speedup %.2f×, expected visible scaling", s4.SpeedupVsMin)
	}
}

// Uniform keys spread acks evenly; the zipfian option concentrates them on
// a hot shard — the skew the sweep exists to expose.
func TestShardedZipfianShowsHotShard(t *testing.T) {
	uni := shardTestOpts(Paxos).Options
	uni.Shards = 4
	zipf := uni
	zipf.Workload = workload.Config{Dist: workload.Zipfian, Theta: 0.99}

	ru := Run(uni)
	rz := Run(zipf)
	share := func(r Result) float64 {
		total, hot := 0, 0
		for _, sl := range r.PerShard {
			total += sl.Acked
			if sl.Acked > hot {
				hot = sl.Acked
			}
		}
		return float64(hot) / float64(total)
	}
	us, zs := share(ru), share(rz)
	if us > 0.40 {
		t.Errorf("uniform hot-shard share %.2f, want ≈0.25", us)
	}
	if zs < us+0.10 {
		t.Errorf("zipfian hot-shard share %.2f barely above uniform %.2f; skew not visible", zs, us)
	}
}

// Satellite: per-key linearizability across shards under a leader crash in
// one shard, and zero blast radius outside the shards the victim replicates.
func TestShardedScenarioLeaderCrashIsolated(t *testing.T) {
	opts := shardTestOpts(PigPaxos)
	opts.Shards = 4
	opts.Clients = 16
	opts.OpsPerClient = 24
	opts.Measure = 2 * time.Second
	crashAt := opts.Warmup + opts.Measure/4
	sched := chaos.ShardLeaderCrash(0, crashAt, opts.Measure/2)

	r := RunScenario(opts, sched)
	if !r.Linearizable {
		t.Fatalf("cross-shard history not linearizable (bad key %d)", r.LinBadKey)
	}
	if !r.AllComplete || !r.Converged {
		t.Fatalf("recovery incomplete: complete=%v converged=%v", r.AllComplete, r.Converged)
	}
	if len(r.FaultLog) == 0 || r.FaultLog[0].Kind != chaos.CrashShardLeader {
		t.Fatalf("fault log = %v, want a crash-shard-leader entry", r.FaultLog)
	}
	victim := r.FaultLog[0].Target
	plan := shard.Plan(config.NewLAN(opts.N), opts.Shards)
	touched := map[int]bool{}
	for _, k := range plan.ShardsOn(victim) {
		touched[k] = true
	}
	if len(touched) == 0 {
		t.Fatalf("victim %v replicates no shard?", victim)
	}
	for _, sl := range r.PerShard {
		if touched[sl.Shard] {
			continue
		}
		if sl.Stalls != 0 {
			t.Errorf("shard %d (victim not a member) stalled %d times, gap %v — blast radius escaped",
				sl.Shard, sl.Stalls, sl.AvailabilityGap)
		}
	}
}

// Satellite: sharded runs are a pure function of the seed — two runs at one
// seed are bit-identical, field for field.
func TestShardedScenarioDeterministic(t *testing.T) {
	opts := shardTestOpts(Paxos)
	opts.Shards = 4
	opts.Clients = 12
	opts.OpsPerClient = 18
	sched := chaos.ShardLeaderCrash(1, opts.Warmup+250*time.Millisecond, 500*time.Millisecond)
	a := RunScenario(opts, sched)
	b := RunScenario(opts, sched)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	if a.Acked == 0 {
		t.Fatal("determinism check ran an empty scenario")
	}
}

// A faultless sharded scenario must behave like S independent healthy
// clusters: linearizable, complete, converged, and stall-free everywhere.
func TestShardedScenarioHealthy(t *testing.T) {
	opts := shardTestOpts(Paxos)
	opts.Shards = 2
	opts.Clients = 10
	opts.OpsPerClient = 15
	r := RunScenario(opts, nil)
	if !r.Linearizable || !r.AllComplete || !r.Converged {
		t.Fatalf("healthy run: lin=%v complete=%v converged=%v", r.Linearizable, r.AllComplete, r.Converged)
	}
	for _, sl := range r.PerShard {
		if sl.Stalls != 0 {
			t.Errorf("shard %d stalled %d times with no faults scheduled", sl.Shard, sl.Stalls)
		}
		if sl.Acked == 0 {
			t.Errorf("shard %d served nothing; router imbalance?", sl.Shard)
		}
	}
}

// ShardPlacementFlip moves one shard's leader; the flip is not a fault and
// the run must stay clean.
func TestShardedScenarioPlacementFlip(t *testing.T) {
	opts := shardTestOpts(Paxos)
	opts.Shards = 2
	opts.Clients = 10
	opts.OpsPerClient = 15
	opts.Measure = 2 * time.Second
	sched := chaos.ShardFlip(1, 0, opts.Warmup+300*time.Millisecond)
	r := RunScenario(opts, sched)
	if !r.Linearizable || !r.AllComplete || !r.Converged {
		t.Fatalf("flip run: lin=%v complete=%v converged=%v", r.Linearizable, r.AllComplete, r.Converged)
	}
	found := false
	for _, a := range r.FaultLog {
		if a.Kind == chaos.ShardPlacementFlip && a.Shard == 1 && !a.Target.IsZero() {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shard-placement-flip in fault log: %v", r.FaultLog)
	}
}

// S=1 must reduce to a single group spanning the whole membership.
func TestShardedSingleShardDegenerate(t *testing.T) {
	opts := shardTestOpts(Paxos)
	opts.Shards = 1
	opts.Clients = 8
	opts.OpsPerClient = 12
	r := RunScenario(opts, nil)
	if r.Shards != 1 || len(r.PerShard) != 1 {
		t.Fatalf("S=1 produced %d shards", r.Shards)
	}
	if len(r.PerShard[0].Members) != opts.N {
		t.Fatalf("S=1 group has %d members, want %d", len(r.PerShard[0].Members), opts.N)
	}
	if !r.Linearizable || !r.Converged {
		t.Fatalf("S=1 run: lin=%v converged=%v", r.Linearizable, r.Converged)
	}
}

// busyShardedOpts is the configuration that exposed sharded clients dropping
// backpressure: a one-slot window of two-command batches and an ingress
// bound of two at each of two shard leaders, under 24 closed-loop clients.
func busyShardedOpts() ScenarioOptions {
	opts := ScenarioOptions{}
	opts.Shards = 2
	opts.Protocol = Paxos
	opts.N = 6
	opts.Clients = 24
	opts.BatchSize = 2
	opts.MaxInFlight = 1
	opts.MutPaxos = func(c *paxos.Config) { c.MaxPending = 2 }
	opts.Warmup = 200 * time.Millisecond
	opts.Measure = time.Second
	opts.Seed = 42
	return opts
}

// Regression: a Busy rejection reaches a sharded client inside the shard
// envelope. The sharded clients used to unwrap only Replies, so a shed
// throughput client (no sweep) never sent again and throughput fell by
// more than half. Every client must still be issuing at the window's end.
func TestShardedClientsHonorBusy(t *testing.T) {
	opts := busyShardedOpts().Options
	opts.applyDefaults()
	lr := runLoad(&opts, opts.plan())
	var shed uint64
	lr.d.coreStats(func(_ ids.ID, core *paxos.Replica) { shed += core.Stats().Busy })
	if shed == 0 {
		t.Fatal("configuration produced no Busy rejections; the test exercises nothing")
	}
	windowEnd := opts.Warmup + opts.Measure
	for i, cl := range lr.clients {
		if cl.started < windowEnd-100*time.Millisecond {
			t.Errorf("client %d last issued at %v and never again (window ends %v): shed and stuck",
				i+1, cl.started, windowEnd)
		}
	}
}

// The same for scripted scenario clients: a rejection is retried after a
// backoff from the leader's hint, not after a sweep period of silence —
// 120ms of which reads as a false per-shard stall.
func TestShardedScenarioClientsHonorBusy(t *testing.T) {
	opts := busyShardedOpts()
	opts.ThinkTime = -1 // closed loop, so the leaders actually shed
	opts.OpsPerClient = 40
	opts.applyDefaults()
	sr := runScenario(&opts, opts.plan(), nil)
	honored := 0
	for _, cl := range sr.clients {
		honored += cl.busy
	}
	if honored == 0 {
		t.Fatal("no scripted client honored a Busy rejection")
	}
	if !sr.allDone() {
		t.Error("scripts did not complete under backpressure")
	}
	if over := sr.gaps.GapsOver(100 * time.Millisecond); over > 0 {
		t.Errorf("%d ack gaps over 100ms on a fault-free run: rejected clients sat out a sweep period", over)
	}
}

// Shrinking a sharded scenario's schedule keeps each shard available, not
// just the whole cluster. Snapping the second crash down to the grid would
// overlap it with the first, taking two of shard 0's three members at once:
// twelve nodes have a majority left, shard 0 does not. Under Shards=4 the
// shrinker must reject that candidate before any run.
func TestShardedShrinkRejectsShardMinority(t *testing.T) {
	opts := shardTestOpts(PigPaxos)
	opts.Shards = 4
	nodes := opts.cluster().Nodes
	a, b := nodes[1], nodes[2] // both in shard 0, nodes[0..2]
	sched := chaos.Merge(
		chaos.NodeCrash(a, 300*time.Millisecond, 70*time.Millisecond),
		chaos.NodeCrash(b, 380*time.Millisecond, 50*time.Millisecond),
	)
	// Still failing while both crashes are present and a's lasts 70ms, so
	// the only step left to the shrinker is snapping b's fire time.
	failing := func(s chaos.Schedule) bool {
		var hasA, hasB bool
		for _, ev := range s {
			hasA = hasA || (ev.Action.Node == a && ev.Action.Duration >= 70*time.Millisecond)
			hasB = hasB || ev.Action.Node == b
		}
		return hasA && hasB
	}
	bAt := func(s chaos.Schedule) time.Duration {
		for _, ev := range s {
			if ev.Action.Node == b {
				return ev.At
			}
		}
		return -1
	}

	sharded := shrinkOptionsFor(opts, 0)
	if err := chaos.Validate(sched, sharded.Cluster, sharded.HealBy); err != nil {
		t.Fatalf("input schedule must be valid: %v", err)
	}
	var seen []chaos.Schedule
	res := chaos.Shrink(sched, func(s chaos.Schedule) bool {
		seen = append(seen, s)
		return failing(s)
	}, sharded)
	if got := bAt(res.Schedule); got != 380*time.Millisecond {
		t.Fatalf("sharded shrink moved b to %v: it overlaps a in shard 0", got)
	}
	for _, s := range seen {
		if err := chaos.Validate(s, sharded.Cluster, sharded.HealBy); err != nil {
			t.Fatalf("sharded shrink ran a candidate that leaves a shard below quorum: %v", err)
		}
	}

	opts.Shards = 0
	if got := bAt(chaos.Shrink(sched, failing, shrinkOptionsFor(opts, 0)).Schedule); got != 350*time.Millisecond {
		t.Fatalf("unsharded shrink left b at %v, want it snapped to 350ms", got)
	}
}

// Every schedule explored for a sharded scenario keeps each shard available.
func TestShardedExploreKeepsEachShard(t *testing.T) {
	opts := shardTestOpts(PigPaxos)
	opts.Shards = 4
	cc := config.NewLAN(opts.N)
	cc.Shards = opts.Shards
	for seed := int64(1); seed <= 20; seed++ {
		opts.Seed = seed
		for i, s := range ExploreSchedules(opts, chaos.ExplorerOpts{Scenarios: 8}) {
			if err := chaos.Validate(s, cc, opts.Warmup+opts.Measure); err != nil {
				t.Fatalf("seed %d schedule %d: %v\n%v", seed, i, err, s)
			}
		}
	}
}
