// Command pigbench regenerates the paper's evaluation and checks it: every
// row of harness.Claims — Tables 1-2, Figures 7-13, the §6.1 utilization
// study, the batching sweep and the ablations of the paper's design
// arguments — printed as an aligned text table followed by one verdict line,
// "holds" or "FAILS: <reason>". It also runs the chaos scenario suite
// (leader-crash, relay-crash, seeded explorer, fault-intensity curve).
//
// Usage:
//
//	pigbench -all                 # every claim (about a minute); exit 1 if any fails
//	pigbench -claim fig8          # one claim (an unknown ID lists them all)
//	pigbench -scenario leader     # leader-crash scenario (also: relay, explore, faultcurve)
//	pigbench -scenario explore -benchfmt   # results as go-bench lines
//	pigbench -quick               # reduced sweeps, faster and less precise
//
// All experiments run on the deterministic discrete-event simulator; equal
// seeds print equal numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/config"
	"pigpaxos/internal/harness"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/workload"
)

// scenarioNames is the single source of truth for -scenario values: both
// the flag help and the unknown-scenario error render from it, so the two
// lists can never drift again (the error once omitted "restart").
var scenarioNames = []string{
	"leader", "relay", "explore", "faultcurve", "epaxoschaos",
	"wan", "regionpartition", "placement", "wanexplore", "epaxoswan",
	"shard", "restart", "sweep", "overload",
}

func main() {
	var (
		claim    = flag.String("claim", "", "claim to regenerate and check: "+strings.Join(harness.ClaimIDs(), " | "))
		scenario = flag.String("scenario", "", "chaos scenario: "+strings.Join(scenarioNames, " | "))
		benchfmt = flag.Bool("benchfmt", false, "emit scenario results as go-bench lines (CI keeps them as bench_*.txt artifacts)")
		all      = flag.Bool("all", false, "run and check every claim")
		quick    = flag.Bool("quick", false, "reduced sweeps (faster, coarser)")
		seed     = flag.Int64("seed", 42, "simulation seed")
		nRuns    = flag.Int("runs", 0, "sweep: explored schedules per protocol (default 12, 6 with -quick)")
		jobs     = flag.Int("jobs", 0, "explorer worker count: 0 = GOMAXPROCS, 1 = serial (equal seeds give bit-identical results at any value)")
	)
	flag.Parse()

	suite := harness.DefaultSuite()
	if *quick {
		suite = harness.QuickSuite()
	}
	suite.Seed = *seed

	if *scenario != "" {
		if err := runScenarios(*scenario, suite, *benchfmt, *nRuns, *jobs); err != nil {
			fmt.Fprintln(os.Stderr, "pigbench:", err)
			os.Exit(2)
		}
		return
	}

	var selected []harness.Claim
	switch {
	case *all:
		selected = harness.Claims
	case *claim != "":
		i := slices.IndexFunc(harness.Claims, func(c harness.Claim) bool { return c.ID == *claim })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "pigbench: unknown -claim %q (want %s)\n", *claim, strings.Join(harness.ClaimIDs(), ", "))
			os.Exit(2)
		}
		selected = harness.Claims[i : i+1]
	default:
		fmt.Fprintln(os.Stderr, "usage: pigbench -all | -claim ID | -scenario NAME [-quick] [-seed N]")
		os.Exit(2)
	}

	failed := false
	for _, c := range selected {
		start := time.Now()
		rep := c.Run(suite)
		fmt.Println(rep.String())
		if err := c.Check(rep); err != nil {
			failed = true
			fmt.Printf("claim %s (%s): FAILS: %v\n", c.ID, c.Section, err)
		} else {
			fmt.Printf("claim %s (%s): holds\n", c.ID, c.Section)
		}
		fmt.Printf("(generated in %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

// b2i encodes a verdict flag for the benchfmt lines both printers emit.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// scenarioBase configures the shared chaos-scenario cluster: 9 nodes, 3
// relay groups, a dozen recorded clients.
func scenarioBase(p harness.Protocol, suite harness.Suite) harness.ScenarioOptions {
	o := harness.ScenarioOptions{}
	o.Protocol = p
	o.N = 9
	o.NumGroups = 3
	o.Clients = 12
	o.Warmup = suite.Warmup
	o.Measure = suite.Measure
	o.Seed = suite.Seed
	return o
}

// printScenario renders one result as a table row or a benchmark line
// (benchfmt is what CI keeps as bench_chaos.txt).
func printScenario(name string, r harness.ScenarioResult, benchfmt bool) {
	if benchfmt {
		fmt.Printf("BenchmarkScenario/%s/%s 1 %.3f avail-gap-ms %.3f recovery-ms %.0f req/s %.3f p99-ms %d acked %d linearizable %d recovered\n",
			r.Protocol, name,
			float64(r.AvailabilityGap.Microseconds())/1000,
			float64(r.RecoveryLatency.Microseconds())/1000,
			r.Throughput,
			float64(r.Latency.P99.Microseconds())/1000,
			r.Acked, b2i(r.Linearizable), b2i(r.AllComplete && r.Converged))
		return
	}
	fmt.Printf("%-10s %-22s acked=%-5d gap=%-12v recovery=%-12v p99=%-10v lin=%v recovered=%v\n",
		r.Protocol, name, r.Acked, r.AvailabilityGap, r.RecoveryLatency,
		r.Latency.P99, r.Linearizable, r.AllComplete && r.Converged)
	for _, a := range r.FaultLog {
		fmt.Printf("    fault: %v\n", a)
	}
}

// printEPaxosChaos renders one EPaxos chaos result with the two verdicts
// specific to its hardening: unrecovered instances and bit-identical
// reruns.
func printEPaxosChaos(name string, r harness.ScenarioResult, deterministic, benchfmt bool) {
	if benchfmt {
		fmt.Printf("BenchmarkScenario/%s/%s 1 %.3f avail-gap-ms %.3f recovery-ms %.0f req/s %.3f p99-ms %d acked %d linearizable %d recovered %d unrecovered %d deterministic\n",
			r.Protocol, name,
			float64(r.AvailabilityGap.Microseconds())/1000,
			float64(r.RecoveryLatency.Microseconds())/1000,
			r.Throughput,
			float64(r.Latency.P99.Microseconds())/1000,
			r.Acked, b2i(r.Linearizable), b2i(r.AllComplete && r.Converged),
			r.Unrecovered, b2i(deterministic))
		return
	}
	fmt.Printf("%-10s %-22s acked=%-5d gap=%-12v recovery=%-12v lin=%v recovered=%v unrecovered=%d deterministic=%v\n",
		r.Protocol, name, r.Acked, r.AvailabilityGap, r.RecoveryLatency,
		r.Linearizable, r.AllComplete && r.Converged, r.Unrecovered, deterministic)
	for _, a := range r.FaultLog {
		fmt.Printf("    fault: %v\n", a)
	}
}

// wanBase configures the shared WAN (Figure 9) scenario cluster: 9 nodes
// over three regions, zone-aligned relay groups, closed-loop clients homed
// in every region. Quick mode keeps the same offered-load shape with a
// shorter script.
func wanBase(p harness.Protocol, suite harness.Suite) harness.ScenarioOptions {
	ops := 20
	if suite.Measure < 2*time.Second {
		ops = 12
	}
	return harness.WANScenario(p, 9, 80, ops, suite.Seed)
}

// printRegions renders one WAN scenario result with its per-region
// breakdown, as a table block or as benchmark lines (one per region plus a
// cluster-wide summary line).
func printRegions(name string, r harness.ScenarioResult, benchfmt bool) {
	if benchfmt {
		fmt.Printf("BenchmarkWAN/%s/%s/cluster 1 %.3f mean-ms %.3f p99-ms %.3f avail-gap-ms %.0f req/s %d acked %d linearizable %d recovered\n",
			r.Protocol, name,
			float64(r.Latency.Mean.Microseconds())/1000,
			float64(r.Latency.P99.Microseconds())/1000,
			float64(r.AvailabilityGap.Microseconds())/1000,
			r.Throughput, r.Acked, b2i(r.Linearizable), b2i(r.AllComplete && r.Converged))
		for _, reg := range r.Regions {
			fmt.Printf("BenchmarkWAN/%s/%s/zone%d 1 %.3f mean-ms %.3f p99-ms %.3f avail-gap-ms %d acked %d stalls\n",
				r.Protocol, name, reg.Zone,
				float64(reg.Latency.Mean.Microseconds())/1000,
				float64(reg.Latency.P99.Microseconds())/1000,
				float64(reg.AvailabilityGap.Microseconds())/1000,
				reg.Acked, reg.Stalls)
		}
		return
	}
	fmt.Printf("%-10s %-18s acked=%-5d gap=%-12v p99=%-10v lin=%v recovered=%v\n",
		r.Protocol, name, r.Acked, r.AvailabilityGap, r.Latency.P99,
		r.Linearizable, r.AllComplete && r.Converged)
	for _, reg := range r.Regions {
		fmt.Printf("    %v\n", reg)
	}
	for _, a := range r.FaultLog {
		fmt.Printf("    fault: %v\n", a)
	}
}

// overloadBase configures the shared overload-sweep cluster: 25 nodes (the
// paper's headline size), batch 16 with the default window so the derived
// MaxPending = 4×4×16 = 256 bounds the leader's ingress queue, 64 open-loop
// clients. QueueTTL trims work that already exceeded the clients' patience,
// so a saturated leader never replicates dead commands.
func overloadBase(p harness.Protocol, suite harness.Suite) harness.OverloadOptions {
	o := harness.OverloadOptions{}
	o.Protocol = p
	o.N = 25
	o.NumGroups = 3
	o.Clients = 64
	o.BatchSize = 16
	o.Warmup = suite.Warmup
	o.Measure = suite.Measure
	o.Seed = suite.Seed
	o.OpTimeout = time.Second
	o.QueueTTL = time.Second
	return o
}

// printOverload renders one overload rung, as a table row or as a benchmark
// line.
func printOverload(p harness.Protocol, r harness.OverloadResult, bound int, deterministic, benchfmt bool) {
	if benchfmt {
		fmt.Printf("BenchmarkOverload/%s/rate%.0f 1 %.1f goodput-ops/sec %.1f offered-ops/sec %.3f p50-ms %.3f p99-ms %d busy-ops %d shed-ops %d timeout-ops %d dropped-expired %d max-queue-depth %d queue-bound %d deterministic\n",
			p, r.Rate, r.Goodput, r.OfferedRate,
			float64(r.Latency.P50.Microseconds())/1000,
			float64(r.Latency.P99.Microseconds())/1000,
			r.Busy, r.Shed, r.Timeouts, r.DroppedExpired,
			r.MaxQueueDepth, bound, b2i(deterministic))
		return
	}
	fmt.Printf("%-10s %v qdepth=%d/%d deterministic=%v\n", p, r, r.MaxQueueDepth, bound, deterministic)
}

// shardBase configures the shared sharded cluster: 12 nodes (so four
// 3-member groups tile the membership disjointly) under 48 closed-loop
// clients — the aggregate client count every shard-count point shares.
func shardBase(p harness.Protocol, suite harness.Suite) harness.ScenarioOptions {
	o := harness.ScenarioOptions{}
	o.Protocol = p
	o.N = 12
	o.Clients = 48
	o.Warmup = suite.Warmup
	o.Measure = suite.Measure
	o.Seed = suite.Seed
	return o
}

// printShardSweep renders one scaling curve: aggregate throughput, speedup
// over the smallest swept shard count, latency, and the busiest shard's
// ack share (the hot-shard signal under a zipfian workload).
func printShardSweep(p harness.Protocol, dist workload.Distribution, pts []harness.ShardPoint, benchfmt bool) {
	for _, pt := range pts {
		if benchfmt {
			fmt.Printf("BenchmarkShardSweep/%s/%s/S%d 1 %.0f req/s %.3f speedup %.3f mean-ms %.3f p99-ms %.3f hot-share\n",
				p, dist, pt.Shards, pt.Throughput, pt.SpeedupVsMin, pt.MeanLatMs, pt.P99Ms, pt.HotShardShare)
			continue
		}
		fmt.Printf("%-10s %-8s S=%d tput=%-8.0f speedup=%-6.2f mean=%-8.3fms p99=%-8.3fms hot-share=%.2f\n",
			p, dist, pt.Shards, pt.Throughput, pt.SpeedupVsMin, pt.MeanLatMs, pt.P99Ms, pt.HotShardShare)
	}
}

// printShardScenario renders one sharded chaos result with its per-shard
// availability slices and the blast-radius verdict.
func printShardScenario(name string, r harness.ScenarioResult, untouchedStalls int, deterministic, benchfmt bool) {
	if benchfmt {
		fmt.Printf("BenchmarkShardScenario/%s/%s 1 %.0f req/s %.3f p99-ms %d acked %d linearizable %d recovered %d untouched-stalls %d deterministic\n",
			r.Protocol, name, r.Throughput,
			float64(r.Latency.P99.Microseconds())/1000,
			r.Acked, b2i(r.Linearizable), b2i(r.AllComplete && r.Converged),
			untouchedStalls, b2i(deterministic))
		for _, sl := range r.PerShard {
			fmt.Printf("BenchmarkShardScenario/%s/%s/shard%d 1 %d acked %.3f avail-gap-ms %d stalls\n",
				r.Protocol, name, sl.Shard, sl.Acked,
				float64(sl.AvailabilityGap.Microseconds())/1000, sl.Stalls)
		}
		return
	}
	fmt.Printf("%-10s %-18s acked=%-5d lin=%v recovered=%v untouched-stalls=%d deterministic=%v\n",
		r.Protocol, name, r.Acked, r.Linearizable, r.AllComplete && r.Converged,
		untouchedStalls, deterministic)
	for _, sl := range r.PerShard {
		fmt.Printf("    shard %d: acked=%-5d gap=%-12v stalls=%d\n", sl.Shard, sl.Acked, sl.AvailabilityGap, sl.Stalls)
	}
	for _, a := range r.FaultLog {
		fmt.Printf("    fault: %v\n", a)
	}
}

// runScenarios executes the named chaos suite. jobs fans explorer-driven
// suites across workers (0 = GOMAXPROCS); runs sizes the sweep scenario.
func runScenarios(name string, suite harness.Suite, benchfmt bool, runs, jobs int) error {
	switch name {
	case "wan":
		// Figure 9: Paxos vs PigPaxos per-region client latency on the
		// three-region deployment, fault-free, under closed-loop load. The
		// leader-bottleneck separation shows up in every region's mean.
		for _, p := range []harness.Protocol{harness.Paxos, harness.PigPaxos} {
			printRegions("wan", harness.RunScenario(wanBase(p, suite), nil), benchfmt)
		}
	case "regionpartition":
		// Whole-region outages: first a minority region (Oregon) loses its
		// WAN uplinks — the majority side must sail on while the marooned
		// region stalls — then the leader's own region (Virginia) is cut,
		// forcing a cross-region failover. Both heal before the deadline.
		for _, p := range []harness.Protocol{harness.Paxos, harness.PigPaxos} {
			o := wanBase(p, suite)
			at := o.Warmup + 300*time.Millisecond
			cut := chaos.RegionCut(config.ZoneOregon, at, 600*time.Millisecond)
			printRegions("cut-minority", harness.RunScenario(o, cut), benchfmt)
			cut = chaos.RegionCut(config.ZoneVirginia, at, 600*time.Millisecond)
			printRegions("cut-leader", harness.RunScenario(o, cut), benchfmt)
		}
	case "placement":
		// Leader placement flip: force a campaign from California
		// mid-window and measure what the move costs (one ballot
		// handover's availability gap) and how the per-region latency
		// profile shifts toward the new leader's neighbors.
		for _, p := range []harness.Protocol{harness.Paxos, harness.PigPaxos} {
			o := wanBase(p, suite)
			flip := chaos.PlacementFlip(config.ZoneCalifornia, o.Warmup+o.Measure/2)
			printRegions("placement-flip", harness.RunScenario(o, flip), benchfmt)
		}
	case "wanexplore":
		// Seeded random region-fault schedules (WANPalette): partitions,
		// WAN-path degradation, region crashes, placement flips.
		for _, p := range []harness.Protocol{harness.Paxos, harness.PigPaxos} {
			o := wanBase(p, suite)
			o.Jobs = jobs
			results := harness.ExploreScenarios(o, chaos.ExplorerOpts{Scenarios: 3})
			for i, r := range results {
				printRegions(fmt.Sprintf("explore/%d", i), r, benchfmt)
			}
		}
	case "leader":
		// The paper's leader-failover story: kill the current leader
		// mid-window, measure the gap until the new leader serves.
		for _, p := range []harness.Protocol{harness.Paxos, harness.PigPaxos} {
			o := scenarioBase(p, suite)
			at := o.Warmup + 300*time.Millisecond
			printScenario("leader-crash", harness.RunScenario(o, chaos.LeaderCrash(at, 500*time.Millisecond)), benchfmt)
		}
	case "relay":
		// Figure 5b: kill the relay currently carrying group 0; the leader
		// re-fans-out with fresh relays after its timeout.
		o := scenarioBase(harness.PigPaxos, suite)
		at := o.Warmup + 300*time.Millisecond
		printScenario("relay-crash", harness.RunScenario(o, chaos.RelayCrash(0, at, 400*time.Millisecond)), benchfmt)
	case "explore":
		// Seeded random schedules per protocol, palettes matched to what
		// each implementation tolerates (see harness.ExploreScenarios).
		for _, p := range []harness.Protocol{harness.Paxos, harness.PigPaxos, harness.EPaxos} {
			o := scenarioBase(p, suite)
			o.Jobs = jobs
			results := harness.ExploreScenarios(o, chaos.ExplorerOpts{Scenarios: 3})
			for i, r := range results {
				printScenario(fmt.Sprintf("explore/%d", i), r, benchfmt)
			}
		}
	case "epaxoschaos":
		// EPaxos under the full fault hose: a command leader crashes
		// mid-window while probabilistic loss and duplication chew on the
		// links — Explicit Prepare recovery, the retransmit sweep and the
		// session tables must deliver a clean bill (linearizable,
		// converged, zero unrecovered instances), bit-identically at equal
		// seeds. The explorer then runs the full EPaxos palette (what
		// ExploreSchedules picks for LAN EPaxos).
		o := scenarioBase(harness.EPaxos, suite)
		at := o.Warmup + 300*time.Millisecond
		sched := chaos.Merge(
			chaos.LeaderCrash(at, 500*time.Millisecond),
			chaos.FlakyLinks(netsim.LinkFaults{Loss: 0.05, Duplicate: 0.02},
				at+100*time.Millisecond, 600*time.Millisecond),
		)
		r := harness.RunScenario(o, sched)
		again := harness.RunScenario(o, sched)
		printEPaxosChaos("crash+loss", r, reflect.DeepEqual(r, again), benchfmt)
		if r.Unrecovered != 0 || !r.Linearizable || !(r.AllComplete && r.Converged) {
			return fmt.Errorf("epaxoschaos: unrecovered=%d lin=%v recovered=%v",
				r.Unrecovered, r.Linearizable, r.AllComplete && r.Converged)
		}
		if !reflect.DeepEqual(r, again) {
			return fmt.Errorf("epaxoschaos: two runs at seed %d are not bit-identical", o.Seed)
		}
		o.Jobs = jobs
		ex := chaos.ExplorerOpts{Scenarios: 3}
		results := harness.ExploreScenarios(o, ex)
		rerun := harness.ExploreScenarios(o, ex)
		for i, er := range results {
			det := reflect.DeepEqual(er, rerun[i])
			printEPaxosChaos(fmt.Sprintf("explore/%d", i), er, det, benchfmt)
			if er.Unrecovered != 0 || !er.Linearizable || !(er.AllComplete && er.Converged) || !det {
				return fmt.Errorf("epaxoschaos explore/%d: unrecovered=%d lin=%v recovered=%v deterministic=%v",
					i, er.Unrecovered, er.Linearizable, er.AllComplete && er.Converged, det)
			}
		}
	case "epaxoswan":
		// EPaxos on the Figure-9 deployment under region faults: a
		// minority region loses its WAN uplinks (its clients marooned with
		// it), then one WAN path degrades with loss and reordering. The
		// commit-floor gossip must converge the marooned replicas after
		// the heal. The offered load is a third of the Paxos-family WAN
		// suite's: every EPaxos commit pays a seven-member quorum across
		// the WAN, so the Figure-9 closed-loop client fleet would swamp it
		// and the scripts could never drain.
		o := harness.WANScenario(harness.EPaxos, 9, 24, 10, suite.Seed)
		at := o.Warmup + 300*time.Millisecond
		cut := chaos.RegionCut(config.ZoneOregon, at, 600*time.Millisecond)
		printRegions("cut-minority", harness.RunScenario(o, cut), benchfmt)
		deg := chaos.DegradeWANPair(config.ZoneVirginia, config.ZoneCalifornia,
			netsim.LinkFaults{Loss: 0.05, Reorder: 0.1, ReorderWindow: 2 * time.Millisecond},
			at, 800*time.Millisecond)
		printRegions("wan-degrade", harness.RunScenario(o, deg), benchfmt)
	case "shard":
		// Horizontal scaling: the key space partitioned across S independent
		// consensus groups at equal aggregate client count, S ∈ {1,2,4,8},
		// uniform and zipfian keys, for both leader-based protocols. Gated
		// on the sharding layer's acceptance bar: ≥3× aggregate throughput
		// at S=4 under uniform keys.
		for _, p := range []harness.Protocol{harness.Paxos, harness.PigPaxos} {
			for _, dist := range []workload.Distribution{workload.Uniform, workload.Zipfian} {
				o := shardBase(p, suite)
				o.Workload = workload.Config{Dist: dist}
				pts := harness.ShardSweep(o.Options, harness.DefaultShardSweep)
				printShardSweep(p, dist, pts, benchfmt)
				if dist != workload.Uniform {
					continue
				}
				for _, pt := range pts {
					if pt.Shards == 4 && pt.SpeedupVsMin < 3 {
						return fmt.Errorf("shard: %s S=4 speedup %.2f× under uniform keys, want ≥3×", p, pt.SpeedupVsMin)
					}
				}
			}
		}
		// Blast radius under chaos: crash shard 0's leader mid-window; the
		// cross-shard history must stay linearizable, every script must
		// drain, shards the victim does not replicate must record zero
		// stalls, and two runs at one seed must be bit-identical.
		o := shardBase(harness.PigPaxos, suite)
		o.Shards = 4
		o.Clients = 16
		o.OpsPerClient = 24
		if suite.Measure < 2*time.Second {
			o.Measure = 2 * time.Second
		}
		sched := chaos.ShardLeaderCrash(0, o.Warmup+o.Measure/4, o.Measure/2)
		r := harness.RunScenario(o, sched)
		again := harness.RunScenario(o, sched)
		det := reflect.DeepEqual(r, again)
		if len(r.FaultLog) == 0 || r.FaultLog[0].Kind != chaos.CrashShardLeader {
			return fmt.Errorf("shard: no shard-leader crash in the fault log: %v", r.FaultLog)
		}
		touched := map[int]bool{}
		plan := shard.Plan(config.NewLAN(o.N), o.Shards)
		for _, k := range plan.ShardsOn(r.FaultLog[0].Target) {
			touched[k] = true
		}
		untouchedStalls := 0
		for _, sl := range r.PerShard {
			if !touched[sl.Shard] {
				untouchedStalls += sl.Stalls
			}
		}
		printShardScenario("leader-crash", r, untouchedStalls, det, benchfmt)
		if !r.Linearizable || !(r.AllComplete && r.Converged) {
			return fmt.Errorf("shard: lin=%v recovered=%v", r.Linearizable, r.AllComplete && r.Converged)
		}
		if untouchedStalls != 0 {
			return fmt.Errorf("shard: %d stalls on shards the victim does not replicate — blast radius escaped", untouchedStalls)
		}
		if !det {
			return fmt.Errorf("shard: two runs at seed %d are not bit-identical", o.Seed)
		}
	case "restart":
		// Durable deployments: honest crash-restarts from snapshot + WAL
		// tail (leader restart, torn journal tail, rolling follower
		// reboots, a slow-disk window), the fsync cost ablation, and the
		// recovery-latency-vs-snapshot-age curve on a real filesystem.
		return runRestartSuite(suite, benchfmt)
	case "sweep":
		// Large multi-protocol parallel exploration: runs schedules per
		// protocol across jobs workers, classifies failures, auto-shrinks
		// each one, and persists the minimized schedules in corpus format.
		return runSweep(suite, benchfmt, runs, jobs)
	case "overload":
		// The §5.4 saturation sweep under admission control: an open-loop
		// Poisson rate ladder pushed ~8× past the knee for both
		// leader-based protocols. Gated on what the bounded-ingress change
		// promises: leader queue depth never exceeds the derived
		// MaxPending, the top rung's goodput holds ≥80% of the peak
		// rung's, and two sweeps at one seed are bit-identical.
		for _, p := range []harness.Protocol{harness.Paxos, harness.PigPaxos} {
			o := overloadBase(p, suite)
			rates := []float64{5000, 10000, 20000, 40000, 80000, 160000}
			results := harness.OverloadSweep(o, rates)
			again := harness.OverloadSweep(o, rates)
			det := reflect.DeepEqual(results, again)
			bound := 4 * 4 * 16 // the derived MaxPending: 4 × window × batch
			peak, last := 0.0, 0.0
			for _, r := range results {
				if r.Goodput > peak {
					peak = r.Goodput
				}
				last = r.Goodput
				printOverload(p, r, bound, det, benchfmt)
				if r.MaxQueueDepth > uint64(bound) {
					return fmt.Errorf("overload: %s queue depth %d exceeds MaxPending %d",
						p, r.MaxQueueDepth, bound)
				}
			}
			if last < 0.8*peak {
				return fmt.Errorf("overload: %s top-rung goodput %.0f/s < 80%% of peak %.0f/s",
					p, last, peak)
			}
			if !det {
				return fmt.Errorf("overload: two sweeps at seed %d are not bit-identical", o.Seed)
			}
		}
	case "faultcurve":
		for _, p := range []harness.Protocol{harness.Paxos, harness.PigPaxos} {
			o := scenarioBase(p, suite)
			for _, pt := range harness.FaultCurve(o, 3) {
				if benchfmt {
					lin := 0
					if pt.Linearizable {
						lin = 1
					}
					rec := 0
					if pt.Recovered {
						rec = 1
					}
					fmt.Printf("BenchmarkScenario/%s/faultcurve/%d 1 %.3f avail-gap-ms %.0f req/s %.3f p99-ms %d linearizable %d recovered\n",
						p, pt.Crashes,
						float64(pt.AvailabilityGap.Microseconds())/1000,
						pt.Throughput,
						float64(pt.P99.Microseconds())/1000, lin, rec)
					continue
				}
				fmt.Printf("%-10s crashes=%d tput=%-8.0f gap=%-12v p99=%-10v lin=%v recovered=%v\n",
					p, pt.Crashes, pt.Throughput, pt.AvailabilityGap, pt.P99, pt.Linearizable, pt.Recovered)
			}
		}
	default:
		return fmt.Errorf("unknown -scenario %q (want %s)", name, strings.Join(scenarioNames, ", "))
	}
	return nil
}
