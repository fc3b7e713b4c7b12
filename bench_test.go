package pigpaxos

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablations of its design choices. Each benchmark
// runs the corresponding experiment on the deterministic simulator and
// reports the headline quantity through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation at reduced resolution. cmd/pigbench
// runs the full-resolution sweeps (`pigbench -all`, or one `-fig`/`-table`
// at a time); the README's Quick start lists the commands, and its
// Performance section what the measurements found.

import (
	"testing"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/harness"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/model"
	ipaxos "pigpaxos/internal/paxos"
	ipig "pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/workload"
)

// benchSuite trims sweeps so the whole -bench=. run stays in minutes while
// preserving every experiment's shape.
func benchSuite() harness.Suite {
	s := harness.QuickSuite()
	s.Warmup = 300 * time.Millisecond
	s.Measure = time.Second
	return s
}

// BenchmarkTable1MessageLoad regenerates Table 1: analytical message loads
// at leader and followers for a 25-node cluster, r = 2..6 and Paxos.
func BenchmarkTable1MessageLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := benchSuite().Table1MessageLoad()
		b.ReportMetric(rep.Raw["Ml_r2"], "Ml(r=2)")
		b.ReportMetric(rep.Raw["Ml_r24"], "Ml(paxos)")
	}
}

// BenchmarkTable2MessageLoad regenerates Table 2 for the 9-node cluster.
func BenchmarkTable2MessageLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := benchSuite().Table2MessageLoad()
		b.ReportMetric(rep.Raw["Ml_r2"], "Ml(r=2)")
		b.ReportMetric(rep.Raw["Ml_r8"], "Ml(paxos)")
	}
}

// BenchmarkFig7RelayGroups regenerates Figure 7: max throughput of 25-node
// PigPaxos across relay-group counts. The paper's finding: fewest groups
// (r=2) wins; throughput declines as r grows.
func BenchmarkFig7RelayGroups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := benchSuite().Fig7RelayGroups()
		b.ReportMetric(rep.Raw["r2"], "req/s(r=2)")
		b.ReportMetric(rep.Raw["r3"], "req/s(r=3)")
		b.ReportMetric(rep.Raw["r6"], "req/s(r=6)")
	}
}

// BenchmarkFig8Scalability25 regenerates Figure 8: 25-node latency vs
// throughput for the three protocols. Paper: Paxos ≈ 2k, EPaxos ≈ 1k,
// PigPaxos ≈ 7k req/s.
func BenchmarkFig8Scalability25(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := benchSuite().Fig8Scalability25()
		b.ReportMetric(rep.Raw["Paxos"], "req/s(paxos)")
		b.ReportMetric(rep.Raw["EPaxos"], "req/s(epaxos)")
		b.ReportMetric(rep.Raw["PigPaxos"], "req/s(pig)")
	}
}

// BenchmarkFig9WAN regenerates Figure 9: 15-node, 3-region WAN cluster.
func BenchmarkFig9WAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := benchSuite().Fig9WAN()
		b.ReportMetric(rep.Raw["Paxos"], "req/s(paxos)")
		b.ReportMetric(rep.Raw["PigPaxos"], "req/s(pig)")
	}
}

// BenchmarkFig10Small5 regenerates Figure 10: the 5-node cluster.
func BenchmarkFig10Small5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := benchSuite().Fig10Small5()
		b.ReportMetric(rep.Raw["Paxos"], "req/s(paxos)")
		b.ReportMetric(rep.Raw["EPaxos"], "req/s(epaxos)")
		b.ReportMetric(rep.Raw["PigPaxos"], "req/s(pig)")
	}
}

// BenchmarkFig11Small9 regenerates Figure 11: the 9-node cluster with 2 and
// 3 relay groups.
func BenchmarkFig11Small9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := benchSuite().Fig11Small9()
		b.ReportMetric(rep.Raw["Paxos"], "req/s(paxos)")
		b.ReportMetric(rep.Raw["PigPaxos-r2"], "req/s(pig-r2)")
		b.ReportMetric(rep.Raw["PigPaxos-r3"], "req/s(pig-r3)")
	}
}

// BenchmarkFig12PayloadSize regenerates Figure 12: payload sweep 8..1280B.
func BenchmarkFig12PayloadSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := benchSuite().Fig12PayloadSize()
		b.ReportMetric(rep.Raw["paxos8"], "req/s(paxos,8B)")
		b.ReportMetric(rep.Raw["paxos1280"], "req/s(paxos,1280B)")
		b.ReportMetric(rep.Raw["pig8"], "req/s(pig,8B)")
		b.ReportMetric(rep.Raw["pig1280"], "req/s(pig,1280B)")
		b.ReportMetric(rep.Raw["pigNormMin"], "pig-norm-min")
	}
}

// BenchmarkFig13FaultTolerance regenerates Figure 13: throughput over time
// while one of 25 nodes is down, 3 relay groups, 50ms relay timeout.
// Paper: ≈3% decline during the fault window.
func BenchmarkFig13FaultTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := benchSuite().Fig13FaultTolerance()
		b.ReportMetric(rep.Raw["healthy"], "req/s(healthy)")
		b.ReportMetric(rep.Raw["faulted"], "req/s(faulted)")
		b.ReportMetric(rep.Raw["declinePct"], "decline%")
	}
}

// --------------------------------------------------------------- ablations --

func ablationRun(b *testing.B, mut func(*harness.Options)) float64 {
	b.Helper()
	o := harness.Options{
		Protocol:  harness.PigPaxos,
		N:         25,
		NumGroups: 3,
		Clients:   200,
		Warmup:    300 * time.Millisecond,
		Measure:   time.Second,
	}
	if mut != nil {
		mut(&o)
	}
	return harness.Run(o).Throughput
}

// BenchmarkAblationRelayRotation compares random relay rotation (§3.2)
// against pinned relays: pinned relays become hotspots and should lose.
func BenchmarkAblationRelayRotation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rotating := ablationRun(b, nil)
		fixed := ablationRun(b, func(o *harness.Options) {
			o.MutPig = func(c *ipig.Config) { c.FixedRelays = true }
		})
		b.ReportMetric(rotating, "req/s(rotating)")
		b.ReportMetric(fixed, "req/s(fixed)")
	}
}

// BenchmarkAblationThresholds compares wait-for-all aggregation against
// §4.2 partial response collection.
func BenchmarkAblationThresholds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		waitAll := ablationRun(b, nil)
		threshold := ablationRun(b, func(o *harness.Options) {
			o.MutPig = func(c *ipig.Config) { c.UseThresholds = true }
		})
		b.ReportMetric(waitAll, "req/s(wait-all)")
		b.ReportMetric(threshold, "req/s(threshold)")
	}
}

// BenchmarkAblationMultiLayer compares single-layer relay trees against the
// §6.3 multi-layer extension: the paper argues the extra layer cannot help
// because the leader remains the bottleneck.
func BenchmarkAblationMultiLayer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		single := ablationRun(b, func(o *harness.Options) { o.NumGroups = 2 })
		multi := ablationRun(b, func(o *harness.Options) {
			o.NumGroups = 2
			o.MutPig = func(c *ipig.Config) {
				c.MultiLayer = true
				c.SubGroupSize = 4
			}
		})
		b.ReportMetric(single, "req/s(1-layer)")
		b.ReportMetric(multi, "req/s(2-layer)")
	}
}

// BenchmarkAblationThriftyPaxos compares full-broadcast Paxos against the
// thrifty optimization (§2.2). On a clean cluster thrifty wins — the leader
// sends and receives only a quorum's worth of messages — but a single
// sluggish node inside the contacted set stalls every round (the §2.2
// criticism), while full-broadcast Paxos just takes the next-fastest votes.
func BenchmarkAblationThriftyPaxos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full := ablationRun(b, func(o *harness.Options) { o.Protocol = harness.Paxos })
		thrifty := ablationRun(b, func(o *harness.Options) {
			o.Protocol = harness.Paxos
			o.MutPaxos = func(c *ipaxos.Config) { c.Thrifty = true }
		})
		// Same comparison with node 2 (always inside the thrifty set)
		// running 20x slower.
		slow := func(o *harness.Options) {
			o.Protocol = harness.Paxos
			o.Faults = chaos.Schedule{{Action: chaos.Action{Kind: chaos.Sluggish, Node: ids.NewID(1, 2), Factor: 20}}}
		}
		fullSlow := ablationRun(b, slow)
		thriftySlow := ablationRun(b, func(o *harness.Options) {
			slow(o)
			o.MutPaxos = func(c *ipaxos.Config) { c.Thrifty = true }
		})
		b.ReportMetric(full, "req/s(full)")
		b.ReportMetric(thrifty, "req/s(thrifty)")
		b.ReportMetric(fullSlow, "req/s(full+slow)")
		b.ReportMetric(thriftySlow, "req/s(thrifty+slow)")
	}
}

// BenchmarkAblationZipfianWorkload measures PigPaxos under a skewed key
// distribution (not in the paper; sanity ablation: a leader-ordered log is
// insensitive to key skew, unlike EPaxos).
func BenchmarkAblationZipfianWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		uniform := ablationRun(b, nil)
		zipf := ablationRun(b, func(o *harness.Options) {
			o.Workload = workload.Config{Dist: workload.Zipfian}
		})
		epaxosZipf := ablationRun(b, func(o *harness.Options) {
			o.Protocol = harness.EPaxos
			o.Clients = 50 // EPaxos under skew degrades fast; keep the run short
			o.Workload = workload.Config{Dist: workload.Zipfian}
		})
		b.ReportMetric(uniform, "req/s(pig-uniform)")
		b.ReportMetric(zipf, "req/s(pig-zipf)")
		b.ReportMetric(epaxosZipf, "req/s(epaxos-zipf)")
	}
}

// BenchmarkBatchingSweep measures leader-side command batching: saturation
// throughput at batch caps 1 and 16 for both leader-based protocols on the
// 25-node cluster. Batching multiplies throughput for both (≥3×) because it
// amortizes the per-slot fan-out round — the per-message leader tax the
// paper identifies — over the whole batch.
func BenchmarkBatchingSweep(b *testing.B) {
	run := func(p harness.Protocol, batch int) harness.Result {
		return harness.Run(harness.Options{
			Protocol:  p,
			N:         25,
			Clients:   200,
			BatchSize: batch,
			Warmup:    300 * time.Millisecond,
			Measure:   time.Second,
		})
	}
	for i := 0; i < b.N; i++ {
		pax1 := run(harness.Paxos, 1)
		pax16 := run(harness.Paxos, 16)
		pig1 := run(harness.PigPaxos, 1)
		pig16 := run(harness.PigPaxos, 16)
		b.ReportMetric(pax1.Throughput, "req/s(paxos,b1)")
		b.ReportMetric(pax16.Throughput, "req/s(paxos,b16)")
		b.ReportMetric(pig1.Throughput, "req/s(pig,b1)")
		b.ReportMetric(pig16.Throughput, "req/s(pig,b16)")
		b.ReportMetric(pig16.MeanBatchSize, "meanbatch(pig,b16)")
		b.ReportMetric(pig16.MsgsPerCmd, "msgs/cmd(pig,b16)")
	}
}

// BenchmarkModelTable1 measures the pure analytical model (no simulation).
func BenchmarkModelTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		model.Table(25, []int{2, 3, 4, 5, 6})
	}
}
