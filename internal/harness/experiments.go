package harness

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/metrics"
	"pigpaxos/internal/model"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/workload"
)

// Report is a rendered experiment result, printable in the paper's layout.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Raw carries experiment-specific numbers for programmatic checks.
	Raw map[string]float64
}

func newReport(id, title string, header ...string) Report {
	return Report{ID: id, Title: title, Header: header, Raw: map[string]float64{}}
}

// String implements fmt.Stringer.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	b.WriteString(metrics.Table(r.Header, r.Rows))
	return b.String()
}

// Durations used by the experiment suite. Shrunk in tests/benches via the
// Quick flag; the defaults favor stable numbers.
type Suite struct {
	// Warmup and Measure configure every run's measurement window.
	Warmup, Measure time.Duration
	// Seed drives all randomness.
	Seed int64
	// MaxSweep lists the client counts scanned for "maximum throughput"
	// readings.
	MaxSweep []int
	// CurveSweep lists the client counts of latency-throughput curves.
	CurveSweep []int
}

// DefaultSuite returns the full-fidelity experiment configuration.
func DefaultSuite() Suite {
	return Suite{
		Warmup:     500 * time.Millisecond,
		Measure:    2 * time.Second,
		Seed:       42,
		MaxSweep:   []int{25, 50, 100, 200, 400},
		CurveSweep: []int{1, 2, 5, 10, 25, 50, 100, 200, 400},
	}
}

// QuickSuite returns a reduced configuration for CI and unit tests.
func QuickSuite() Suite {
	return Suite{
		Warmup:     200 * time.Millisecond,
		Measure:    time.Second,
		Seed:       42,
		MaxSweep:   []int{50, 200},
		CurveSweep: []int{1, 10, 50, 200},
	}
}

// on returns the suite's run of protocol p on an n-node LAN cluster with
// the given relay groups (PigPaxos only) and closed-loop clients.
func (s Suite) on(p Protocol, n, groups, clients int) Options {
	return Options{Protocol: p, N: n, NumGroups: groups, Clients: clients,
		Warmup: s.Warmup, Measure: s.Measure, Seed: s.Seed}
}

// fig7RelayGroups: maximum throughput of 25-node PigPaxos at 2 to 6 relay
// groups.
func (s Suite) fig7RelayGroups() Report {
	rep := newReport("Figure 7", "Max throughput vs number of relay groups, 25-node PigPaxos",
		"relay groups", "max throughput (req/s)")
	for r := 2; r <= 6; r++ {
		tp := MaxThroughput(s.on(PigPaxos, 25, r, 0), s.MaxSweep)
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", r), fmt.Sprintf("%.0f", tp)})
		rep.Raw[fmt.Sprintf("r%d", r)] = tp
	}
	return rep
}

// curveReport runs each named configuration over the suite's client sweep.
// Raw keeps each system's best throughput under its name, and every point's
// throughput and mean latency under name_cN and name_cN_ms.
func (s Suite) curveReport(id, title string, configs map[string]Options) Report {
	rep := newReport(id, title, "system", "clients", "throughput (req/s)", "mean latency (ms)", "p99 (ms)")
	for _, name := range slices.Sorted(maps.Keys(configs)) {
		for _, p := range Curve(configs[name], s.CurveSweep) {
			rep.Raw[name] = max(rep.Raw[name], p.Throughput)
			rep.Raw[fmt.Sprintf("%s_c%d", name, p.Clients)] = p.Throughput
			rep.Raw[fmt.Sprintf("%s_c%d_ms", name, p.Clients)] = p.LatencyMs
			rep.Rows = append(rep.Rows, []string{name, fmt.Sprintf("%d", p.Clients),
				fmt.Sprintf("%.0f", p.Throughput), fmt.Sprintf("%.2f", p.LatencyMs), fmt.Sprintf("%.2f", p.P99Ms)})
		}
	}
	return rep
}

// fig8Scalability25: latency vs throughput of the three protocols on 25
// nodes, PigPaxos with 3 relay groups.
func (s Suite) fig8Scalability25() Report {
	return s.curveReport("Figure 8", "Latency vs throughput, 25-node cluster (PigPaxos: 3 relay groups)",
		map[string]Options{"Paxos": s.on(Paxos, 25, 3, 0), "EPaxos": s.on(EPaxos, 25, 3, 0), "PigPaxos": s.on(PigPaxos, 25, 3, 0)})
}

// fig9WAN: latency vs throughput on 15 nodes spread over Virginia,
// California and Oregon, PigPaxos with one relay group per region.
func (s Suite) fig9WAN() Report {
	wan := func(p Protocol) Options {
		o := s.on(p, 15, 0, 0)
		o.WAN, o.ZoneGroups = true, true
		return o
	}
	// WAN RTTs mean each closed-loop client offers only ~7 req/s, so the
	// sweep extends far beyond the LAN ladder to reach saturation.
	last := s.CurveSweep[len(s.CurveSweep)-1]
	s.CurveSweep = append(slices.Clone(s.CurveSweep), last*2, last*4)
	return s.curveReport("Figure 9", "Latency vs throughput, 15-node WAN cluster (3 regions = 3 relay groups)",
		map[string]Options{"Paxos": wan(Paxos), "PigPaxos": wan(PigPaxos)})
}

// fig10Small5: latency vs throughput on 5 nodes, PigPaxos with 2 relay
// groups.
func (s Suite) fig10Small5() Report {
	return s.curveReport("Figure 10", "Latency vs throughput, 5-node cluster (PigPaxos: 2 relay groups)",
		map[string]Options{"Paxos": s.on(Paxos, 5, 2, 0), "EPaxos": s.on(EPaxos, 5, 2, 0), "PigPaxos": s.on(PigPaxos, 5, 2, 0)})
}

// fig11Small9: latency vs throughput on 9 nodes, PigPaxos at 2 and 3 relay
// groups.
func (s Suite) fig11Small9() Report {
	return s.curveReport("Figure 11", "Latency vs throughput, 9-node cluster (PigPaxos: 2 and 3 relay groups)",
		map[string]Options{"Paxos": s.on(Paxos, 9, 0, 0), "PigPaxos-r2": s.on(PigPaxos, 9, 2, 0), "PigPaxos-r3": s.on(PigPaxos, 9, 3, 0)})
}

// payloadSweep is the Figure 12 payload ladder.
var payloadSweep = []int{8, 128, 256, 512, 1024, 1280}

// fig12PayloadSize: throughput, absolute and normalized to each protocol's
// best, of 25-node Paxos and PigPaxos (3 relay groups) under a write-only
// load of 150 clients, as in the paper, as the payload grows.
func (s Suite) fig12PayloadSize() Report {
	rep := newReport("Figure 12", "Max throughput vs payload size, 25 nodes, write-only, 150 clients",
		"payload (B)", "Paxos (req/s)", "Paxos norm", "PigPaxos (req/s)", "PigPaxos norm")
	tps := map[Protocol][]float64{}
	for _, size := range payloadSweep {
		for _, p := range []Protocol{Paxos, PigPaxos} {
			o := s.on(p, 25, 3, 150)
			o.Workload = workload.Config{PayloadSize: size}.WriteOnly()
			tps[p] = append(tps[p], Run(o).Throughput)
		}
	}
	paxos, pig := tps[Paxos], tps[PigPaxos]
	for i, size := range payloadSweep {
		rep.Raw[fmt.Sprintf("paxos%d", size)], rep.Raw[fmt.Sprintf("pig%d", size)] = paxos[i], pig[i]
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", size),
			fmt.Sprintf("%.0f", paxos[i]), fmt.Sprintf("%.3f", paxos[i]/slices.Max(paxos)),
			fmt.Sprintf("%.0f", pig[i]), fmt.Sprintf("%.3f", pig[i]/slices.Max(pig))})
	}
	return rep
}

// fig13FaultTolerance: throughput of 25-node PigPaxos (3 relay groups, the
// default 50ms relay timeout) per one-second interval while one follower is
// down from 4 s to 8 s into the window.
func (s Suite) fig13FaultTolerance() Report {
	crashAt, recoverAt := 4*time.Second, 8*time.Second
	o := s.on(PigPaxos, 25, 3, 200)
	o.Measure = 12 * time.Second
	o.SampleWidth = time.Second
	victim := o.cluster().Nodes[o.N-1] // a follower
	o.Faults = chaos.Schedule{
		{At: o.Warmup + crashAt, Action: chaos.Action{Kind: chaos.Crash, Node: victim}},
		{At: o.Warmup + recoverAt, Action: chaos.Action{Kind: chaos.Recover, Node: victim}},
	}
	r := Run(o)

	rep := newReport("Figure 13", "Throughput over time under a single-node failure (25 nodes, 3 groups, 50ms relay timeout)",
		"time (s)", "throughput (req/s)", "phase")
	var before, during float64
	var nBefore, nDuring int
	for _, p := range r.Series {
		phase := "healthy"
		if p.Start >= crashAt && p.Start < recoverAt {
			phase = "FAULT"
			during += p.Rate
			nDuring++
		} else if p.Start < crashAt {
			before += p.Rate
			nBefore++
		}
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%.0f", p.Start.Seconds()), fmt.Sprintf("%.0f", p.Rate), phase})
	}
	if nBefore > 0 && nDuring > 0 {
		rep.Raw["healthy"] = before / float64(nBefore)
		rep.Raw["faulted"] = during / float64(nDuring)
		rep.Raw["declinePct"] = 100 * (1 - rep.Raw["faulted"]/rep.Raw["healthy"])
		rep.Rows = append(rep.Rows, []string{"", fmt.Sprintf("decline: %.1f%%", rep.Raw["declinePct"]), ""})
	}
	return rep
}

// batchSweep: saturation throughput, realized mean batch and cluster
// messages per command of 25-node Paxos and PigPaxos at 200 clients as the
// batch-size cap grows. Cap 1 is the paper's unbatched baseline.
func (s Suite) batchSweep() Report {
	rep := newReport("Batching", "Batch-size sweep, 25-node cluster, 200 clients (PigPaxos: 3 relay groups)",
		"system", "batch cap", "throughput (req/s)", "mean batch", "msgs/cmd", "mean latency (ms)", "p99 (ms)")
	for _, proto := range []Protocol{Paxos, PigPaxos} {
		for _, b := range []int{1, 4, 16, 64} {
			o := s.on(proto, 25, 3, 200)
			o.BatchSize = b
			r := Run(o)
			rep.Rows = append(rep.Rows, []string{proto.String(), fmt.Sprintf("%d", b),
				fmt.Sprintf("%.0f", r.Throughput), fmt.Sprintf("%.1f", r.MeanBatchSize), fmt.Sprintf("%.1f", r.MsgsPerCmd),
				fmt.Sprintf("%.2f", float64(r.Latency.Mean.Microseconds())/1000),
				fmt.Sprintf("%.2f", float64(r.Latency.P99.Microseconds())/1000)})
			rep.Raw[fmt.Sprintf("%s_b%d", proto, b)] = r.Throughput
			rep.Raw[fmt.Sprintf("%s_b%d_batch", proto, b)] = r.MeanBatchSize
			rep.Raw[fmt.Sprintf("%s_b%d_msgs", proto, b)] = r.MsgsPerCmd
		}
	}
	return rep
}

// table1MessageLoad: the analytical per-request message loads of a 25-node
// cluster (Equations 1 and 3). It runs nothing; the counted cross-check is
// Table 2's.
func (s Suite) table1MessageLoad() Report {
	return messageLoadTable("Table 1", 25, []int{2, 3, 4, 5, 6})
}

// table2MessageLoad: the analytical loads of a 9-node cluster, plus one
// counted row: the messages a 20-client 9-node Paxos run sends per executed
// command. Each passes through the leader, so it is the measured
// counterpart of Paxos' Ml = 2(N−1)+2 = 18.
func (s Suite) table2MessageLoad() Report {
	rep := messageLoadTable("Table 2", 9, []int{2, 3, 4})
	perCmd := Run(s.on(Paxos, 9, 0, 20)).MsgsPerCmd
	rep.Rows = append(rep.Rows, []string{"8 (Paxos, sim)", fmt.Sprintf("%.1f", perCmd), "", ""})
	rep.Raw["Ml_sim_paxos"] = perCmd
	return rep
}

func messageLoadTable(id string, n int, groups []int) Report {
	rep := newReport(id, fmt.Sprintf("Analytical message load, %d-node cluster", n),
		"relay groups (r)", "msgs at leader (Ml)", "msgs at follower (Mf)", "leader overhead")
	for _, r := range model.Table(n, groups) {
		label := fmt.Sprintf("%d", r.Groups)
		if r.IsPaxos {
			label += " (Paxos)"
		}
		rep.Rows = append(rep.Rows, []string{label,
			fmt.Sprintf("%.0f", r.Leader), fmt.Sprintf("%.2f", r.Follower), fmt.Sprintf("%.0f%%", r.OverheadPct)})
		rep.Raw[fmt.Sprintf("Ml_r%d", r.Groups)] = r.Leader
		rep.Raw[fmt.Sprintf("Mf_r%d", r.Groups)] = r.Follower
	}
	return rep
}

// utilization: CPU utilization of the leader against the average follower
// on saturated 25-node PigPaxos as the relay-group count grows. The paper
// verified its analytical leader-overhead column by observing this gap on
// EC2.
func (s Suite) utilization() Report {
	rep := newReport("Section 6.1", "Leader vs follower CPU utilization, 25-node PigPaxos at saturation",
		"relay groups", "leader util", "mean follower util", "measured gap", "model overhead")
	for r := 2; r <= 6; r++ {
		res := Run(s.on(PigPaxos, 25, r, 200))
		gap := 0.0
		if res.MeanFollowerUtil > 0 {
			gap = res.LeaderUtil/res.MeanFollowerUtil - 1
		}
		ml, mf := model.LeaderLoad(r), model.FollowerLoad(25, r)
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", r),
			fmt.Sprintf("%.0f%%", 100*res.LeaderUtil), fmt.Sprintf("%.0f%%", 100*res.MeanFollowerUtil),
			fmt.Sprintf("%.0f%%", 100*gap), fmt.Sprintf("%.0f%%", 100*model.LeaderOverhead(ml, mf))})
		rep.Raw[fmt.Sprintf("gap_r%d", r)] = gap
	}
	return rep
}

// rotation: §3.2's random relay rotation against relays pinned to each
// group's first member (pigpaxos.Config.FixedRelays), on 25-node PigPaxos.
func (s Suite) rotation() Report {
	rep := newReport("Ablation §3.2", "Relay rotation vs pinned relays, 25-node PigPaxos, 3 groups, 200 clients",
		"relays", "throughput (req/s)")
	o := s.on(PigPaxos, 25, 3, 200)
	rep.Raw["rotating"] = Run(o).Throughput
	o.MutPig = func(c *pigpaxos.Config) { c.FixedRelays = true }
	rep.Raw["fixed"] = Run(o).Throughput
	for _, k := range []string{"rotating", "fixed"} {
		rep.Rows = append(rep.Rows, []string{k, fmt.Sprintf("%.0f", rep.Raw[k])})
	}
	return rep
}

// thrifty: §2.2's thrifty Paxos (paxos.Config.Thrifty) against full
// broadcast on 25 nodes, healthy and with node 1.2, always inside the
// thrifty set, running 20× slower.
func (s Suite) thrifty() Report {
	rep := newReport("Ablation §2.2", "Thrifty vs full-broadcast Paxos, 25 nodes, 200 clients, healthy and with node 1.2 20x slow",
		"fan-out", "healthy (req/s)", "sluggish node (req/s)")
	for _, name := range []string{"full", "thrifty"} {
		o := s.on(Paxos, 25, 3, 200)
		o.MutPaxos = func(c *paxos.Config) { c.Thrifty = name == "thrifty" }
		rep.Raw[name] = Run(o).Throughput
		o.Faults = chaos.Schedule{{Action: chaos.Action{Kind: chaos.Sluggish, Node: ids.NewID(1, 2), Factor: 20}}}
		rep.Raw[name+"_slow"] = Run(o).Throughput
		rep.Rows = append(rep.Rows, []string{name, fmt.Sprintf("%.0f", rep.Raw[name]), fmt.Sprintf("%.0f", rep.Raw[name+"_slow"])})
	}
	return rep
}

// zipf: each protocol under uniform and Zipfian keys on 25 nodes, PigPaxos
// (3 relay groups) at 200 clients and EPaxos at 50, where it has not yet
// passed its peak.
func (s Suite) zipf() Report {
	rep := newReport("Ablation (key skew)", "Uniform vs Zipfian keys, 25 nodes (PigPaxos: 3 groups, 200 clients; EPaxos: 50 clients)",
		"system", "uniform (req/s)", "zipfian (req/s)")
	for _, o := range []Options{s.on(PigPaxos, 25, 3, 200), s.on(EPaxos, 25, 3, 50)} {
		name := o.Protocol.String()
		rep.Raw[name+"_uniform"] = Run(o).Throughput
		o.Workload = workload.Config{Dist: workload.Zipfian}
		rep.Raw[name+"_zipfian"] = Run(o).Throughput
		rep.Rows = append(rep.Rows, []string{name, fmt.Sprintf("%.0f", rep.Raw[name+"_uniform"]), fmt.Sprintf("%.0f", rep.Raw[name+"_zipfian"])})
	}
	return rep
}
