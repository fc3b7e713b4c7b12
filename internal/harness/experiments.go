package harness

import (
	"fmt"
	"strings"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/metrics"
	"pigpaxos/internal/model"
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

func (s Suite) base() Options {
	return Options{Warmup: s.Warmup, Measure: s.Measure, Seed: s.Seed}
}

// Fig7RelayGroups regenerates Figure 7: maximum throughput of a 25-node
// PigPaxos cluster as the number of relay groups varies from 2 to 6.
func (s Suite) Fig7RelayGroups() Report {
	rep := Report{
		ID:     "Figure 7",
		Title:  "Max throughput vs number of relay groups, 25-node PigPaxos",
		Header: []string{"relay groups", "max throughput (req/s)"},
		Raw:    map[string]float64{},
	}
	for r := 2; r <= 6; r++ {
		o := s.base()
		o.Protocol = PigPaxos
		o.N = 25
		o.NumGroups = r
		tp := MaxThroughput(o, s.MaxSweep)
		rep.Rows = append(rep.Rows, []string{fmt.Sprintf("%d", r), fmt.Sprintf("%.0f", tp)})
		rep.Raw[fmt.Sprintf("r%d", r)] = tp
	}
	return rep
}

func curveRows(pts []CurvePoint) [][]string {
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Clients),
			fmt.Sprintf("%.0f", p.Throughput),
			fmt.Sprintf("%.2f", p.LatencyMs),
			fmt.Sprintf("%.2f", p.P99Ms),
		})
	}
	return rows
}

func (s Suite) curveReport(id, title string, configs map[string]Options) Report {
	rep := Report{
		ID:     id,
		Title:  title,
		Header: []string{"system", "clients", "throughput (req/s)", "mean latency (ms)", "p99 (ms)"},
		Raw:    map[string]float64{},
	}
	// Deterministic ordering of configs by name length then name keeps
	// reports stable across runs.
	names := make([]string, 0, len(configs))
	for n := range configs {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, name := range names {
		pts := Curve(configs[name], s.CurveSweep)
		best := 0.0
		for _, p := range pts {
			if p.Throughput > best {
				best = p.Throughput
			}
		}
		rep.Raw[name] = best
		for _, row := range curveRows(pts) {
			rep.Rows = append(rep.Rows, append([]string{name}, row...))
		}
	}
	return rep
}

// Fig8Scalability25 regenerates Figure 8: latency vs throughput for Paxos,
// EPaxos and PigPaxos (3 relay groups) on a 25-node cluster.
func (s Suite) Fig8Scalability25() Report {
	mk := func(p Protocol) Options {
		o := s.base()
		o.Protocol = p
		o.N = 25
		o.NumGroups = 3
		return o
	}
	return s.curveReport("Figure 8",
		"Latency vs throughput, 25-node cluster (PigPaxos: 3 relay groups)",
		map[string]Options{
			"Paxos":    mk(Paxos),
			"EPaxos":   mk(EPaxos),
			"PigPaxos": mk(PigPaxos),
		})
}

// Fig9WAN regenerates Figure 9: latency vs throughput on a 15-node WAN
// cluster spread over Virginia, California and Oregon, PigPaxos with one
// relay group per region.
func (s Suite) Fig9WAN() Report {
	mk := func(p Protocol) Options {
		o := s.base()
		o.Protocol = p
		o.N = 15
		o.WAN = true
		o.ZoneGroups = true
		return o
	}
	// WAN RTTs mean each closed-loop client offers only ~7 req/s, so the
	// sweep extends far beyond the LAN ladder to reach saturation.
	wanSweep := make([]int, 0, len(s.CurveSweep)+2)
	wanSweep = append(wanSweep, s.CurveSweep...)
	last := wanSweep[len(wanSweep)-1]
	wanSweep = append(wanSweep, last*2, last*4)
	ws := s
	ws.CurveSweep = wanSweep
	return ws.curveReport("Figure 9",
		"Latency vs throughput, 15-node WAN cluster (3 regions = 3 relay groups)",
		map[string]Options{
			"Paxos":    mk(Paxos),
			"PigPaxos": mk(PigPaxos),
		})
}

// Fig10Small5 regenerates Figure 10: latency vs throughput on a 5-node
// cluster, PigPaxos with 2 relay groups.
func (s Suite) Fig10Small5() Report {
	mk := func(p Protocol) Options {
		o := s.base()
		o.Protocol = p
		o.N = 5
		o.NumGroups = 2
		return o
	}
	return s.curveReport("Figure 10",
		"Latency vs throughput, 5-node cluster (PigPaxos: 2 relay groups)",
		map[string]Options{
			"Paxos":    mk(Paxos),
			"EPaxos":   mk(EPaxos),
			"PigPaxos": mk(PigPaxos),
		})
}

// Fig11Small9 regenerates Figure 11: latency vs throughput on a 9-node
// cluster with PigPaxos at 2 and 3 relay groups vs Paxos.
func (s Suite) Fig11Small9() Report {
	mk := func(p Protocol, groups int) Options {
		o := s.base()
		o.Protocol = p
		o.N = 9
		o.NumGroups = groups
		return o
	}
	return s.curveReport("Figure 11",
		"Latency vs throughput, 9-node cluster (PigPaxos: 2 and 3 relay groups)",
		map[string]Options{
			"Paxos":       mk(Paxos, 0),
			"PigPaxos-r2": mk(PigPaxos, 2),
			"PigPaxos-r3": mk(PigPaxos, 3),
		})
}

// PayloadSweep is the Figure 12 payload ladder.
var PayloadSweep = []int{8, 128, 256, 512, 1024, 1280}

// Fig12PayloadSize regenerates Figure 12: maximum throughput (absolute and
// normalized) of 25-node Paxos and PigPaxos (3 relay groups) under a
// write-only workload as the payload grows from 8 to 1280 bytes, with 150
// clients as in the paper.
func (s Suite) Fig12PayloadSize() Report {
	rep := Report{
		ID:     "Figure 12",
		Title:  "Max throughput vs payload size, 25 nodes, write-only, 150 clients",
		Header: []string{"payload (B)", "Paxos (req/s)", "Paxos norm", "PigPaxos (req/s)", "PigPaxos norm"},
		Raw:    map[string]float64{},
	}
	type point struct{ paxos, pig float64 }
	pts := make([]point, 0, len(PayloadSweep))
	var maxPaxos, maxPig float64
	for _, size := range PayloadSweep {
		mk := func(p Protocol) float64 {
			o := s.base()
			o.Protocol = p
			o.N = 25
			o.NumGroups = 3
			o.Clients = 150
			o.Workload = workload.Config{PayloadSize: size}.WriteOnly()
			return Run(o).Throughput
		}
		pt := point{paxos: mk(Paxos), pig: mk(PigPaxos)}
		pts = append(pts, pt)
		if pt.paxos > maxPaxos {
			maxPaxos = pt.paxos
		}
		if pt.pig > maxPig {
			maxPig = pt.pig
		}
	}
	for i, size := range PayloadSweep {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.0f", pts[i].paxos),
			fmt.Sprintf("%.3f", pts[i].paxos/maxPaxos),
			fmt.Sprintf("%.0f", pts[i].pig),
			fmt.Sprintf("%.3f", pts[i].pig/maxPig),
		})
		rep.Raw[fmt.Sprintf("paxos%d", size)] = pts[i].paxos
		rep.Raw[fmt.Sprintf("pig%d", size)] = pts[i].pig
	}
	rep.Raw["paxosNormMin"] = 1
	rep.Raw["pigNormMin"] = 1
	for i := range pts {
		if v := pts[i].paxos / maxPaxos; v < rep.Raw["paxosNormMin"] {
			rep.Raw["paxosNormMin"] = v
		}
		if v := pts[i].pig / maxPig; v < rep.Raw["pigNormMin"] {
			rep.Raw["pigNormMin"] = v
		}
	}
	return rep
}

// Fig13FaultTolerance regenerates Figure 13: throughput over time of a
// 25-node PigPaxos cluster with 3 relay groups and a 50ms relay timeout,
// sampled over one-second intervals, while one node is crashed for part of
// the run.
func (s Suite) Fig13FaultTolerance() Report {
	measure := 12 * time.Second
	crashAt := 4 * time.Second
	recoverAt := 8 * time.Second
	o := s.base()
	o.Protocol = PigPaxos
	o.N = 25
	o.NumGroups = 3
	o.Clients = 200
	o.Measure = measure
	o.SampleWidth = time.Second
	victim := o.cluster().Nodes[o.N-1] // a follower
	o.Faults = chaos.Schedule{
		{At: o.Warmup + crashAt, Action: chaos.Action{Kind: chaos.Crash, Node: victim}},
		{At: o.Warmup + recoverAt, Action: chaos.Action{Kind: chaos.Recover, Node: victim}},
	}
	o.MutPig = nil // default 50ms relay timeout, as in the paper
	r := Run(o)

	rep := Report{
		ID:     "Figure 13",
		Title:  "Throughput over time under a single-node failure (25 nodes, 3 groups, 50ms relay timeout)",
		Header: []string{"time (s)", "throughput (req/s)", "phase"},
		Raw:    map[string]float64{},
	}
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
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%.0f", p.Start.Seconds()),
			fmt.Sprintf("%.0f", p.Rate),
			phase,
		})
	}
	if nBefore > 0 && nDuring > 0 {
		rep.Raw["healthy"] = before / float64(nBefore)
		rep.Raw["faulted"] = during / float64(nDuring)
		rep.Raw["declinePct"] = 100 * (1 - (during/float64(nDuring))/(before/float64(nBefore)))
		rep.Rows = append(rep.Rows, []string{
			"", fmt.Sprintf("decline: %.1f%%", rep.Raw["declinePct"]), "",
		})
	}
	return rep
}

// BatchSizeSweep is the batch-size ladder of the batching study.
var BatchSizeSweep = []int{1, 4, 16, 64}

// BatchSweep measures leader-side command batching (not in the paper; the
// natural next step after its per-message leader cost analysis): saturation
// throughput, realized mean batch size, and cluster messages per command
// for Paxos and PigPaxos as the batch-size cap grows, on the 25-node
// cluster at 200 clients. BatchSize 1 is the paper's unbatched baseline.
func (s Suite) BatchSweep() Report {
	rep := Report{
		ID:     "Batching",
		Title:  "Batch-size sweep, 25-node cluster, 200 clients (PigPaxos: 3 relay groups)",
		Header: []string{"system", "batch cap", "throughput (req/s)", "mean batch", "msgs/cmd", "mean latency (ms)", "p99 (ms)"},
		Raw:    map[string]float64{},
	}
	for _, proto := range []Protocol{Paxos, PigPaxos} {
		for _, b := range BatchSizeSweep {
			o := s.base()
			o.Protocol = proto
			o.N = 25
			o.NumGroups = 3
			o.Clients = 200
			o.BatchSize = b
			r := Run(o)
			rep.Rows = append(rep.Rows, []string{
				proto.String(),
				fmt.Sprintf("%d", b),
				fmt.Sprintf("%.0f", r.Throughput),
				fmt.Sprintf("%.1f", r.MeanBatchSize),
				fmt.Sprintf("%.1f", r.MsgsPerCmd),
				fmt.Sprintf("%.2f", float64(r.Latency.Mean.Microseconds())/1000),
				fmt.Sprintf("%.2f", float64(r.Latency.P99.Microseconds())/1000),
			})
			rep.Raw[fmt.Sprintf("%s_b%d", proto, b)] = r.Throughput
			rep.Raw[fmt.Sprintf("%s_b%d_batch", proto, b)] = r.MeanBatchSize
			rep.Raw[fmt.Sprintf("%s_b%d_msgs", proto, b)] = r.MsgsPerCmd
		}
	}
	return rep
}

// Table1MessageLoad regenerates Table 1 (25-node analytical message loads),
// cross-checked against messages actually counted on the simulated network.
func (s Suite) Table1MessageLoad() Report {
	return s.messageLoadTable("Table 1", 25, []int{2, 3, 4, 5, 6})
}

// Table2MessageLoad regenerates Table 2 (9-node analytical message loads).
func (s Suite) Table2MessageLoad() Report {
	return s.messageLoadTable("Table 2", 9, []int{2, 3, 4})
}

func (s Suite) messageLoadTable(id string, n int, groups []int) Report {
	rows := model.Table(n, groups)
	rep := Report{
		ID:     id,
		Title:  fmt.Sprintf("Analytical message load, %d-node cluster", n),
		Header: []string{"relay groups (r)", "msgs at leader (Ml)", "msgs at follower (Mf)", "leader overhead"},
		Raw:    map[string]float64{},
	}
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.Groups)
		if r.IsPaxos {
			label += " (Paxos)"
		}
		rep.Rows = append(rep.Rows, []string{
			label,
			fmt.Sprintf("%.0f", r.Leader),
			fmt.Sprintf("%.2f", r.Follower),
			fmt.Sprintf("%.0f%%", r.OverheadPct),
		})
		rep.Raw[fmt.Sprintf("Ml_r%d", r.Groups)] = r.Leader
		rep.Raw[fmt.Sprintf("Mf_r%d", r.Groups)] = r.Follower
	}
	return rep
}

// UtilizationReport measures the §6.1 claim directly: CPU utilization of
// the leader vs the average follower on a saturated 25-node PigPaxos
// cluster, as the relay-group count grows. The paper verified its
// analytical leader-overhead column by observing exactly this gap on EC2.
func (s Suite) UtilizationReport() Report {
	rep := Report{
		ID:     "Section 6.1",
		Title:  "Leader vs follower CPU utilization, 25-node PigPaxos at saturation",
		Header: []string{"relay groups", "leader util", "mean follower util", "measured gap", "model overhead"},
		Raw:    map[string]float64{},
	}
	for r := 2; r <= 6; r++ {
		o := s.base()
		o.Protocol = PigPaxos
		o.N = 25
		o.NumGroups = r
		o.Clients = 200
		res := Run(o)
		gap := 0.0
		if res.MeanFollowerUtil > 0 {
			gap = res.LeaderUtil/res.MeanFollowerUtil - 1
		}
		ml, mf := model.LeaderLoad(r), model.FollowerLoad(25, r)
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", r),
			fmt.Sprintf("%.0f%%", 100*res.LeaderUtil),
			fmt.Sprintf("%.0f%%", 100*res.MeanFollowerUtil),
			fmt.Sprintf("%.0f%%", 100*gap),
			fmt.Sprintf("%.0f%%", 100*model.LeaderOverhead(ml, mf)),
		})
		rep.Raw[fmt.Sprintf("gap_r%d", r)] = gap
	}
	return rep
}
