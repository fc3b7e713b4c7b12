package harness

import (
	"errors"
	"fmt"
	"strings"
)

// Claim is one row of the evaluation ledger: what the paper (or a design
// argument it makes) says, the run that measures it, and the predicate over
// the run's Raw numbers that holds when the measurement backs the claim.
type Claim struct {
	// ID names the row on the command line (pigbench -claim).
	ID string
	// Section is where the paper makes the claim.
	Section string
	// Says is the claim in one sentence.
	Says string
	// Run measures the claim at the suite's resolution.
	Run func(Suite) Report
	// Check returns nil when the report backs the claim, else what broke.
	Check func(Report) error
}

// Claims is the evaluation ledger: Tables 1-2, Figures 7-13, the §6.1
// utilization study and the batching sweep in the paper's order, then the
// ablations of its design arguments. pigbench, the root benchmarks and
// TestClaimsHold all walk this one table.
var Claims = []Claim{
	{
		ID: "table1", Section: "§6.1, Table 1",
		Says: "On 25 nodes the PigPaxos leader handles Ml = 2r+2 messages per request against Paxos' 2(N−1)+2 = 50, where a Paxos follower handles 2.",
		Run:  Suite.table1MessageLoad,
		Check: check(func(v *verdict) {
			ml2, ml24, mf24 := v.at("Ml_r2"), v.at("Ml_r24"), v.at("Mf_r24")
			v.want(ml2 == 6, "Ml(r=2) = %v, want 6", ml2)
			v.want(ml24 == 50, "Paxos Ml = %v, want 50", ml24)
			v.want(mf24 == 2, "Paxos Mf = %v, want 2", mf24)
			v.want(strings.Contains(v.String(), "(Paxos)"), "the Paxos row is not marked")
		}),
	},
	{
		ID: "table2", Section: "§6.1, Table 2",
		Says: "On 9 nodes Ml = 2r+2 against Paxos' 18, and a simulated Paxos run counts about 18 messages per request.",
		Run:  Suite.table2MessageLoad,
		Check: check(func(v *verdict) {
			ml8, mf2, sim := v.at("Ml_r8"), v.at("Mf_r2"), v.at("Ml_sim_paxos")
			v.want(ml8 == 18, "Paxos Ml = %v, want 18", ml8)
			v.want(mf2 == 3.5, "Mf(r=2) = %v, want 3.5", mf2)
			v.want(sim >= 16 && sim <= 22, "simulated Paxos sends %.1f messages per request, want ≈ 18", sim)
		}),
	},
	{
		ID: "fig7", Section: "§5.3, Figure 7",
		Says: "25-node PigPaxos peaks at the fewest relay groups and declines as r grows; the √N grouping (r = 5) loses to r = 2.",
		Run:  Suite.fig7RelayGroups,
		Check: check(func(v *verdict) {
			r2, r3, r5, r6 := v.at("r2"), v.at("r3"), v.at("r5"), v.at("r6")
			v.want(len(v.Rows) == 5, "%d rows, want r = 2..6", len(v.Rows))
			v.want(r2 > r6, "r=2 (%.0f) must beat r=6 (%.0f)", r2, r6)
			v.want(r2 >= r3, "r=2 (%.0f) must be ≥ r=3 (%.0f)", r2, r3)
			v.want(r5 < r2, "√N grouping r=5 (%.0f) must lose to r=2 (%.0f)", r5, r2)
		}),
	},
	{
		ID: "fig8", Section: "§5.4, Figure 8",
		Says: "At 25 nodes and 200 clients PigPaxos serves at least 3× Paxos and EPaxos falls below Paxos; at one client PigPaxos pays for its extra hop with higher latency (the paper reports ≈ 30 %).",
		Run:  Suite.fig8Scalability25,
		Check: check(func(v *verdict) {
			paxos, pig, epaxos := v.at("Paxos_c200"), v.at("PigPaxos_c200"), v.at("EPaxos_c200")
			v.want(pig >= 3*paxos, "at 200 clients PigPaxos %.0f must be ≥ 3× Paxos %.0f", pig, paxos)
			v.want(epaxos < paxos, "at 200 clients EPaxos %.0f must fall below Paxos %.0f", epaxos, paxos)
			paxosMs, pigMs := v.at("Paxos_c1_ms"), v.at("PigPaxos_c1_ms")
			v.want(pigMs > paxosMs, "1-client PigPaxos latency %.2f ms must exceed Paxos %.2f ms", pigMs, paxosMs)
			v.want(pigMs <= 2.5*paxosMs, "1-client PigPaxos latency %.2f ms must stay within 2.5× Paxos %.2f ms", pigMs, paxosMs)
		}),
	},
	{
		ID: "fig9", Section: "§6.4, Figure 9",
		Says: "On a 15-node cluster over three WAN regions, PigPaxos with one relay group per region reaches a higher maximum throughput than Paxos.",
		Run:  Suite.fig9WAN,
		Check: check(func(v *verdict) {
			paxos, pig := v.at("Paxos"), v.at("PigPaxos")
			v.want(pig > paxos, "PigPaxos peak %.0f must exceed Paxos peak %.0f", pig, paxos)
		}),
	},
	{
		ID: "fig10", Section: "§5.5, Figure 10",
		Says: "Even at 5 nodes PigPaxos out-scales Paxos, and EPaxos trails Paxos.",
		Run:  Suite.fig10Small5,
		Check: check(func(v *verdict) {
			paxos, pig, epaxos := v.at("Paxos"), v.at("PigPaxos"), v.at("EPaxos")
			v.want(pig > paxos, "PigPaxos peak %.0f must exceed Paxos %.0f", pig, paxos)
			v.want(epaxos < paxos, "EPaxos peak %.0f must trail Paxos %.0f", epaxos, paxos)
		}),
	},
	{
		ID: "fig11", Section: "§6.2, Figure 11",
		Says: "At 9 nodes PigPaxos beats Paxos by a healthy margin with 2 and with 3 relay groups, and 2 groups do at least as well as 3.",
		Run:  Suite.fig11Small9,
		Check: check(func(v *verdict) {
			paxos, r2, r3 := v.at("Paxos"), v.at("PigPaxos-r2"), v.at("PigPaxos-r3")
			v.want(r2 >= 1.3*paxos, "PigPaxos-r2 %.0f must beat Paxos %.0f by ≥ 30%%", r2, paxos)
			v.want(r3 >= 1.3*paxos, "PigPaxos-r3 %.0f must beat Paxos %.0f by ≥ 30%%", r3, paxos)
			v.want(r2 >= r3, "r=2 (%.0f) must be ≥ r=3 (%.0f)", r2, r3)
		}),
	},
	{
		ID: "fig12", Section: "Figure 12",
		Says: "On 25 nodes under a write-only load, PigPaxos keeps its throughput lead over Paxos at every payload size from 8 to 1280 bytes.",
		Run:  Suite.fig12PayloadSize,
		Check: check(func(v *verdict) {
			for _, size := range payloadSweep {
				paxos, pig := v.at(fmt.Sprintf("paxos%d", size)), v.at(fmt.Sprintf("pig%d", size))
				v.want(pig > paxos, "at %d B PigPaxos %.0f must exceed Paxos %.0f", size, pig, paxos)
			}
		}),
	},
	{
		ID: "fig13", Section: "Figure 13",
		Says: "With 50 ms relay timeouts, one crashed follower of 25 costs PigPaxos little throughput (the paper reports ≈ 3 % while the node is down).",
		Run:  Suite.fig13FaultTolerance,
		Check: check(func(v *verdict) {
			healthy, faulted, decline := v.at("healthy"), v.at("faulted"), v.at("declinePct")
			v.want(healthy > 0 && faulted > 0, "throughput healthy %.0f, faulted %.0f: both must be measured", healthy, faulted)
			v.want(decline < 10, "throughput fell %.1f%% during the fault, want under 10%%", decline)
		}),
	},
	{
		ID: "util", Section: "§6.1",
		Says: "On saturated 25-node PigPaxos the leader out-works the average follower, and the gap grows with every relay group added.",
		Run:  Suite.utilization,
		Check: check(func(v *verdict) {
			gap2 := v.at("gap_r2")
			v.want(gap2 > 0, "leader must out-work followers at r=2 (gap %.2f)", gap2)
			for r := 3; r <= 6; r++ {
				prev, gap := v.at(fmt.Sprintf("gap_r%d", r-1)), v.at(fmt.Sprintf("gap_r%d", r))
				v.want(gap > prev, "gap at r=%d (%.2f) must exceed r=%d (%.2f)", r, gap, r-1, prev)
			}
		}),
	},
	{
		ID: "batch", Section: "not in the paper",
		Says: "Leader batching amortizes the per-slot fan-out: at a cap of 16 both Paxos and PigPaxos serve ≥ 3× their unbatched throughput with under half the messages per command.",
		Run:  Suite.batchSweep,
		Check: check(func(v *verdict) {
			for _, p := range []Protocol{Paxos, PigPaxos} {
				b1, b16 := v.at(fmt.Sprintf("%s_b1", p)), v.at(fmt.Sprintf("%s_b16", p))
				m1, m16 := v.at(fmt.Sprintf("%s_b1_msgs", p)), v.at(fmt.Sprintf("%s_b16_msgs", p))
				v.want(b16 >= 3*b1, "%s batch-16 throughput %.0f must be ≥ 3× unbatched %.0f", p, b16, b1)
				v.want(m16 < m1/2, "%s batch-16 msgs/cmd %.1f must be under half of unbatched %.1f", p, m16, m1)
				v.want(v.at(fmt.Sprintf("%s_b1_batch", p)) == 1, "%s unbatched mean batch must be exactly 1", p)
			}
		}),
	},
	{
		ID: "rotation", Section: "§3.2",
		Says: "Rotating each group's relay at random spreads the relay work; relays pinned to one member become hotspots and lose throughput.",
		Run:  Suite.rotation,
		Check: check(func(v *verdict) {
			rotating, fixed := v.at("rotating"), v.at("fixed")
			v.want(rotating > fixed, "rotating relays %.0f must beat pinned relays %.0f", rotating, fixed)
		}),
	},
	{
		ID: "thrifty", Section: "§2.2",
		Says: "Thrifty Paxos, which contacts only a majority, beats full broadcast on a healthy cluster, but one sluggish node inside the contacted set drags it back to full broadcast's throughput, which the sluggish node does not touch.",
		Run:  Suite.thrifty,
		Check: check(func(v *verdict) {
			full, thrifty := v.at("full"), v.at("thrifty")
			fullSlow, thriftySlow := v.at("full_slow"), v.at("thrifty_slow")
			v.want(thrifty > 1.2*full, "healthy thrifty %.0f must beat full broadcast %.0f by > 20%%", thrifty, full)
			v.want(thriftySlow < 0.8*thrifty, "a sluggish node must cost thrifty > 20%% (%.0f → %.0f)", thrifty, thriftySlow)
			v.want(fullSlow >= 0.95*full, "a sluggish node must cost full broadcast < 5%% (%.0f → %.0f)", full, fullSlow)
		}),
	},
	{
		ID: "zipf", Section: "not in the paper",
		Says: "A leader-ordered log is insensitive to key skew: PigPaxos serves Zipfian keys as fast as uniform ones, while EPaxos' conflicts make it lose throughput under skew.",
		Run:  Suite.zipf,
		Check: check(func(v *verdict) {
			pigU, pigZ := v.at("PigPaxos_uniform"), v.at("PigPaxos_zipfian")
			v.want(pigZ >= 0.95*pigU && pigZ <= 1.05*pigU, "PigPaxos zipfian %.0f must stay within 5%% of uniform %.0f", pigZ, pigU)
			epU, epZ := v.at("EPaxos_uniform"), v.at("EPaxos_zipfian")
			v.want(epZ < epU, "EPaxos zipfian %.0f must fall below uniform %.0f", epZ, epU)
		}),
	},
}

// ClaimIDs lists the ledger's IDs in order.
func ClaimIDs() []string {
	out := make([]string, len(Claims))
	for i, c := range Claims {
		out[i] = c.ID
	}
	return out
}

// verdict gathers what a check finds broken; a key the run did not record
// is broken too, so a check never passes on a missing number.
type verdict struct {
	Report
	broken []string
}

func (v *verdict) at(key string) float64 {
	x, ok := v.Raw[key]
	if !ok {
		v.want(false, "no %s recorded", key)
	}
	return x
}

func (v *verdict) want(ok bool, format string, args ...any) {
	if !ok {
		v.broken = append(v.broken, fmt.Sprintf(format, args...))
	}
}

// check turns a body of want calls into a Claim.Check.
func check(body func(v *verdict)) func(Report) error {
	return func(r Report) error {
		v := &verdict{Report: r}
		body(v)
		if len(v.broken) == 0 {
			return nil
		}
		return errors.New(strings.Join(v.broken, "; "))
	}
}
