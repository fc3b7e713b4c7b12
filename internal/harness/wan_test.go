package harness

import (
	"reflect"
	"testing"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/config"
	"pigpaxos/internal/netsim"
)

// requireWANHealthy asserts the multi-region recovery criteria: linearizable
// histories, every script completed (all acked commands committed), replicas
// converged, and a per-region breakdown present for all three regions.
func requireWANHealthy(t *testing.T, r ScenarioResult, o ScenarioOptions) {
	t.Helper()
	if !r.Linearizable {
		t.Errorf("%v: history not linearizable (%d ops)", r.Protocol, r.LinChecked)
	}
	if !r.AllComplete {
		t.Errorf("%v: not every client finished its script", r.Protocol)
	}
	if !r.Converged {
		t.Errorf("%v: replica state machines diverged", r.Protocol)
	}
	if want := o.Clients * o.OpsPerClient; r.Acked != want {
		t.Errorf("%v: acked %d ops, want %d", r.Protocol, r.Acked, want)
	}
	if len(r.Regions) != 3 {
		t.Fatalf("%v: %d region breakdowns, want 3", r.Protocol, len(r.Regions))
	}
	total := 0
	for _, reg := range r.Regions {
		total += reg.Acked
		if reg.Latency.Count != uint64(reg.Acked) {
			t.Errorf("%v zone %d: %d acked but %d latency samples", r.Protocol, reg.Zone, reg.Acked, reg.Latency.Count)
		}
	}
	if total != r.Acked {
		t.Errorf("%v: region acks sum to %d, cluster says %d", r.Protocol, total, r.Acked)
	}
}

// region pulls one zone's breakdown out of a result.
func region(t *testing.T, r ScenarioResult, zone int) RegionResult {
	t.Helper()
	for _, reg := range r.Regions {
		if reg.Zone == zone {
			return reg
		}
	}
	t.Fatalf("no breakdown for zone %d in %v", zone, r.Regions)
	return RegionResult{}
}

// The Figure 9 shape: on the three-region deployment at n=9 under
// closed-loop load, PigPaxos's per-region client latency is at or below
// Paxos's in every region — the leader pays 2r instead of 2(N−1) message
// costs per slot, and at WAN load that difference is what clients feel.
func TestWANFigure9Shape(t *testing.T) {
	pax := RunScenario(WANScenario(Paxos, 9, 80, 20, 42), nil)
	pig := RunScenario(WANScenario(PigPaxos, 9, 80, 20, 42), nil)
	requireWANHealthy(t, pax, WANScenario(Paxos, 9, 80, 20, 42))
	requireWANHealthy(t, pig, WANScenario(PigPaxos, 9, 80, 20, 42))
	for _, z := range []int{config.ZoneVirginia, config.ZoneCalifornia, config.ZoneOregon} {
		pm := region(t, pax, z).Latency.Mean
		gm := region(t, pig, z).Latency.Mean
		if gm > pm {
			t.Errorf("zone %d: PigPaxos mean %v above Paxos %v — Figure 9 separation lost", z, gm, pm)
		}
	}
	if pig.Latency.P99 > pax.Latency.P99 {
		t.Errorf("cluster-wide p99: PigPaxos %v above Paxos %v", pig.Latency.P99, pax.Latency.P99)
	}
}

// A minority region (Oregon) losing its WAN uplinks maroons exactly that
// region: its clients stall for the cut (bounded by heal + one client-retry
// interval) while the majority side keeps serving smoothly — and after the
// heal everything recovers to a linearizable, converged whole.
func TestScenarioRegionPartitionMinorityHeals(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := WANScenario(p, 9, 8, 16, 42)
			cut := o.Warmup + 300*time.Millisecond
			heal := 500 * time.Millisecond
			sched := chaos.RegionCut(config.ZoneOregon, cut, heal)
			r := RunScenario(o, sched)
			requireWANHealthy(t, r, o)
			or := region(t, r, config.ZoneOregon)
			if or.AvailabilityGap < heal {
				t.Errorf("marooned region gap %v below the %v cut", or.AvailabilityGap, heal)
			}
			if bound := heal + o.ClientRetry + 200*time.Millisecond; or.AvailabilityGap > bound {
				t.Errorf("marooned region gap %v exceeds heal+retry bound %v", or.AvailabilityGap, bound)
			}
			if or.Stalls < 1 {
				t.Error("marooned region should record a stall")
			}
			for _, z := range []int{config.ZoneVirginia, config.ZoneCalifornia} {
				if reg := region(t, r, z); reg.AvailabilityGap >= 250*time.Millisecond || reg.Stalls != 0 {
					t.Errorf("majority-side zone %d stalled: gap %v, stalls %d", z, reg.AvailabilityGap, reg.Stalls)
				}
			}
			if again := RunScenario(o, sched); !reflect.DeepEqual(r, again) {
				t.Error("same seed diverged")
			}
		})
	}
}

// Cutting the leader's own region forces a cross-region failover: a bounded
// availability gap on the order of the election timeout, then the majority
// side serves again and the healed region catches up — acked commands all
// commit, histories stay linearizable.
func TestScenarioRegionPartitionLeaderRegion(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := WANScenario(p, 9, 8, 16, 42)
			sched := chaos.RegionCut(config.ZoneVirginia, o.Warmup+300*time.Millisecond, 500*time.Millisecond)
			r := RunScenario(o, sched)
			requireWANHealthy(t, r, o)
			if r.AvailabilityGap < 200*time.Millisecond {
				t.Errorf("leader-region cut opened only a %v gap; failover costs at least an election timeout", r.AvailabilityGap)
			}
			if r.AvailabilityGap > 2*time.Second {
				t.Errorf("failover gap %v unbounded", r.AvailabilityGap)
			}
		})
	}
}

// A leader placement flip moves leadership into the target region: the
// fault log records the campaigner from California, service pays a bounded
// handover gap, and the run stays healthy end to end.
func TestScenarioPlacementFlip(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := WANScenario(p, 9, 8, 16, 42)
			sched := chaos.PlacementFlip(config.ZoneCalifornia, o.Warmup+o.Measure/2)
			r := RunScenario(o, sched)
			requireWANHealthy(t, r, o)
			if len(r.FaultLog) != 1 {
				t.Fatalf("fault log = %v, want one flip", r.FaultLog)
			}
			fl := r.FaultLog[0]
			if fl.Kind != chaos.LeaderPlacementFlip || fl.Zone != config.ZoneCalifornia {
				t.Errorf("fault log = %v", fl)
			}
			if fl.Target.Zone() != config.ZoneCalifornia {
				t.Errorf("campaigner %v not from California", fl.Target)
			}
			if r.AvailabilityGap > 2*time.Second {
				t.Errorf("placement handover gap %v unbounded", r.AvailabilityGap)
			}
		})
	}
}

// EPaxos is leaderless: a placement flip resolves to nobody, is skipped, and
// the run sails on untouched.
func TestScenarioPlacementFlipSkippedForEPaxos(t *testing.T) {
	o := ScenarioOptions{}
	o.Protocol = EPaxos
	o.N = 9
	o.WAN = true
	o.RegionClients = true
	o.Clients = 9
	o.OpsPerClient = 12
	o.Warmup = 300 * time.Millisecond
	o.Measure = 1500 * time.Millisecond
	o.Seed = 42
	sched := chaos.PlacementFlip(config.ZoneCalifornia, o.Warmup+500*time.Millisecond)
	r := RunScenario(o, sched)
	if len(r.FaultLog) != 0 {
		t.Errorf("fault log = %v, want empty (flip unresolvable)", r.FaultLog)
	}
	if !r.Linearizable || !r.AllComplete || !r.Converged {
		t.Errorf("EPaxos WAN run unhealthy: %v", r)
	}
}

// Seed-determinism regression over WAN topologies: every protocol, run twice
// under the same region-fault schedule at the same seed, produces
// bit-identical results — metrics, per-region breakdowns, and fault logs
// alike. Extends the LAN cross-protocol determinism tests to NewWAN3.
func TestWANScenarioSeedDeterminismAllProtocols(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos, EPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			var o ScenarioOptions
			var sched chaos.Schedule
			if p == EPaxos {
				// No retransmit machinery: reorder-only degradation plus a
				// sluggish window.
				o = ScenarioOptions{}
				o.Protocol = p
				o.N = 9
				o.WAN = true
				o.RegionClients = true
				o.Clients = 9
				o.OpsPerClient = 12
				o.Warmup = 300 * time.Millisecond
				o.Measure = 1500 * time.Millisecond
				o.Seed = 7
				sched = chaos.Merge(
					chaos.DegradeWANPair(config.ZoneVirginia, config.ZoneOregon,
						netsim.LinkFaults{Reorder: 0.2, ReorderWindow: 2 * time.Millisecond},
						o.Warmup+200*time.Millisecond, 600*time.Millisecond),
					chaos.Schedule{{At: o.Warmup + 400*time.Millisecond, Action: chaos.Action{
						Kind: chaos.Sluggish, Node: config.NewWAN3(9).Nodes[4], Factor: 3,
						Duration: 300 * time.Millisecond,
					}}},
				)
			} else {
				// Lossy topology + the full region fault family.
				o = WANScenario(p, 9, 6, 12, 7)
				o.WANLossy = true
				sched = chaos.Merge(
					chaos.DegradeWANPair(config.ZoneCalifornia, config.ZoneOregon,
						netsim.LinkFaults{Loss: 0.03, Duplicate: 0.02},
						o.Warmup+100*time.Millisecond, 400*time.Millisecond),
					chaos.RegionCut(config.ZoneOregon, o.Warmup+600*time.Millisecond, 400*time.Millisecond),
					chaos.PlacementFlip(config.ZoneCalifornia, o.Warmup+1200*time.Millisecond),
				)
			}
			if err := chaos.Validate(sched, config.NewWAN3(9), o.Warmup+o.Measure+5*time.Second); err != nil {
				t.Fatal(err)
			}
			r := RunScenario(o, sched)
			again := RunScenario(o, sched)
			if !reflect.DeepEqual(r, again) {
				t.Fatalf("same seed diverged:\n%v\n%v", r, again)
			}
			if r.Acked == 0 {
				t.Error("no operations acknowledged")
			}
			requireClean(t, []ScenarioResult{r})
		})
	}
}

// The lossy WAN topology on its own (no scheduled faults) is fully masked by
// retransmission and client retries: complete, converged, linearizable.
func TestWANLossyMaskedByRetries(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := WANScenario(p, 9, 6, 12, 21)
			o.WANLossy = true
			r := RunScenario(o, nil)
			requireWANHealthy(t, r, o)
		})
	}
}

// WAN explorer runs: every schedule from the WAN palette executes to a
// healthy verdict on the Paxos family, deterministically.
func TestWANExploreScenarios(t *testing.T) {
	o := WANScenario(PigPaxos, 9, 6, 12, 11)
	results := ExploreScenarios(o, chaos.ExplorerOpts{Scenarios: 3})
	again := ExploreScenarios(o, chaos.ExplorerOpts{Scenarios: 3})
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if !r.Linearizable {
			t.Errorf("schedule %d: not linearizable (faults %v)", i, r.FaultLog)
		}
		if !reflect.DeepEqual(r, again[i]) {
			t.Errorf("schedule %d: same seed diverged", i)
		}
	}
}
