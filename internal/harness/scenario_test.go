package harness

import (
	"reflect"
	"testing"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/netsim"
)

// scenShort is the scenario test configuration: 9 nodes, 3 relay groups, 8
// paced clients over a 1-second window.
func scenShort(t *testing.T, p Protocol) ScenarioOptions {
	t.Helper()
	o := ScenarioOptions{}
	o.Protocol = p
	o.N = 9
	o.NumGroups = 3
	o.Clients = 8
	o.OpsPerClient = 24
	o.Warmup = 200 * time.Millisecond
	o.Measure = time.Second
	return o
}

// requireHealthy asserts the recovery criteria every scenario must meet:
// linearizable histories, every script completed, replicas converged.
func requireHealthy(t *testing.T, r ScenarioResult) {
	t.Helper()
	if !r.Linearizable {
		t.Errorf("%v: history not linearizable (%d ops)", r.Protocol, r.LinChecked)
	}
	if !r.AllComplete {
		t.Errorf("%v: not every acked command was committed (clients stuck)", r.Protocol)
	}
	if !r.Converged {
		t.Errorf("%v: replica state machines diverged", r.Protocol)
	}
	if want := 8 * 24; r.Acked != want {
		t.Errorf("%v: acked %d ops, want %d", r.Protocol, r.Acked, want)
	}
}

// Leader crash mid-run: service gaps for roughly an election timeout, then
// a new leader takes over and every acked command commits — with identical
// numbers across reruns at the same seed.
func TestScenarioLeaderCrash(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := scenShort(t, p)
			sched := chaos.LeaderCrash(o.Warmup+300*time.Millisecond, 400*time.Millisecond)
			r := RunScenario(o, sched)
			requireHealthy(t, r)
			if r.AvailabilityGap < 100*time.Millisecond {
				t.Errorf("leader crash opened only a %v gap; failover should cost ≥ the election timeout", r.AvailabilityGap)
			}
			if r.RecoveryLatency <= 0 {
				t.Error("no recovery latency measured")
			}
			if len(r.FaultLog) != 2 {
				t.Errorf("fault log %v, want crash+recover", r.FaultLog)
			}
			if again := RunScenario(o, sched); !reflect.DeepEqual(r, again) {
				t.Errorf("same seed diverged:\n%v\n%v", r, again)
			}
		})
	}
}

// Three leader crashes in a row on three nodes, the last for good: each
// leader that came back was deposed while it led, and the live pair must
// still elect one of themselves the third time.
func TestRepeatedLeaderCrashKeepsElecting(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		t.Run(p.String(), func(t *testing.T) {
			o := ScenarioOptions{OpsPerClient: 60}
			o.Protocol, o.N, o.Clients = p, 3, 4
			o.Measure = 8 * time.Second // scripts span every crash
			sched := chaos.Merge(
				chaos.LeaderCrash(500*time.Millisecond, 300*time.Millisecond),
				chaos.LeaderCrash(1700*time.Millisecond, 300*time.Millisecond),
				chaos.LeaderCrash(2900*time.Millisecond, time.Hour),
			)
			r := RunScenario(o, sched)
			if !r.AllComplete || r.Acked != 4*60 {
				t.Fatalf("acked %d of %d ops, every script complete: %v", r.Acked, 4*60, r.AllComplete)
			}
			if !r.Linearizable {
				t.Error("history not linearizable")
			}
		})
	}
}

// Leader crash while batches are in flight (MaxBatchSize > 1 with a small
// pipeline window): reclaimed and re-proposed batches must not double-apply
// or drop acked commands.
func TestScenarioLeaderCrashMidBatch(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := scenShort(t, p)
			o.BatchSize = 8
			o.MaxInFlight = 1
			o.ThinkTime = -1 // full closed-loop pressure so batches actually form
			sched := chaos.LeaderCrash(o.Warmup+100*time.Millisecond, 400*time.Millisecond)
			r := RunScenario(o, sched)
			requireHealthy(t, r)
		})
	}
}

// Relay crash mid-aggregation (Figure 5b): the leader's timeout re-fans-out
// with fresh relays, so the gap stays around the relay/leader timeout scale
// — an order of magnitude below failover — and nothing is lost.
func TestScenarioRelayCrashMidAggregation(t *testing.T) {
	o := scenShort(t, PigPaxos)
	sched := chaos.RelayCrash(1, o.Warmup+300*time.Millisecond, 400*time.Millisecond)
	r := RunScenario(o, sched)
	requireHealthy(t, r)
	if r.AvailabilityGap <= 0 {
		t.Error("relay crash should open a measurable gap")
	}
	if r.AvailabilityGap > 150*time.Millisecond {
		t.Errorf("relay crash gap %v; rotation should mask it well below failover", r.AvailabilityGap)
	}
	// The relay-crash victim must be a follower the leader actually used.
	if len(r.FaultLog) == 0 || r.FaultLog[0].Kind != chaos.CrashRelay || r.FaultLog[0].Target.IsZero() {
		t.Errorf("fault log %v, want a resolved crash-relay", r.FaultLog)
	}
	if again := RunScenario(o, sched); !reflect.DeepEqual(r, again) {
		t.Error("same seed diverged")
	}
}

// The leader cut off with a minority for 1.5 s while nobody may depose it
// (elections held off): the slots it opened stay open for the whole cut, and
// only its own retransmit can close them once the cut heals. Thirteen
// timeouts is past where the relay plane's old retry gave up, which left
// those slots — and every client behind them — waiting for good.
func TestScenarioLeaderMinorityOutageHeals(t *testing.T) {
	o := ScenarioOptions{}
	o.Protocol = PigPaxos
	o.N = 5
	o.NumGroups = 2
	o.Clients = 8
	o.OpsPerClient = 24
	o.Warmup = 200 * time.Millisecond
	o.Measure = time.Second
	o.ElectionTimeout = time.Hour
	nodes := o.cluster().Nodes
	sched := chaos.MinorityPartition(nodes[:2], nodes[2:], o.Warmup+300*time.Millisecond, 1500*time.Millisecond)
	r := RunScenario(o, sched)
	requireHealthy(t, r)
	if r.AvailabilityGap < 1500*time.Millisecond {
		t.Errorf("availability gap %v: the cut should have stopped service for its 1.5 s", r.AvailabilityGap)
	}
}

// Every protocol runs bit-identically at equal seeds under the full fault
// mix — crashes, probabilistic loss, duplication and reordering. EPaxos
// takes the same schedule as the Paxos family now that Explicit Prepare
// recovery, the retransmit sweep, and the session tables absorb every
// family (the regression style of the PR 4 step-down redirect fix: any map
// order leaking into message timing shows up here as a seed divergence).
func TestScenarioDeterminismAllProtocols(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos, EPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := scenShort(t, p)
			sched := chaos.Merge(
				chaos.LeaderCrash(o.Warmup+200*time.Millisecond, 300*time.Millisecond),
				chaos.FlakyLinks(netsim.LinkFaults{Loss: 0.02, Duplicate: 0.02, Reorder: 0.1},
					o.Warmup+500*time.Millisecond, 300*time.Millisecond),
			)
			a := RunScenario(o, sched)
			b := RunScenario(o, sched)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
			}
			requireHealthy(t, a)
			o.Seed = 43
			c := RunScenario(o, sched)
			if reflect.DeepEqual(a.Latency, c.Latency) && a.Messages == c.Messages {
				t.Error("different seed should perturb the scenario")
			}
		})
	}
}

// Cross-protocol seed determinism of the steady-state harness: two Runs at
// one seed return bit-identical Results for every protocol (this guards the
// EPaxos map-order fix and the deterministic replica start order).
func TestCrossProtocolSeedDeterminism(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos, EPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := short(t)
			o.Protocol = p
			o.N = 9
			o.NumGroups = 3
			o.Clients = 30
			o.SampleWidth = 250 * time.Millisecond
			a, b := Run(o), Run(o)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed gave different results:\n%+v\n%+v", a, b)
			}
		})
	}
}

// The fault-intensity sweep: linearizable and fully recovered at every
// intensity the bounds allow, with the no-fault point setting the baseline.
func TestFaultCurveSafeAcrossIntensities(t *testing.T) {
	o := scenShort(t, PigPaxos)
	pts := FaultCurve(o, 3)
	if len(pts) != 4 {
		t.Fatalf("curve has %d points, want 4", len(pts))
	}
	for _, pt := range pts {
		if !pt.Linearizable || !pt.Recovered {
			t.Errorf("crashes=%d: lin=%v recovered=%v", pt.Crashes, pt.Linearizable, pt.Recovered)
		}
	}
	if pts[0].AvailabilityGap <= 0 {
		t.Error("baseline gap not measured")
	}
}

// Explorer-driven scenarios stay safe for every protocol under its default
// palette.
func TestExploreScenariosSafeAllProtocols(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos, EPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			o := scenShort(t, p)
			results := ExploreScenarios(o, chaos.ExplorerOpts{Scenarios: 3})
			if len(results) != 3 {
				t.Fatalf("ran %d scenarios, want 3", len(results))
			}
			for i, r := range results {
				if !r.Linearizable || !r.AllComplete || !r.Converged {
					t.Errorf("scenario %d: lin=%v complete=%v converged=%v (faults %v)",
						i, r.Linearizable, r.AllComplete, r.Converged, r.FaultLog)
				}
			}
		})
	}
}
