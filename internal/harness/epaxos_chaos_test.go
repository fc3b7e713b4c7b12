package harness

import (
	"reflect"
	"testing"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/netsim"
)

// The targeted EPaxos linearizability-under-faults suite: each scenario
// aims one fault family at one piece of the recovery machinery and asserts
// the full verdict set — linearizable, every script completed, replicas
// converged, and zero unrecovered instances.

// requireRecovered is requireHealthy plus the EPaxos-specific "no instance
// left behind" criterion.
func requireRecovered(t *testing.T, r ScenarioResult) {
	t.Helper()
	requireHealthy(t, r)
	if r.Unrecovered != 0 {
		t.Errorf("%v: %d instances left unexecuted after the drain", r.Protocol, r.Unrecovered)
	}
}

// Command-leader crash mid-pre-accept: the crash lands 100ms into the
// window, while the freshly started clients' first commands are still in
// their pre-accept rounds. Explicit Prepare finishes the orphans; client
// retries re-home on live replicas in sorted ID order.
func TestScenarioEPaxosLeaderCrashMidPreAccept(t *testing.T) {
	o := scenShort(t, EPaxos)
	sched := chaos.LeaderCrash(o.Warmup+100*time.Millisecond, 400*time.Millisecond)
	r := RunScenario(o, sched)
	requireRecovered(t, r)
	if len(r.FaultLog) != 2 || r.FaultLog[0].Kind != chaos.CrashLeader || r.FaultLog[0].Target.IsZero() {
		t.Errorf("fault log %v, want a resolved crash-leader + recover", r.FaultLog)
	}
	if again := RunScenario(o, sched); !reflect.DeepEqual(r, again) {
		t.Error("same seed diverged")
	}
}

// Command-leader crash mid-accept: heavy interference (a tight probe
// keyspace under closed-loop pressure) keeps slow-path Accept rounds in
// flight, and the crash lands on them. Recovery must carry the accepted
// values through — the histories stay linearizable.
func TestScenarioEPaxosLeaderCrashMidAccept(t *testing.T) {
	o := scenShort(t, EPaxos)
	o.ThinkTime = -1 // closed loop: conflicts (and Accept rounds) pile up
	sched := chaos.LeaderCrash(o.Warmup+150*time.Millisecond, 400*time.Millisecond)
	r := RunScenario(o, sched)
	requireRecovered(t, r)
}

// Lost commits: a heavy replica-link loss window eats Commit broadcasts.
// Teach-back (stale retransmits answered with the commit), the retransmit
// sweep, and the commit-floor gossip must converge every replica anyway.
func TestScenarioEPaxosLostCommitTeachBack(t *testing.T) {
	o := scenShort(t, EPaxos)
	sched := chaos.FlakyLinks(netsim.LinkFaults{Loss: 0.15},
		o.Warmup+100*time.Millisecond, 500*time.Millisecond)
	r := RunScenario(o, sched)
	requireRecovered(t, r)
	if r.Dropped == 0 {
		t.Error("loss window dropped nothing; the scenario is vacuous")
	}
}

// Duplicated client retries through the session table: aggressive client
// retry timers plus link duplication force the same command through
// multiple command leaders; the replicated session tables must keep every
// history at-most-once.
func TestScenarioEPaxosDuplicatedRetrySessions(t *testing.T) {
	o := scenShort(t, EPaxos)
	o.ClientRetry = 60 * time.Millisecond // retry hard into the fault window
	sched := chaos.Merge(
		chaos.LeaderCrash(o.Warmup+150*time.Millisecond, 400*time.Millisecond),
		chaos.FlakyLinks(netsim.LinkFaults{Duplicate: 0.1, Loss: 0.03},
			o.Warmup+100*time.Millisecond, 500*time.Millisecond),
	)
	r := RunScenario(o, sched)
	requireRecovered(t, r)
}

// The full EPaxos chaos palette (everything but relay crashes; what
// ExploreSchedules picks for LAN EPaxos) through the seeded explorer: no
// schedule may wedge, diverge, or break linearizability.
func TestScenarioEPaxosFullPaletteExplorer(t *testing.T) {
	o := scenShort(t, EPaxos)
	results := ExploreScenarios(o, chaos.ExplorerOpts{Scenarios: 4})
	if len(results) != 4 {
		t.Fatalf("ran %d scenarios, want 4", len(results))
	}
	for i, r := range results {
		if !r.Linearizable || !r.AllComplete || !r.Converged || r.Unrecovered != 0 {
			t.Errorf("scenario %d: lin=%v complete=%v converged=%v unrecovered=%d (faults %v)",
				i, r.Linearizable, r.AllComplete, r.Converged, r.Unrecovered, r.FaultLog)
		}
	}
}

// EPaxos on the Figure-9 WAN under a minority-region cut: the cut region's
// clients stall, the majority side keeps serving, and after the heal the
// marooned replicas are taught everything they missed.
func TestScenarioEPaxosWANRegionCut(t *testing.T) {
	o := WANScenario(EPaxos, 9, 4, 10, 42)
	at := o.Warmup + 300*time.Millisecond
	sched := chaos.RegionCut(3, at, 600*time.Millisecond) // Oregon, the minority region
	r := RunScenario(o, sched)
	if !r.Linearizable || !r.AllComplete || !r.Converged || r.Unrecovered != 0 {
		t.Fatalf("lin=%v complete=%v converged=%v unrecovered=%d",
			r.Linearizable, r.AllComplete, r.Converged, r.Unrecovered)
	}
	if len(r.Regions) != 3 {
		t.Fatalf("regions = %d, want 3", len(r.Regions))
	}
	if again := RunScenario(o, sched); !reflect.DeepEqual(r, again) {
		t.Error("same seed diverged")
	}
}
