package chaos

import (
	"reflect"
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/wire"
)

type sink struct{}

func (sink) OnMessage(ids.ID, wire.Msg) {}

func testNet(n int, seed int64) (*des.Sim, *netsim.Network, config.Cluster) {
	sim := des.New(seed)
	cc := config.NewLAN(n)
	net := netsim.New(sim, cc, netsim.Options{})
	for _, id := range cc.Nodes {
		net.Register(id, sink{}, false)
	}
	return sim, net, cc
}

func TestInjectorCrashAndSelfHeal(t *testing.T) {
	sim, net, cc := testNet(3, 1)
	victim := cc.Nodes[2]
	in := Apply(sim, net, NodeCrash(victim, 10*time.Millisecond, 20*time.Millisecond), nil)
	sim.Run(15 * time.Millisecond)
	if !net.Crashed(victim) {
		t.Fatal("victim not crashed at 15ms")
	}
	sim.Run(40 * time.Millisecond)
	if net.Crashed(victim) {
		t.Fatal("victim not recovered at 40ms")
	}
	log := in.Log()
	if len(log) != 2 || log[0].Kind != Crash || log[1].Kind != Recover {
		t.Fatalf("fault log = %v", log)
	}
	if log[0].Target != victim || log[1].Target != victim {
		t.Fatalf("fault log targets = %v", log)
	}
}

func TestInjectorResolvesDynamicTargets(t *testing.T) {
	sim, net, cc := testNet(5, 1)
	res := StaticResolver{Leaders: []ids.ID{cc.Nodes[1]}, Relays: []ids.ID{cc.Nodes[3]}}
	sched := Merge(
		LeaderCrash(5*time.Millisecond, 10*time.Millisecond),
		RelayCrash(0, 6*time.Millisecond, 10*time.Millisecond),
	)
	in := Apply(sim, net, sched, res)
	sim.Run(8 * time.Millisecond)
	if !net.Crashed(cc.Nodes[1]) || !net.Crashed(cc.Nodes[3]) {
		t.Fatal("dynamic targets not crashed")
	}
	sim.Run(30 * time.Millisecond)
	if net.Crashed(cc.Nodes[1]) || net.Crashed(cc.Nodes[3]) {
		t.Fatal("dynamic targets not recovered")
	}
	if got := len(in.Log()); got != 4 {
		t.Fatalf("fault log has %d entries, want 4", got)
	}
}

func TestInjectorSkipsUnresolvableTargets(t *testing.T) {
	sim, net, _ := testNet(3, 1)
	in := Apply(sim, net, LeaderCrash(time.Millisecond, time.Millisecond), StaticResolver{})
	sim.RunUntilIdle()
	if len(in.Log()) != 0 {
		t.Fatalf("unresolvable action executed: %v", in.Log())
	}
}

func TestInjectorPartitionAndLinkFaultHealing(t *testing.T) {
	sim, net, cc := testNet(4, 1)
	sched := Merge(
		MinorityPartition(cc.Nodes[3:], cc.Nodes[:3], time.Millisecond, 5*time.Millisecond),
		FlakyLinks(netsim.LinkFaults{Loss: 0.5}, 2*time.Millisecond, 5*time.Millisecond),
	)
	Apply(sim, net, sched, nil)
	sim.Run(3 * time.Millisecond)
	if _, ok := net.LinkFaultsBetween(cc.Nodes[0], cc.Nodes[1]); !ok {
		t.Fatal("link faults not installed")
	}
	sim.Run(10 * time.Millisecond)
	if _, ok := net.LinkFaultsBetween(cc.Nodes[0], cc.Nodes[1]); ok {
		t.Fatal("link faults not cleared")
	}
}

func TestValidateAcceptsBoundedSchedules(t *testing.T) {
	cc := config.NewLAN(5)
	s := Merge(
		NodeCrash(cc.Nodes[4], 10*time.Millisecond, 50*time.Millisecond),
		NodeCrash(cc.Nodes[3], 20*time.Millisecond, 50*time.Millisecond),
		LeaderCrash(200*time.Millisecond, 100*time.Millisecond),
	)
	if err := Validate(s, cc, time.Second); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestValidateRejectsQuorumLoss(t *testing.T) {
	cc := config.NewLAN(5)
	s := Merge(
		NodeCrash(cc.Nodes[4], 10*time.Millisecond, 100*time.Millisecond),
		NodeCrash(cc.Nodes[3], 20*time.Millisecond, 100*time.Millisecond),
		NodeCrash(cc.Nodes[2], 30*time.Millisecond, 100*time.Millisecond), // 3 down of 5
	)
	if err := Validate(s, cc, time.Second); err == nil {
		t.Fatal("3 concurrent crashes in a 5-node cluster must be rejected")
	}
}

// Partition cuts and crashes are charged together: cutting nodes 4–5 away
// while nodes 2 and 3 are down leaves node 1 alone, below any majority. A
// crash on the cut side takes nothing more from the connected majority.
func TestValidateChargesPartitionCuts(t *testing.T) {
	cc := config.NewLAN(5)
	cut := MinorityPartition(cc.Nodes[3:], cc.Nodes[:3], 10*time.Millisecond, 100*time.Millisecond)
	s := Merge(cut,
		NodeCrash(cc.Nodes[1], 20*time.Millisecond, 50*time.Millisecond),
		NodeCrash(cc.Nodes[2], 30*time.Millisecond, 50*time.Millisecond),
	)
	if err := Validate(s, cc, time.Second); err == nil {
		t.Fatal("a cut of nodes 4-5 plus crashes of nodes 2 and 3 must be rejected")
	}
	if err := Validate(Merge(cut, NodeCrash(cc.Nodes[2], 30*time.Millisecond, 50*time.Millisecond)), cc, time.Second); err == nil {
		t.Fatal("a cut of nodes 4-5 plus a crash of node 3 leaves two of five connected and must be rejected")
	}
	if err := Validate(Merge(cut, NodeCrash(cc.Nodes[4], 30*time.Millisecond, 50*time.Millisecond)), cc, time.Second); err != nil {
		t.Fatalf("a crash on the cut side leaves nodes 1-3 connected: %v", err)
	}
}

// A sharded cluster is available only while every shard is: two crashes
// leave six nodes a majority, but not shard 0 of two three-node shards.
func TestValidateChargesEachShard(t *testing.T) {
	cc := config.NewLAN(6)
	s := Merge(
		NodeCrash(cc.Nodes[0], 10*time.Millisecond, 50*time.Millisecond),
		NodeCrash(cc.Nodes[1], 20*time.Millisecond, 50*time.Millisecond),
	)
	if err := Validate(s, cc, time.Second); err != nil {
		t.Fatalf("two of six down is within the unsharded bound: %v", err)
	}
	cc.Shards = 2
	if err := Validate(s, cc, time.Second); err == nil {
		t.Fatal("two of shard 0's three members down must be rejected")
	}
}

// Even cluster sizes need a majority of the FULL membership from the
// survivors: in a 4-node cluster 2 concurrent crashes leave only 2 alive —
// below the majority of 3 — so f is 1, not majority−1.
func TestValidateEvenClusterBound(t *testing.T) {
	if got := MaxSafeCrashes(4); got != 1 {
		t.Fatalf("MaxSafeCrashes(4) = %d, want 1", got)
	}
	if got := MaxSafeCrashes(5); got != 2 {
		t.Fatalf("MaxSafeCrashes(5) = %d, want 2", got)
	}
	cc := config.NewLAN(4)
	s := Merge(
		NodeCrash(cc.Nodes[3], 10*time.Millisecond, 100*time.Millisecond),
		NodeCrash(cc.Nodes[2], 20*time.Millisecond, 100*time.Millisecond), // 2 down of 4
	)
	if err := Validate(s, cc, time.Second); err == nil {
		t.Fatal("2 concurrent crashes in a 4-node cluster must be rejected")
	}
}

// A horizon tighter than the generators' minimum durations must not panic:
// windows clamp into the [Start, Horizon] budget.
func TestExplorerTightHorizon(t *testing.T) {
	cc := config.NewLAN(5)
	scheds := Explore(ExplorerOpts{
		Seed: 5, Scenarios: 10, Nodes: cc.Nodes,
		Start:   200 * time.Millisecond,
		Horizon: 250 * time.Millisecond, // span 50ms < every generator's minDur
	})
	for i, s := range scheds {
		if err := Validate(s, cc, 250*time.Millisecond); err != nil {
			t.Errorf("schedule %d violates the tight horizon: %v", i, err)
		}
	}
}

func TestValidateRejectsUnhealedFaults(t *testing.T) {
	cc := config.NewLAN(5)
	if err := Validate(Schedule{{At: time.Millisecond, Action: Action{Kind: Crash, Node: cc.Nodes[4]}}}, cc, time.Second); err == nil {
		t.Fatal("never-recovered crash must be rejected")
	}
	late := NodeCrash(cc.Nodes[4], 900*time.Millisecond, 300*time.Millisecond)
	if err := Validate(late, cc, time.Second); err == nil {
		t.Fatal("crash healing after the deadline must be rejected")
	}
	part := Schedule{{At: time.Millisecond, Action: Action{
		Kind: PartitionCut, SideA: cc.Nodes[:1], SideB: cc.Nodes[1:],
	}}}
	if err := Validate(part, cc, time.Second); err == nil {
		t.Fatal("never-healed partition must be rejected")
	}
}

func TestExplorerSchedulesRespectBounds(t *testing.T) {
	cc := config.NewLAN(9)
	opts := ExplorerOpts{
		Seed:      7,
		Scenarios: 20,
		Nodes:     cc.Nodes,
		Start:     100 * time.Millisecond,
		Horizon:   1200 * time.Millisecond,
	}
	scheds := Explore(opts)
	if len(scheds) != 20 {
		t.Fatalf("generated %d schedules, want 20", len(scheds))
	}
	nonEmpty := 0
	for i, s := range scheds {
		if len(s) > 0 {
			nonEmpty++
		}
		if err := Validate(s, cc, opts.Horizon); err != nil {
			t.Errorf("schedule %d violates bounds: %v", i, err)
		}
		for _, ev := range s {
			if ev.At < opts.Start {
				t.Errorf("schedule %d fires at %v, before Start %v", i, ev.At, opts.Start)
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("explorer generated only empty schedules")
	}
}

func TestExplorerDeterministic(t *testing.T) {
	cc := config.NewLAN(5)
	opts := ExplorerOpts{Seed: 3, Scenarios: 8, Nodes: cc.Nodes}
	a, b := Explore(opts), Explore(opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different schedules")
	}
	opts.Seed = 4
	c := Explore(opts)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical schedules")
	}
}

func TestExplorerHonorsPalette(t *testing.T) {
	cc := config.NewLAN(5)
	scheds := Explore(ExplorerOpts{
		Seed: 11, Scenarios: 10, Nodes: cc.Nodes, Allow: Palette{LinkReorder: true, Sluggish: true},
	})
	for i, s := range scheds {
		for _, ev := range s {
			switch ev.Action.Kind {
			case LinkFault:
				f := ev.Action.Faults
				if f.Loss > 0 || f.Duplicate > 0 {
					t.Errorf("schedule %d: gentle palette drew loss/dup: %+v", i, f)
				}
			case Sluggish:
			default:
				t.Errorf("schedule %d: gentle palette drew %v", i, ev.Action.Kind)
			}
		}
	}
}

func TestExplorerCrashConcurrencyBelowQuorum(t *testing.T) {
	cc := config.NewLAN(5)
	maxDown := MaxSafeCrashes(5)
	scheds := Explore(ExplorerOpts{
		Seed: 13, Scenarios: 30, Nodes: cc.Nodes, MaxActions: 6,
		Allow: Palette{Crashes: true, LeaderCrash: true, RelayCrash: true},
	})
	for i, s := range scheds {
		type w struct{ s, e time.Duration }
		var windows []w
		for _, ev := range s {
			switch ev.Action.Kind {
			case Crash, CrashLeader, CrashRelay:
				windows = append(windows, w{ev.At, ev.At + ev.Action.Duration})
			}
		}
		for _, a := range windows {
			down := 0
			for _, b := range windows {
				if b.s <= a.s && a.s < b.e {
					down++
				}
			}
			if down > maxDown {
				t.Errorf("schedule %d: %d concurrent crashes (max %d)", i, down, maxDown)
			}
		}
	}
}

func TestRollingRestartSequences(t *testing.T) {
	cc := config.NewLAN(4)
	s := RollingRestart(cc.Nodes, 10*time.Millisecond, 20*time.Millisecond, 50*time.Millisecond)
	if len(s) != 4 {
		t.Fatalf("events = %d, want 4", len(s))
	}
	if err := Validate(s, cc, time.Second); err != nil {
		t.Fatalf("rolling restart invalid: %v", err)
	}
	for i, ev := range s {
		want := 10*time.Millisecond + time.Duration(i)*50*time.Millisecond
		if ev.At != want {
			t.Errorf("event %d at %v, want %v", i, ev.At, want)
		}
	}
}
