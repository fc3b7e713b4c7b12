package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/wire"
)

func testWANNet(n int, seed int64) (*des.Sim, *netsim.Network, config.Cluster) {
	sim := des.New(seed)
	cc := config.NewWAN3(n)
	net := netsim.New(sim, cc, netsim.Options{})
	for _, id := range cc.Nodes {
		net.Register(id, sink{}, false)
	}
	return sim, net, cc
}

// A region cut takes down exactly the zone's cross-region links and the heal
// restores them, with both ends logged.
func TestInjectorRegionPartition(t *testing.T) {
	sim, net, cc := testWANNet(9, 1)
	sched := RegionCut(config.ZoneOregon, 10*time.Millisecond, 20*time.Millisecond)
	in := Apply(sim, net, sched, nil)
	or1 := cc.ZoneNodes(config.ZoneOregon)[0]
	va1 := cc.ZoneNodes(config.ZoneVirginia)[0]

	sim.Run(15 * time.Millisecond)
	ep := net.Endpoint(or1)
	before := net.MessagesDropped()
	ep.Send(va1, wire.P1a{Ballot: 1})
	if net.MessagesDropped() != before+1 {
		t.Error("cross-region send should drop during the cut")
	}
	sim.Run(40 * time.Millisecond)
	before = net.MessagesDropped()
	ep.Send(va1, wire.P1a{Ballot: 1})
	if net.MessagesDropped() != before {
		t.Error("send should flow after the heal")
	}
	log := in.Log()
	if len(log) != 2 || log[0].Kind != RegionPartition || log[0].Zone != config.ZoneOregon ||
		log[1].Kind != Heal || log[1].Zone != config.ZoneOregon {
		t.Errorf("fault log = %v", log)
	}
}

// CrashRegion fells every member of the zone and recovers them together.
func TestInjectorCrashRegion(t *testing.T) {
	sim, net, cc := testWANNet(9, 1)
	sched := RegionCrash(config.ZoneCalifornia, 5*time.Millisecond, 10*time.Millisecond)
	in := Apply(sim, net, sched, nil)
	sim.Run(8 * time.Millisecond)
	for _, id := range cc.ZoneNodes(config.ZoneCalifornia) {
		if !net.Crashed(id) {
			t.Errorf("%v should be crashed", id)
		}
	}
	for _, id := range cc.ZoneNodes(config.ZoneVirginia) {
		if net.Crashed(id) {
			t.Errorf("%v should be up", id)
		}
	}
	sim.Run(20 * time.Millisecond)
	for _, id := range cc.ZoneNodes(config.ZoneCalifornia) {
		if net.Crashed(id) {
			t.Errorf("%v should have recovered", id)
		}
	}
	if log := in.Log(); len(log) != 2 || log[0].Kind != CrashRegion || log[1].Kind != Recover {
		t.Errorf("fault log = %v", log)
	}
}

// WANDegrade faults exactly the zone pair and ClearLinks heals it.
func TestInjectorWANDegrade(t *testing.T) {
	sim, net, cc := testWANNet(6, 1)
	f := netsim.LinkFaults{Loss: 0.5}
	sched := DegradeWANPair(config.ZoneVirginia, config.ZoneOregon, f, 5*time.Millisecond, 10*time.Millisecond)
	Apply(sim, net, sched, nil)
	va1 := cc.ZoneNodes(config.ZoneVirginia)[0]
	ca1 := cc.ZoneNodes(config.ZoneCalifornia)[0]
	or1 := cc.ZoneNodes(config.ZoneOregon)[0]
	sim.Run(8 * time.Millisecond)
	if got, ok := net.LinkFaultsBetween(va1, or1); !ok || got != f {
		t.Errorf("VA→OR faults = %+v ok=%v", got, ok)
	}
	if _, ok := net.LinkFaultsBetween(va1, ca1); ok {
		t.Error("VA→CA should be clean")
	}
	sim.Run(20 * time.Millisecond)
	if _, ok := net.LinkFaultsBetween(va1, or1); ok {
		t.Error("degrade should have cleared")
	}
}

// Overlapping windows compose: a link fault that ends early leaves a WAN
// degrade that is scheduled to run on in place (the later-started window
// wins while both run), and a partition that heals early leaves an
// overlapping cut standing.
func TestInjectorOverlappingWindowsCompose(t *testing.T) {
	sim, net, cc := testWANNet(6, 1)
	degrade, flaky := netsim.LinkFaults{Loss: 0.5}, netsim.LinkFaults{Duplicate: 0.5}
	va1 := cc.ZoneNodes(config.ZoneVirginia)[0]
	ca1 := cc.ZoneNodes(config.ZoneCalifornia)[0]
	or1 := cc.ZoneNodes(config.ZoneOregon)[0]
	long, short := cc.Nodes[5:], cc.Nodes[4:]
	Apply(sim, net, Merge(
		DegradeWANPair(config.ZoneVirginia, config.ZoneOregon, degrade, time.Millisecond, 20*time.Millisecond),
		FlakyLinks(flaky, 2*time.Millisecond, 3*time.Millisecond),
		MinorityPartition(long, cc.Nodes[:5], time.Millisecond, 20*time.Millisecond),
		MinorityPartition(short, cc.Nodes[:4], 2*time.Millisecond, 3*time.Millisecond),
	), nil)
	links := func(from, to ids.ID, want netsim.LinkFaults, ok bool) {
		t.Helper()
		if got, gotOK := net.LinkFaultsBetween(from, to); got != want || gotOK != ok {
			t.Errorf("at %v: %v→%v faults = %+v (%v), want %+v (%v)", sim.Now(), from, to, got, gotOK, want, ok)
		}
	}
	// ca1 sits on the majority side of both cuts, on links that never lose
	// messages, so a drop from it can only be a cut.
	reachable := func(to ids.ID, want bool) {
		t.Helper()
		before := net.MessagesDropped()
		net.Endpoint(ca1).Send(to, wire.P1a{Ballot: 1})
		if got := net.MessagesDropped() == before; got != want {
			t.Errorf("at %v: %v→%v reachable = %v, want %v", sim.Now(), ca1, to, got, want)
		}
	}

	sim.Run(3 * time.Millisecond)
	links(va1, or1, flaky, true)
	links(va1, ca1, flaky, true)
	reachable(short[0], false)

	sim.Run(10 * time.Millisecond)
	links(va1, or1, degrade, true)
	links(va1, ca1, netsim.LinkFaults{}, false)
	reachable(long[0], false)
	reachable(short[0], true)

	sim.Run(30 * time.Millisecond)
	links(va1, or1, netsim.LinkFaults{}, false)
	reachable(long[0], true)
}

// placer is a test Placer with scripted answers.
type placer struct {
	StaticResolver
	answers map[int]ids.ID
	asked   []int
}

func (p *placer) CampaignFrom(zone int) ids.ID {
	p.asked = append(p.asked, zone)
	return p.answers[zone]
}

// A placement flip resolves through the Placer extension and logs the
// campaigner; unresolvable zones (nobody live) are skipped silently, and
// resolvers without the extension skip too.
func TestInjectorPlacementFlip(t *testing.T) {
	sim, net, _ := testWANNet(9, 1)
	res := &placer{answers: map[int]ids.ID{2: ids.NewID(2, 1)}}
	sched := Merge(
		PlacementFlip(2, 5*time.Millisecond),
		PlacementFlip(3, 6*time.Millisecond), // resolves to zero: skipped
	)
	in := Apply(sim, net, sched, res)
	sim.RunUntilIdle()
	if len(res.asked) != 2 || res.asked[0] != 2 || res.asked[1] != 3 {
		t.Errorf("asked zones = %v", res.asked)
	}
	log := in.Log()
	if len(log) != 1 || log[0].Kind != LeaderPlacementFlip || log[0].Zone != 2 || log[0].Target != ids.NewID(2, 1) {
		t.Errorf("fault log = %v", log)
	}

	// A plain Resolver without the Placer extension: flips are skipped.
	sim2, net2, _ := testWANNet(9, 1)
	in2 := Apply(sim2, net2, PlacementFlip(2, time.Millisecond), StaticResolver{})
	sim2.RunUntilIdle()
	if len(in2.Log()) != 0 {
		t.Errorf("non-placer resolver should skip flips, log = %v", in2.Log())
	}
}

// Validate accepts a bounded region schedule: minority-region cut that
// heals, a minority-region crash, a degrade, and a flip into a live region.
func TestValidateAcceptsBoundedRegionFaults(t *testing.T) {
	cc := config.NewWAN3(9)
	s := Merge(
		RegionCut(config.ZoneOregon, 100*time.Millisecond, 200*time.Millisecond),
		RegionCrash(config.ZoneCalifornia, 400*time.Millisecond, 100*time.Millisecond),
		DegradeWANPair(config.ZoneVirginia, config.ZoneOregon, netsim.LinkFaults{Loss: 0.05}, 600*time.Millisecond, 100*time.Millisecond),
		PlacementFlip(config.ZoneCalifornia, 800*time.Millisecond),
	)
	if err := Validate(s, cc, time.Second); err != nil {
		t.Fatal(err)
	}
}

// A region partition that never heals by the deadline is rejected — cutting
// away a majority of the regions without heal-by most of all.
func TestValidateRejectsUnhealedMajorityRegionPartition(t *testing.T) {
	cc := config.NewWAN3(9)
	// Two of the three regions partitioned away, neither healing: no side
	// retains a majority and the schedule must not validate.
	s := Merge(
		Schedule{{At: 100 * time.Millisecond, Action: Action{Kind: RegionPartition, Zone: config.ZoneCalifornia}}},
		Schedule{{At: 120 * time.Millisecond, Action: Action{Kind: RegionPartition, Zone: config.ZoneOregon}}},
	)
	if err := Validate(s, cc, time.Second); err == nil {
		t.Fatal("unhealed majority-of-regions partition must be rejected")
	} else if !strings.Contains(err.Error(), "never heals") {
		t.Errorf("unexpected error: %v", err)
	}
	// The same cuts with heal-by windows validate one after the other; while
	// they overlap, each region is on its own and none holds a majority.
	s = Merge(
		RegionCut(config.ZoneCalifornia, 100*time.Millisecond, 150*time.Millisecond),
		RegionCut(config.ZoneOregon, 300*time.Millisecond, 150*time.Millisecond),
	)
	if err := Validate(s, cc, time.Second); err != nil {
		t.Fatal(err)
	}
	s = Merge(
		RegionCut(config.ZoneCalifornia, 100*time.Millisecond, 150*time.Millisecond),
		RegionCut(config.ZoneOregon, 120*time.Millisecond, 150*time.Millisecond),
	)
	if err := Validate(s, cc, time.Second); err == nil {
		t.Fatal("overlapping cuts of two of three regions must be rejected")
	}
}

// Crashing a region whose loss leaves no majority is rejected through the
// node-level crash-concurrency bound.
func TestValidateRejectsMajorityRegionCrash(t *testing.T) {
	// 5 nodes over 3 zones: zone 1 holds 2 of 5 — fine. But crash zones 1
	// and 2 together (2+2 = 4 down of 5) and no majority survives.
	cc := config.NewWAN3(5)
	s := Merge(
		RegionCrash(1, 100*time.Millisecond, 200*time.Millisecond),
		RegionCrash(2, 150*time.Millisecond, 200*time.Millisecond),
	)
	if err := Validate(s, cc, time.Second); err == nil {
		t.Fatal("overlapping region crashes exceeding f must be rejected")
	}
}

// A placement flip aimed at a region that is entirely crashed at fire time
// is rejected: there is nobody there to campaign.
func TestValidateRejectsFlipIntoCrashedRegion(t *testing.T) {
	cc := config.NewWAN3(9)
	s := Merge(
		RegionCrash(config.ZoneOregon, 100*time.Millisecond, 300*time.Millisecond),
		PlacementFlip(config.ZoneOregon, 200*time.Millisecond),
	)
	if err := Validate(s, cc, time.Second); err == nil {
		t.Fatal("flip into a fully-crashed region must be rejected")
	} else if !strings.Contains(err.Error(), "placement-flip") {
		t.Errorf("unexpected error: %v", err)
	}
	// The same flip after the region recovers is fine.
	s = Merge(
		RegionCrash(config.ZoneOregon, 100*time.Millisecond, 300*time.Millisecond),
		PlacementFlip(config.ZoneOregon, 500*time.Millisecond),
	)
	if err := Validate(s, cc, time.Second); err != nil {
		t.Fatal(err)
	}
}

// Region actions naming empty zones are rejected.
func TestValidateRejectsEmptyZones(t *testing.T) {
	cc := config.NewWAN3(9)
	for _, s := range []Schedule{
		RegionCut(7, 100*time.Millisecond, 100*time.Millisecond),
		RegionCrash(7, 100*time.Millisecond, 100*time.Millisecond),
		PlacementFlip(7, 100*time.Millisecond),
		DegradeWANPair(1, 7, netsim.LinkFaults{Loss: 0.1}, 100*time.Millisecond, 100*time.Millisecond),
	} {
		if err := Validate(s, cc, time.Second); err == nil {
			t.Errorf("schedule %v should be rejected", s)
		}
	}
}

// Node-level faults on a WAN cluster are checked like on a LAN one.
func TestValidateNodeFaultsOnWANCluster(t *testing.T) {
	cc := config.NewWAN3(9)
	good := NodeCrash(cc.Nodes[1], 100*time.Millisecond, 100*time.Millisecond)
	if err := Validate(good, cc, time.Second); err != nil {
		t.Fatal(err)
	}
	bad := Schedule{{At: 100 * time.Millisecond, Action: Action{Kind: Crash, Node: cc.Nodes[1]}}}
	if Validate(bad, cc, time.Second) == nil {
		t.Fatal("never-recovering crash must be rejected")
	}
}

// The WAN palette explorer only emits schedules that pass Validate,
// across many seeds, and is deterministic per seed.
func TestExplorerWANPaletteRespectsRegionBounds(t *testing.T) {
	cc := config.NewWAN3(9)
	regionFaults := 0
	for seed := int64(1); seed <= 40; seed++ {
		opts := ExplorerOpts{
			Seed:      seed,
			Scenarios: 4,
			Nodes:     cc.Nodes,
			Cluster:   cc,
			Allow:     WANPalette(),
			Horizon:   2 * time.Second,
		}
		scheds := Explore(opts)
		again := Explore(opts)
		if len(scheds) != 4 {
			t.Fatalf("seed %d: %d schedules", seed, len(scheds))
		}
		for i, s := range scheds {
			if err := Validate(s, cc, 2*time.Second); err != nil {
				t.Errorf("seed %d schedule %d: %v\n%v", seed, i, err, s)
			}
			for _, ev := range s {
				switch ev.Action.Kind {
				case RegionPartition, WANDegrade, CrashRegion, LeaderPlacementFlip:
					regionFaults++
				case Crash, CrashRelay, PartitionCut:
					t.Errorf("seed %d: %v outside the WAN palette", seed, ev.Action.Kind)
				}
			}
			if !reflect.DeepEqual(s, again[i]) {
				t.Fatalf("seed %d schedule %d not deterministic", seed, i)
			}
		}
	}
	// Four of eight WAN families are region-level, so across 160 schedules
	// the region draws must show up in force.
	if regionFaults < 40 {
		t.Errorf("only %d region faults across all seeds", regionFaults)
	}
}
