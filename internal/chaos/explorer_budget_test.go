package chaos

import (
	"slices"
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/quorum"
)

// unavailableSpan is one interval during which k nodes are effectively
// gone — crashed, restarting, or cut away by a partition.
type unavailableSpan struct {
	start, end time.Duration
	k          int
}

// unavailableSpans extracts every availability-reducing window from a
// schedule. A partitioned-away minority counts like a crash: the
// connected majority side cannot reach it.
func unavailableSpans(t *testing.T, s Schedule, cc config.Cluster) []unavailableSpan {
	t.Helper()
	var spans []unavailableSpan
	for _, ev := range s {
		a := ev.Action
		switch a.Kind {
		case Crash, CrashLeader, CrashRelay, Restart, RestartLeader, TornTail:
			spans = append(spans, unavailableSpan{ev.At, ev.At + a.Duration, 1})
		case PartitionCut:
			k := len(a.SideA)
			if len(a.SideB) < k {
				k = len(a.SideB)
			}
			spans = append(spans, unavailableSpan{ev.At, ev.At + a.Duration, k})
		case RegionPartition, CrashRegion:
			spans = append(spans, unavailableSpan{ev.At, ev.At + a.Duration, len(cc.ZoneNodes(a.Zone))})
		}
	}
	return spans
}

// assertLiveMajority checks that at every instant the connected live nodes
// still form a majority of n: summed unavailability never exceeds
// MaxSafeCrashes. Checking at each span start suffices — the overlap count
// only increases at starts.
func assertLiveMajority(t *testing.T, s Schedule, n int, cc config.Cluster) {
	t.Helper()
	spans := unavailableSpans(t, s, cc)
	for _, at := range spans {
		down := 0
		for _, w := range spans {
			if w.start <= at.start && at.start < w.end {
				down += w.k
			}
		}
		if n-down < quorum.MajoritySize(n) {
			t.Fatalf("at %v: %d of %d nodes unavailable, majority %d unformable\nschedule: %+v",
				at.start, down, n, quorum.MajoritySize(n), s)
		}
	}
}

// TestExplorerPartitionsShareCrashBudget is the regression test for the
// PartitionCut budget bug: the generator used to admit a minority cut
// without charging it against the shared crash budget, so a partition
// overlapping a crash window could leave the connected survivors unable
// to form a majority. Sweep seeds with a palette of only the two
// families, maximizing the chance they overlap.
func TestExplorerPartitionsShareCrashBudget(t *testing.T) {
	cc := config.NewLAN(5)
	for seed := int64(0); seed < 300; seed++ {
		scheds := Explore(ExplorerOpts{
			Seed:       seed,
			Scenarios:  4,
			Nodes:      cc.Nodes,
			MaxActions: 6,
			Allow:      Palette{Crashes: true, LeaderCrash: true, Partitions: true},
		})
		for _, s := range scheds {
			assertLiveMajority(t, s, cc.N(), cc)
		}
	}
}

// TestExplorerFullPaletteLiveMajority sweeps the full LAN palette and the
// WAN region palette: every generated schedule keeps a connected live
// majority at all times.
func TestExplorerFullPaletteLiveMajority(t *testing.T) {
	lan := config.NewLAN(7)
	wan := config.NewWAN3(9)
	for seed := int64(0); seed < 100; seed++ {
		for _, s := range Explore(ExplorerOpts{
			Seed: seed, Scenarios: 4, Nodes: lan.Nodes, MaxActions: 5,
		}) {
			assertLiveMajority(t, s, lan.N(), lan)
		}
		for _, s := range Explore(ExplorerOpts{
			Seed: seed, Scenarios: 4, Nodes: wan.Nodes, Cluster: wan,
			MaxActions: 5, Allow: WANPalette(),
		}) {
			assertLiveMajority(t, s, wan.N(), wan)
		}
	}
}

// TestChildSeedsDoNotCollide is the regression test for the old
// `Seed<<16 + i` derivation, under which seed 1/scenario 0 drew exactly
// the schedule of seed 0/scenario 65536 and high seed bits vanished.
func TestChildSeedsDoNotCollide(t *testing.T) {
	if childSeed(1, 0) == childSeed(0, 65536) {
		t.Fatal("the historical collision pair still collides")
	}
	// High bits must matter now.
	if childSeed(1<<48, 0) == childSeed(0, 0) {
		t.Fatal("high seed bits are still truncated")
	}
	seen := make(map[int64][2]int64, 64*64)
	for seed := int64(0); seed < 64; seed++ {
		for i := 0; i < 64; i++ {
			cs := childSeed(seed, i)
			if prev, dup := seen[cs]; dup {
				t.Fatalf("childSeed(%d,%d) == childSeed(%d,%d) == %d", seed, i, prev[0], prev[1], cs)
			}
			seen[cs] = [2]int64{seed, int64(i)}
		}
	}
}

// TestExplorerStillDeterministicAfterReseed pins the new derivation's
// purity: same (Seed, i) → same schedule, generated independently of how
// many schedules are asked for.
func TestExplorerStillDeterministicAfterReseed(t *testing.T) {
	cc := config.NewLAN(5)
	opts := ExplorerOpts{Seed: 42, Scenarios: 6, Nodes: cc.Nodes}
	a := Explore(opts)
	opts.Scenarios = 3
	b := Explore(opts)
	for i := range b {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("schedule %d depends on Scenarios count", i)
		}
		for j := range b[i] {
			if a[i][j].At != b[i][j].At || a[i][j].Action.Kind != b[i][j].Action.Kind {
				t.Fatalf("schedule %d differs at event %d", i, j)
			}
		}
	}
}

// liveConnected is the availability rule worked out the long way from the
// raw schedule, for the property test below: how many of cc's nodes are up
// at t and pairwise uncut, in the largest such set, less one for every
// victim resolved only at fire time. Every fault must carry a Duration.
func liveConnected(t *testing.T, s Schedule, cc config.Cluster, at time.Duration) int {
	t.Helper()
	down := map[ids.ID]bool{}
	var cuts [][2][]ids.ID
	unknown := 0
	for _, ev := range s {
		a := ev.Action
		if a.Kind == LeaderPlacementFlip {
			continue
		}
		if a.Duration <= 0 {
			t.Fatalf("%v at %v has no Duration", a.Kind, ev.At)
		}
		if at < ev.At || at >= ev.At+a.Duration {
			continue
		}
		switch a.Kind {
		case Crash, Restart, TornTail:
			down[a.Node] = true
		case CrashLeader, CrashRelay, CrashShardLeader, RestartLeader:
			unknown++
		case CrashRegion:
			for _, v := range cc.ZoneNodes(a.Zone) {
				down[v] = true
			}
		case PartitionCut:
			cuts = append(cuts, [2][]ids.ID{a.SideA, a.SideB})
		case RegionPartition:
			in, out := cc.RegionSides(a.Zone)
			cuts = append(cuts, [2][]ids.ID{in, out})
		}
	}
	reach := func(a, b ids.ID) bool {
		for _, c := range cuts {
			if slices.Contains(c[0], a) && slices.Contains(c[1], b) || slices.Contains(c[0], b) && slices.Contains(c[1], a) {
				return false
			}
		}
		return true
	}
	// Union-find over the live nodes.
	root := map[ids.ID]ids.ID{}
	var find func(ids.ID) ids.ID
	find = func(v ids.ID) ids.ID {
		if root[v] == v {
			return v
		}
		root[v] = find(root[v])
		return root[v]
	}
	for _, v := range cc.Nodes {
		if !down[v] {
			root[v] = v
		}
	}
	for a := range root {
		for b := range root {
			if a != b && reach(a, b) {
				root[find(a)] = find(b)
			}
		}
	}
	size := map[ids.ID]int{}
	largest := 0
	for v := range root {
		size[find(v)]++
		largest = max(largest, size[find(v)])
	}
	return largest - unknown
}

// assertAvailable checks liveConnected against a majority at every fault
// start, where the live connected set is smallest.
func assertAvailable(t *testing.T, s Schedule, cc config.Cluster) {
	t.Helper()
	for _, ev := range s {
		if got, need := liveConnected(t, s, cc, ev.At), quorum.MajoritySize(cc.N()); got < need {
			t.Fatalf("at %v only %d of %d nodes live and connected, need %d\nschedule: %+v", ev.At, got, cc.N(), need, s)
		}
	}
}

// TestExploreAndShrinkKeepAvailability is the property both producers of
// schedules owe the scenario runner: every Explore output, and every
// candidate Shrink runs on the way down from one, keeps a connected live
// majority at all times.
func TestExploreAndShrinkKeepAvailability(t *testing.T) {
	lan, wan := config.NewLAN(5), config.NewWAN3(9)
	for _, c := range []struct {
		cc    config.Cluster
		allow Palette
	}{
		{lan, FullPalette()},
		{lan, DurablePalette()},
		{wan, WANPalette()},
	} {
		for seed := int64(0); seed < 40; seed++ {
			opts := ExplorerOpts{Seed: seed, Scenarios: 3, Nodes: c.cc.Nodes, Cluster: c.cc, MaxActions: 5, Allow: c.allow}
			for _, s := range Explore(opts) {
				assertAvailable(t, s, c.cc)
				if seed%8 != 0 || len(s) == 0 {
					continue
				}
				Shrink(s, func(cand Schedule) bool {
					assertAvailable(t, cand, c.cc)
					return true // keep shrinking: every candidate "fails"
				}, ShrinkOptions{Cluster: c.cc, HealBy: 2200 * time.Millisecond, MaxRuns: 60})
			}
		}
	}
}
