// Explorer: seeded random generation of fault schedules within safety
// bounds. The explorer only *generates* schedules — running them is the
// scenario harness's job — so the same seed always yields the same scenario
// set regardless of what is run under it.
package chaos

import (
	"math/rand"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/quorum"
	"pigpaxos/internal/shard"
)

// Palette selects which fault families the explorer may draw. Every
// protocol in the repository now carries full recovery machinery (the Paxos
// family's retransmits and elections, EPaxos' Explicit Prepare recovery,
// retransmit sweep, and at-most-once sessions), so all of them take
// crashes, partitions, loss and duplication; palettes still differ where a
// fault family has no meaning for a protocol (relay crashes exist only in
// PigPaxos, placement flips only where there is a leader to move).
type Palette struct {
	Crashes     bool // follower crash/recover windows
	LeaderCrash bool // dynamic current-leader crashes
	RelayCrash  bool // dynamic current-relay crashes (PigPaxos)
	Partitions  bool // minority partitions
	LinkLoss    bool // probabilistic per-link loss
	LinkDup     bool // probabilistic duplication
	LinkReorder bool // probabilistic reordering
	Sluggish    bool // CPU slowdown windows

	// Region families (require ExplorerOpts.Cluster with ≥ 2 zones).
	RegionPartition bool // minority-region WAN cut-offs
	WANDegrade      bool // loss/dup/reorder on one zone-pair path
	CrashRegion     bool // whole minority regions crash and recover
	PlacementFlip   bool // forced campaigns from a target region

	// Disk families (require a durable deployment: the harness resolver must
	// implement Rebooter / DiskFaulter, or the actions skip).
	Restart       bool // follower crash + reboot-from-disk windows
	LeaderRestart bool // dynamic current-leader restarts
	TornTail      bool // restarts with a torn journal tail
	DiskSlow      bool // degraded-fsync windows
}

// FullPalette allows every LAN fault family (region families need a WAN
// cluster and stay opt-in via WANPalette).
func FullPalette() Palette {
	return Palette{
		Crashes: true, LeaderCrash: true, RelayCrash: true, Partitions: true,
		LinkLoss: true, LinkDup: true, LinkReorder: true, Sluggish: true,
	}
}

// WANPalette allows the region fault families of the multi-region
// deployments (Figure 9) plus the link faults WAN paths exhibit anyway. The
// generators respect region quorum math: only regions whose loss keeps a
// node majority connected are cut or crashed.
func WANPalette() Palette {
	return Palette{
		RegionPartition: true, WANDegrade: true, CrashRegion: true,
		PlacementFlip: true, LeaderCrash: true,
		LinkLoss: true, LinkReorder: true, Sluggish: true,
	}
}

// DurablePalette mixes the disk fault families with the LAN faults a
// durable deployment must ride out anyway. FullPalette is deliberately left
// unchanged — adding families there would shift the draw sequence of every
// existing explorer seed.
func DurablePalette() Palette {
	return Palette{
		Crashes: true, LeaderCrash: true, Partitions: true,
		LinkLoss: true, LinkReorder: true, Sluggish: true,
		Restart: true, LeaderRestart: true, TornTail: true, DiskSlow: true,
	}
}

// EPaxosPalette is the full LAN palette minus relay crashes (EPaxos has no
// relays): command-leader crashes land on Explicit Prepare recovery, link
// loss on the retransmit sweep, duplication on the session table.
func EPaxosPalette() Palette {
	p := FullPalette()
	p.RelayCrash = false
	return p
}

// ExplorerOpts bound the schedule generator.
type ExplorerOpts struct {
	// Seed drives all generation randomness; schedule i is a pure function
	// of (Seed, i, bounds).
	Seed int64
	// Scenarios is how many schedules to generate (default 4).
	Scenarios int
	// Nodes is the cluster membership; Nodes[0] is the initial leader (it
	// is spared from static follower crashes so leader faults stay the
	// explicit LeaderCrash action's job).
	Nodes []ids.ID
	// Groups is the relay-group count RelayCrash actions may target
	// (default 3; ignored unless the palette allows relay crashes).
	Groups int
	// Start is the earliest fault time — leave warmup untouched (default
	// 200ms).
	Start time.Duration
	// Horizon is the deadline by which every fault must have healed
	// (default Start + 2s).
	Horizon time.Duration
	// MaxActions caps faults per schedule (default 3).
	MaxActions int
	// Allow is the fault palette (zero value → FullPalette).
	Allow Palette
	// Cluster supplies the zone topology the region fault families draw
	// from, and the shard count the availability rule checks each shard
	// under. Region generators are skipped when it is empty or single-zone.
	Cluster config.Cluster
}

func (o *ExplorerOpts) applyDefaults() {
	if o.Scenarios == 0 {
		o.Scenarios = 4
	}
	if o.Groups == 0 {
		o.Groups = 3
	}
	if o.Start == 0 {
		o.Start = 200 * time.Millisecond
	}
	if o.Horizon <= o.Start {
		o.Horizon = o.Start + 2*time.Second
	}
	if o.MaxActions == 0 {
		o.MaxActions = 3
	}
	if o.Allow == (Palette{}) {
		o.Allow = FullPalette()
	}
}

// childSeed derives schedule i's RNG seed from the base seed via the
// splitmix64 stream (golden-gamma increment, then the shard router's
// Mix64 finalizer). The old `Seed<<16 + i` derivation collided across
// base seeds — seed 1/scenario 0 drew exactly seed 0/scenario 65536's
// schedule — and silently truncated the top 16 bits of large seeds.
func childSeed(seed int64, i int) int64 {
	return int64(shard.Mix64(uint64(seed) + (uint64(i)+1)*0x9e3779b97f4a7c15))
}

// Explore generates opts.Scenarios random schedules within the bounds.
// Every returned schedule passes Validate(s, Cluster, Horizon), where
// Cluster holds Nodes.
// Schedule i is a pure function of (Seed, i, bounds): generation draws
// from a per-schedule child RNG, so schedules can be generated — and the
// runs under them fanned out — in any order without changing the corpus.
func Explore(opts ExplorerOpts) []Schedule {
	opts.applyDefaults()
	out := make([]Schedule, 0, opts.Scenarios)
	for i := 0; i < opts.Scenarios; i++ {
		out = append(out, explore1(opts, rand.New(rand.NewSource(childSeed(opts.Seed, i)))))
	}
	return out
}

// explore1 draws one schedule, rejecting every draw that would leave the
// cluster unavailable.
func explore1(opts ExplorerOpts, rng *rand.Rand) Schedule {
	var losses []loss // the fault windows drawn so far
	cc := opts.Cluster
	if cc.N() == 0 {
		cc = config.Cluster{Nodes: opts.Nodes}
	}
	span := opts.Horizon - opts.Start
	// randWindow draws a fault window that heals before the horizon. Both
	// bounds are clamped into the [Start, Horizon] budget so the draw
	// stays well-formed (and the fault healable) on arbitrarily tight
	// horizons.
	randWindow := func(minDur, maxDur time.Duration) (at, dur time.Duration) {
		if maxDur > span/2 {
			maxDur = span / 2
		}
		if maxDur < minDur {
			maxDur = minDur
		}
		if maxDur > span {
			maxDur = span
		}
		if minDur > maxDur {
			minDur = maxDur
		}
		dur = minDur + time.Duration(rng.Int63n(int64(maxDur-minDur)+1))
		latest := opts.Horizon - dur // ≥ Start because dur ≤ span
		at = opts.Start + time.Duration(rng.Int63n(int64(latest-opts.Start)+1))
		return at, dur
	}
	// charge commits a candidate window that takes k nodes if the windows
	// drawn so far plus it keep the cluster available — the rule Validate
	// applies. The explorer charges every
	// window as k victims not named in advance, which is the rule's worst
	// case (no two windows ever share a victim): crashed and partitioned-away
	// nodes add up, and a target drawn after the charge cannot break it.
	charge := func(at, dur time.Duration, k int) bool {
		l := loss{window: window{at, at + dur}, unknown: k}
		if available(append(losses, l), cc) != nil {
			return false
		}
		losses = append(losses, l)
		return true
	}

	// Candidate action kinds under the palette, in a fixed order so the
	// draw sequence is stable.
	type gen func() (Event, bool)
	var gens []gen
	al := opts.Allow
	followers := opts.Nodes
	if len(followers) > 1 {
		followers = followers[1:]
	}
	// outage is the generator of a one-node outage of kind k: it draws a
	// window in [minDur, maxDur], charges one node to the cluster, and only
	// then lets fill draw the target (victim or group).
	outage := func(k Kind, minDur, maxDur time.Duration, fill func(*Action)) gen {
		return func() (Event, bool) {
			at, dur := randWindow(minDur, maxDur)
			if !charge(at, dur, 1) {
				return Event{}, false
			}
			a := Action{Kind: k, Duration: dur}
			fill(&a)
			return Event{At: at, Action: a}, true
		}
	}
	follower := func(a *Action) { a.Node = followers[rng.Intn(len(followers))] }
	leader := func(*Action) {} // the injector resolves the leader at fire time
	if al.Crashes && len(followers) > 0 {
		gens = append(gens, outage(Crash, 50*time.Millisecond, 500*time.Millisecond, follower))
	}
	if al.LeaderCrash {
		gens = append(gens, outage(CrashLeader, 100*time.Millisecond, 600*time.Millisecond, leader))
	}
	if al.RelayCrash && opts.Groups > 0 {
		gens = append(gens, outage(CrashRelay, 50*time.Millisecond, 400*time.Millisecond, func(a *Action) {
			a.Group = rng.Intn(opts.Groups)
		}))
	}
	if al.Partitions && len(opts.Nodes) >= 3 {
		gens = append(gens, func() (Event, bool) {
			at, dur := randWindow(50*time.Millisecond, 400*time.Millisecond)
			k := 1 + rng.Intn((len(opts.Nodes)-1)/2) // strict minority
			if !charge(at, dur, k) {
				return Event{}, false
			}
			cut := append([]ids.ID(nil), opts.Nodes[len(opts.Nodes)-k:]...)
			rest := append([]ids.ID(nil), opts.Nodes[:len(opts.Nodes)-k]...)
			return Event{At: at, Action: Action{
				Kind: PartitionCut, SideA: cut, SideB: rest, Duration: dur,
			}}, true
		})
	}
	if al.LinkLoss || al.LinkDup || al.LinkReorder {
		gens = append(gens, func() (Event, bool) {
			at, dur := randWindow(100*time.Millisecond, 800*time.Millisecond)
			var f netsim.LinkFaults
			if al.LinkLoss {
				f.Loss = 0.01 + rng.Float64()*0.04
			}
			if al.LinkDup {
				f.Duplicate = 0.01 + rng.Float64()*0.05
			}
			if al.LinkReorder {
				f.Reorder = 0.05 + rng.Float64()*0.15
				f.ReorderWindow = time.Duration(1+rng.Intn(3)) * time.Millisecond
			}
			return Event{At: at, Action: Action{Kind: LinkFault, Faults: f, Duration: dur}}, true
		})
	}
	if al.Sluggish && len(followers) > 0 {
		gens = append(gens, func() (Event, bool) {
			at, dur := randWindow(100*time.Millisecond, 800*time.Millisecond)
			return Event{At: at, Action: Action{
				Kind:     Sluggish,
				Node:     followers[rng.Intn(len(followers))],
				Factor:   2 + 6*rng.Float64(),
				Duration: dur,
			}}, true
		})
	}
	// Region families: need a multi-zone cluster. Only regions whose loss
	// keeps a node majority connected may be cut or crashed (region quorum
	// math: the survivors must still form a majority of N).
	zones := opts.Cluster.ZoneList()
	if len(zones) >= 2 {
		n := opts.Cluster.N()
		var minority []int
		for _, z := range zones {
			if n-len(opts.Cluster.ZoneNodes(z)) >= quorum.MajoritySize(n) {
				minority = append(minority, z)
			}
		}
		regionDown := map[int][]window{}   // drawn CrashRegion windows, by zone
		flips := map[int][]time.Duration{} // drawn LeaderPlacementFlip times, by zone
		if al.RegionPartition && len(minority) > 0 {
			gens = append(gens, func() (Event, bool) {
				at, dur := randWindow(100*time.Millisecond, 600*time.Millisecond)
				z := minority[rng.Intn(len(minority))]
				if !charge(at, dur, len(opts.Cluster.ZoneNodes(z))) {
					return Event{}, false
				}
				return Event{At: at, Action: Action{
					Kind: RegionPartition, Zone: z, Duration: dur,
				}}, true
			})
		}
		if al.WANDegrade {
			gens = append(gens, func() (Event, bool) {
				at, dur := randWindow(100*time.Millisecond, 800*time.Millisecond)
				i := rng.Intn(len(zones))
				j := rng.Intn(len(zones) - 1)
				if j >= i {
					j++
				}
				var f netsim.LinkFaults
				f.Loss = 0.01 + rng.Float64()*0.04
				f.Reorder = 0.05 + rng.Float64()*0.15
				f.ReorderWindow = time.Duration(1+rng.Intn(4)) * time.Millisecond
				return Event{At: at, Action: Action{
					Kind: WANDegrade, Zone: zones[i], ZoneB: zones[j], Faults: f, Duration: dur,
				}}, true
			})
		}
		if al.CrashRegion && len(minority) > 0 {
			gens = append(gens, func() (Event, bool) {
				at, dur := randWindow(100*time.Millisecond, 500*time.Millisecond)
				z := minority[rng.Intn(len(minority))]
				for _, t := range flips[z] {
					if (window{at, at + dur}).covers(t) {
						return Event{}, false // would strand an already-drawn flip
					}
				}
				if !charge(at, dur, len(opts.Cluster.ZoneNodes(z))) {
					return Event{}, false
				}
				regionDown[z] = append(regionDown[z], window{at, at + dur})
				return Event{At: at, Action: Action{Kind: CrashRegion, Zone: z, Duration: dur}}, true
			})
		}
		if al.PlacementFlip {
			gens = append(gens, func() (Event, bool) {
				at := opts.Start + time.Duration(rng.Int63n(int64(span)+1))
				z := zones[rng.Intn(len(zones))]
				for _, w := range regionDown[z] {
					if w.covers(at) {
						return Event{}, false // nobody there to campaign
					}
				}
				flips[z] = append(flips[z], at)
				return Event{At: at, Action: Action{Kind: LeaderPlacementFlip, Zone: z}}, true
			})
		}
	}
	// Disk families come after every older generator so palettes that do not
	// enable them keep their exact historical draw sequences.
	if al.Restart && len(followers) > 0 {
		gens = append(gens, outage(Restart, 100*time.Millisecond, 500*time.Millisecond, follower))
	}
	if al.LeaderRestart {
		gens = append(gens, outage(RestartLeader, 150*time.Millisecond, 600*time.Millisecond, leader))
	}
	if al.TornTail && len(followers) > 0 {
		gens = append(gens, outage(TornTail, 100*time.Millisecond, 500*time.Millisecond, follower))
	}
	if al.DiskSlow && len(opts.Nodes) > 0 {
		gens = append(gens, func() (Event, bool) {
			at, dur := randWindow(100*time.Millisecond, 800*time.Millisecond)
			// Any node, the leader included: a slow leader disk throttles
			// every commit, which is exactly the scenario worth exploring.
			victim := opts.Nodes[rng.Intn(len(opts.Nodes))]
			lat := time.Duration(500+rng.Intn(4500)) * time.Microsecond
			return Event{At: at, Action: Action{
				Kind: DiskSlow, Node: victim, SyncLatency: lat, Duration: dur,
			}}, true
		})
	}
	var s Schedule
	if len(gens) == 0 {
		return s
	}
	n := 1 + rng.Intn(opts.MaxActions)
	// Draws rejected by the crash-concurrency bound are retried a bounded
	// number of times; under tight bounds the schedule just comes out short.
	for attempts := 0; len(s) < n && attempts < 4*opts.MaxActions; attempts++ {
		if ev, ok := gens[rng.Intn(len(gens))](); ok {
			s = append(s, ev)
		}
	}
	s.Sort()
	return s
}
