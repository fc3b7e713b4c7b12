// Package chaos turns the simulator's raw fault primitives (netsim crashes,
// partitions, per-link loss/duplication/reorder) into declarative,
// deterministic fault schedules. A Schedule is a list of timed actions; Apply
// arms them on the DES clock, resolving dynamic targets ("the current
// leader", "the relay currently carrying group g") at fire time through a
// Resolver. Everything — action times, probabilistic link faults, explorer
// randomness — derives from seeded RNGs, so a scenario is a pure function of
// (protocol, cluster, seed, schedule): equal inputs give bit-identical runs.
// One Validate(s, cluster, healBy) checks every schedule — node-level and
// region-level alike — against the bounds the explorer draws within and the
// shrinker keeps its candidates inside.
//
// The package exercises the paper's fault-tolerance machinery end-to-end:
// relay rotation after relay failure, leader re-fan-out with fresh relays
// (Figure 5b), leader failover, and partial-response thresholds under
// sluggish nodes (§3.4) stop being one-off test setups and become scripted,
// checked scenarios.
package chaos

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/quorum"
	"pigpaxos/internal/shard"
)

// Kind enumerates fault action types.
type Kind int

// Action kinds.
const (
	// Crash takes Node down at At; Duration > 0 schedules its recovery.
	Crash Kind = iota
	// Recover brings Node back (pre-crash state retained, as in the paper's
	// crash-recovery model).
	Recover
	// CrashLeader crashes whichever node the Resolver reports as shard 0's
	// leader at fire time; Duration > 0 schedules the victim's recovery.
	CrashLeader
	// CrashRelay crashes the node currently carrying relay group Group
	// (Resolver-resolved); Duration > 0 schedules its recovery.
	CrashRelay
	// PartitionCut cuts SideA from SideB; Duration > 0 heals the cut
	// afterwards, leaving overlapping cuts that run on in place.
	PartitionCut
	// Heal removes every partition cut.
	Heal
	// LinkFault installs Faults on the directed link From→To, or on every
	// link when both are zero; Duration > 0 clears them afterwards, leaving
	// overlapping link faults that run on in place (where two overlap on a
	// link, the later-started one holds it).
	LinkFault
	// ClearLinks removes every per-link fault.
	ClearLinks
	// Sluggish multiplies Node's CPU costs by Factor (§3.4's slow node);
	// Duration > 0 restores factor 1.
	Sluggish
	// RegionPartition cuts zone Zone — every endpoint homed there, clients
	// included — off the rest of the world (netsim.PartitionZone); Duration
	// > 0 heals it afterwards, as PartitionCut does.
	RegionPartition
	// WANDegrade installs Faults on every link between zones Zone and
	// ZoneB, both directions (loss/duplication/reorder on one WAN path);
	// Duration > 0 clears them afterwards, as LinkFault does.
	WANDegrade
	// CrashRegion crashes every cluster member in zone Zone; Duration > 0
	// schedules all their recoveries.
	CrashRegion
	// LeaderPlacementFlip forces a live node in zone Zone to campaign for
	// leadership (Resolver-resolved via the Placer extension), moving the
	// leader into a target region the way operators re-place leaders for
	// locality. Not a fault: nothing needs healing.
	LeaderPlacementFlip
	// CrashShardLeader crashes whichever node currently leads consensus
	// group Shard (Resolver-resolved at fire time); Duration > 0 schedules
	// the victim's recovery. The sharded scenario
	// harness asserts the blast radius stays inside the shards the victim
	// replicates.
	CrashShardLeader
	// ShardPlacementFlip forces a live member of consensus group Shard in
	// zone Zone to campaign for that shard's leadership (resolved via the
	// ShardPlacer extension) — the per-shard migration primitive. Not a
	// fault: nothing needs healing.
	ShardPlacementFlip
	// Restart crashes Node and, Duration later, reboots it as a FRESH
	// process recovering from its persisted WAL + snapshot alone (via the
	// Rebooter extension) — unlike Recover, which hands back the pre-crash
	// memory image. Duration must be positive. Skipped deterministically
	// when the resolver is not a Rebooter (volatile deployments).
	Restart
	// RestartLeader is Restart aimed at whichever node the Resolver reports
	// as leader at fire time.
	RestartLeader
	// TornTail is Restart with disk damage: before the reboot, a suffix of
	// the journal's synced tail is truncated mid-frame (the crash tore the
	// last write). Recovery must drop the torn frame and rejoin.
	TornTail
	// Reboot is the log marker for a completed Restart (never scheduled
	// directly).
	Reboot
	// DiskSlow raises Node's fsync latency to SyncLatency (a degraded or
	// contended disk); Duration > 0 restores the baseline afterwards.
	// Resolved through the DiskFaulter extension.
	DiskSlow
	// DiskRestore returns Node's fsync latency to the scenario baseline.
	DiskRestore
)

// kindNames is every Kind's name, the one table String and parseKind read.
var kindNames = [...]string{
	Crash:               "crash",
	Recover:             "recover",
	CrashLeader:         "crash-leader",
	CrashRelay:          "crash-relay",
	PartitionCut:        "partition",
	Heal:                "heal",
	LinkFault:           "link-fault",
	ClearLinks:          "clear-links",
	Sluggish:            "sluggish",
	RegionPartition:     "region-partition",
	WANDegrade:          "wan-degrade",
	CrashRegion:         "crash-region",
	LeaderPlacementFlip: "placement-flip",
	CrashShardLeader:    "crash-shard-leader",
	ShardPlacementFlip:  "shard-placement-flip",
	Restart:             "restart",
	RestartLeader:       "restart-leader",
	TornTail:            "torn-tail",
	Reboot:              "reboot",
	DiskSlow:            "disk-slow",
	DiskRestore:         "disk-restore",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Action is one fault to inject. Only the fields relevant to Kind are used.
type Action struct {
	Kind Kind
	// Node targets Crash/Recover/Sluggish.
	Node ids.ID
	// Group targets CrashRelay.
	Group int
	// SideA and SideB are the partition sides.
	SideA, SideB []ids.ID
	// From and To select the faulted link (both zero = all links).
	From, To ids.ID
	// Faults is the LinkFault configuration (LinkFault and WANDegrade).
	Faults netsim.LinkFaults
	// Factor is the Sluggish CPU multiplier.
	Factor float64
	// Zone targets RegionPartition/CrashRegion/LeaderPlacementFlip; with
	// ZoneB it names WANDegrade's zone pair. ShardPlacementFlip pairs it
	// with Shard.
	Zone, ZoneB int
	// Shard targets CrashShardLeader/ShardPlacementFlip: the consensus
	// group whose leadership the action manipulates. Distinct kinds keep
	// shard 0 (a valid index) unambiguous from the zero value here.
	Shard int
	// Torn makes a Restart truncate the journal's synced tail mid-frame
	// before rebooting (TornTail implies it).
	Torn bool
	// SyncLatency is DiskSlow's degraded fsync latency.
	SyncLatency time.Duration
	// Duration, when positive, makes the fault self-healing: crashes
	// recover, partitions heal, link faults clear, sluggish nodes recover
	// this long after the action fires. For Restart kinds it is the outage
	// length before the reboot and must be positive.
	Duration time.Duration
}

// Event is one scheduled action.
type Event struct {
	At     time.Duration
	Action Action
}

// Schedule is a declarative fault script, ordered by time once Sort is
// called (Apply sorts a copy; builders return sorted schedules).
type Schedule []Event

// Sort orders the schedule by time, stably, in place.
func (s Schedule) Sort() {
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
}

// FirstFaultAt returns the time of the earliest event (0 for an empty
// schedule).
func (s Schedule) FirstFaultAt() time.Duration {
	var first time.Duration
	for i, e := range s {
		if i == 0 || e.At < first {
			first = e.At
		}
	}
	return first
}

// Merge concatenates schedules into one sorted schedule.
func Merge(ss ...Schedule) Schedule {
	var out Schedule
	for _, s := range ss {
		out = append(out, s...)
	}
	out.Sort()
	return out
}

// Resolver resolves dynamic fault targets at fire time. The scenario harness
// implements it by inspecting live protocol state.
type Resolver interface {
	// ShardLeader returns the current leader of consensus group shard; shard
	// 0 is the whole cluster when it is unsharded, and the target of
	// CrashLeader and RestartLeader. Zero means unknown: the injector then
	// skips the action, deterministically.
	ShardLeader(shard int) ids.ID
	// Relay returns the node currently carrying relay group g (zero if
	// unknown or not applicable to the protocol under test).
	Relay(g int) ids.ID
}

// Placer is an optional Resolver extension for placement actions: it forces
// a live node in the given zone to bid for leadership and reports who
// campaigned (zero when the zone holds no live, campaign-capable replica —
// the injector then skips the action, deterministically).
type Placer interface {
	CampaignFrom(zone int) ids.ID
}

// ShardPlacer is an optional Resolver extension for per-shard placement:
// it forces a live member of the given shard in the given zone to bid for
// that shard's leadership and reports who campaigned (zero when no such
// member is live — the action is then skipped, deterministically). Zone 0
// means "any zone": the resolver picks its preferred standby.
type ShardPlacer interface {
	CampaignShardFrom(shard, zone int) ids.ID
}

// Rebooter is an optional Resolver extension for durable deployments: the
// scenario harness implements it by tearing down a node's protocol stack and
// rebuilding it from persisted WAL + snapshot alone. torn additionally
// truncates a suffix of the journal's synced tail first (a torn final
// write). Reboot reports false when id cannot be rebooted (unknown node, or
// no durable storage behind it) — the injector then skips, deterministically.
type Rebooter interface {
	Reboot(id ids.ID, torn bool) bool
}

// DiskFaulter is an optional Resolver extension giving the injector per-node
// fsync latency control. lat <= 0 restores the scenario's baseline.
type DiskFaulter interface {
	SetDiskSync(id ids.ID, lat time.Duration)
}

// StaticResolver is a Resolver with fixed answers (tests, leaderless
// protocols): Leaders[k] leads shard k, Relays[g] carries relay group g.
type StaticResolver struct {
	Leaders []ids.ID
	Relays  []ids.ID
}

// ShardLeader implements Resolver.
func (s StaticResolver) ShardLeader(shard int) ids.ID { return at(s.Leaders, shard) }

// Relay implements Resolver.
func (s StaticResolver) Relay(g int) ids.ID { return at(s.Relays, g) }

// at returns l[i], or zero when i is out of range.
func at(l []ids.ID, i int) ids.ID {
	if i < 0 || i >= len(l) {
		return 0
	}
	return l[i]
}

// Applied records one action the injector actually executed, with its
// resolved target — the scenario's fault log.
type Applied struct {
	At     time.Duration
	Kind   Kind
	Target ids.ID // resolved victim (zero for partition/heal/clear)
	Zone   int    // targeted region, for region-level actions (0 otherwise)
	Shard  int    // targeted consensus group for shard-level actions, -1 otherwise
}

// String implements fmt.Stringer.
func (a Applied) String() string {
	switch {
	case a.Shard >= 0 && !a.Target.IsZero():
		return fmt.Sprintf("%v(shard %d → %v)@%v", a.Kind, a.Shard, a.Target, a.At)
	case a.Shard >= 0:
		return fmt.Sprintf("%v(shard %d)@%v", a.Kind, a.Shard, a.At)
	case a.Zone != 0 && !a.Target.IsZero():
		return fmt.Sprintf("%v(zone %d → %v)@%v", a.Kind, a.Zone, a.Target, a.At)
	case a.Zone != 0:
		return fmt.Sprintf("%v(zone %d)@%v", a.Kind, a.Zone, a.At)
	case a.Target.IsZero():
		return fmt.Sprintf("%v@%v", a.Kind, a.At)
	default:
		return fmt.Sprintf("%v(%v)@%v", a.Kind, a.Target, a.At)
	}
}

// Injector owns an armed schedule: it executes actions at their virtual
// times and keeps the log of what actually happened (with dynamic targets
// resolved).
type Injector struct {
	sim     *des.Sim
	net     *netsim.Network
	res     Resolver
	log     []Applied
	windows []*Action // partition cuts and link faults in force, in start order
}

// Apply arms every event of sched on sim against net. Dynamic targets are
// resolved when the event fires, via res (which may be nil when the schedule
// contains only static targets). The returned Injector exposes the fault
// log after the run.
func Apply(sim *des.Sim, net *netsim.Network, sched Schedule, res Resolver) *Injector {
	in := &Injector{sim: sim, net: net, res: res}
	s := append(Schedule(nil), sched...)
	s.Sort()
	for _, ev := range s {
		ev := ev
		sim.Schedule(ev.At, func() { in.fire(ev) })
	}
	return in
}

// Log returns the actions executed so far, in execution order.
func (in *Injector) Log() []Applied { return in.log }

// note records that k happened now on behalf of action a — a.Kind itself or
// the step that heals it — against target. The entry carries a's zone when
// a is region-level and a's shard when a is shard-level (-1 otherwise).
func (in *Injector) note(k Kind, a Action, target ids.ID) {
	e := Applied{At: in.sim.Now(), Kind: k, Target: target, Shard: -1}
	switch a.Kind {
	case RegionPartition, WANDegrade, CrashRegion, LeaderPlacementFlip:
		e.Zone = a.Zone
	case CrashShardLeader, ShardPlacementFlip:
		e.Shard = a.Shard
	}
	in.log = append(in.log, e)
}

// after runs heal a.Duration from now when the action is self-healing.
func (in *Injector) after(a Action, heal func()) {
	if a.Duration > 0 {
		in.sim.Schedule(a.Duration, heal)
	}
}

// victim resolves the node a node outage targets: its Node for static
// kinds, the Resolver's answer for dynamic ones (zero when unresolvable).
func (in *Injector) victim(a Action) ids.ID {
	switch a.Kind {
	case Crash, Restart, TornTail:
		return a.Node
	}
	if in.res == nil {
		return 0
	}
	switch a.Kind {
	case CrashLeader, RestartLeader:
		return in.res.ShardLeader(0)
	case CrashShardLeader:
		return in.res.ShardLeader(a.Shard)
	case CrashRelay:
		return in.res.Relay(a.Group)
	}
	return 0
}

// crashFor crashes a's victim now and, when a self-heals, recovers it
// a.Duration later. An unresolvable victim skips the action.
func (in *Injector) crashFor(a Action) {
	victim := in.victim(a)
	if victim.IsZero() {
		return
	}
	in.net.Crash(victim)
	in.note(a.Kind, a, victim)
	in.after(a, func() {
		in.net.Recover(victim)
		in.note(Recover, a, victim)
	})
}

// restartFor crashes a's victim now and schedules an honest reboot-from-disk
// a.Duration later. The whole action is skipped when the resolver cannot
// reboot — running only the crash half would silently degrade Restart to a
// permanent crash on volatile deployments.
func (in *Injector) restartFor(a Action) {
	victim := in.victim(a)
	if victim.IsZero() {
		return
	}
	rb, ok := in.res.(Rebooter)
	if !ok {
		return
	}
	torn := a.Torn || a.Kind == TornTail
	in.net.Crash(victim)
	in.note(a.Kind, a, victim)
	in.sim.Schedule(a.Duration, func() {
		if rb.Reboot(victim, torn) {
			in.note(Reboot, a, victim)
		}
	})
}

func (in *Injector) fire(ev Event) {
	a := ev.Action
	switch a.Kind {
	case Crash, CrashLeader, CrashRelay, CrashShardLeader:
		in.crashFor(a)
	case Restart, RestartLeader, TornTail:
		in.restartFor(a)
	case Recover:
		in.net.Recover(a.Node)
		in.note(Recover, a, a.Node)
	case PartitionCut, RegionPartition, LinkFault, WANDegrade:
		w := &a
		in.windows = append(in.windows, w)
		in.set(a)
		in.note(a.Kind, a, a.From)
		in.after(a, func() { in.heal(healKind(a.Kind), a, func(x *Action) bool { return x == w }) })
	case Heal, ClearLinks:
		in.heal(a.Kind, a, func(x *Action) bool { return healKind(x.Kind) == a.Kind })
	case Sluggish:
		in.net.SetSluggish(a.Node, a.Factor)
		in.note(Sluggish, a, a.Node)
		in.after(a, func() {
			in.net.SetSluggish(a.Node, 1)
			in.note(Recover, a, a.Node)
		})
	case CrashRegion:
		// Crash only members that are still up, and recover exactly those:
		// a node felled earlier by an overlapping crash fault keeps its own
		// scripted recovery time instead of being revived with the region.
		var victims []ids.ID
		for _, v := range in.net.Cluster().ZoneNodes(a.Zone) {
			if !in.net.Crashed(v) {
				victims = append(victims, v)
				in.net.Crash(v)
			}
		}
		in.note(CrashRegion, a, 0)
		if len(victims) > 0 {
			in.after(a, func() {
				for _, v := range victims {
					in.net.Recover(v)
				}
				in.note(Recover, a, 0)
			})
		}
	case LeaderPlacementFlip:
		if p, ok := in.res.(Placer); ok {
			if id := p.CampaignFrom(a.Zone); !id.IsZero() {
				in.note(LeaderPlacementFlip, a, id)
			}
		}
	case ShardPlacementFlip:
		if p, ok := in.res.(ShardPlacer); ok {
			if id := p.CampaignShardFrom(a.Shard, a.Zone); !id.IsZero() {
				in.note(ShardPlacementFlip, a, id)
			}
		}
	case DiskSlow:
		df, ok := in.res.(DiskFaulter)
		if !ok {
			return
		}
		df.SetDiskSync(a.Node, a.SyncLatency)
		in.note(DiskSlow, a, a.Node)
		in.after(a, func() {
			df.SetDiskSync(a.Node, 0)
			in.note(DiskRestore, a, a.Node)
		})
	case DiskRestore:
		if df, ok := in.res.(DiskFaulter); ok {
			df.SetDiskSync(a.Node, 0)
			in.note(DiskRestore, a, a.Node)
		}
	}
}

// healKind is the kind that ends a window of kind k and names its family:
// Heal for partition cuts, ClearLinks for link faults.
func healKind(k Kind) Kind {
	if k == PartitionCut || k == RegionPartition {
		return Heal
	}
	return ClearLinks
}

// set installs one partition-cut or link-fault window on the network.
func (in *Injector) set(a Action) {
	switch {
	case a.Kind == PartitionCut:
		in.net.Partition(a.SideA, a.SideB)
	case a.Kind == RegionPartition:
		in.net.PartitionZone(a.Zone)
	case a.Kind == WANDegrade:
		in.net.SetZoneLinkFaults(a.Zone, a.ZoneB, a.Faults)
	case a.From.IsZero() && a.To.IsZero():
		in.net.SetAllLinkFaults(a.Faults)
	default:
		in.net.SetLinkFaults(a.From, a.To, a.Faults)
	}
}

// heal closes the windows gone selects, all of the family k ends (Heal:
// partition cuts, ClearLinks: link faults), and logs k on behalf of a.
// netsim removes a family only as a whole, so heal resets it and re-applies
// the family's windows still open, in start order: overlapping windows
// compose (the later-started one holds a link both fault), and a window
// that ends early no longer heals one that runs on.
func (in *Injector) heal(k Kind, a Action, gone func(*Action) bool) {
	in.windows = slices.DeleteFunc(in.windows, gone)
	if k == Heal {
		in.net.HealPartition()
	} else {
		in.net.ClearLinkFaults()
	}
	for _, w := range in.windows {
		if healKind(w.Kind) == k {
			in.set(*w)
		}
	}
	in.note(k, a, 0)
}

// ------------------------------------------------------------- builders --

// LeaderCrash scripts the paper's leader-failover scenario: kill the current
// leader at `at`, bring it back downFor later.
func LeaderCrash(at, downFor time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{Kind: CrashLeader, Duration: downFor}}}
}

// RelayCrash scripts the Figure-5b relay-failure scenario: kill whatever
// node currently relays group g at `at`, bring it back downFor later.
func RelayCrash(group int, at, downFor time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{Kind: CrashRelay, Group: group, Duration: downFor}}}
}

// NodeCrash crashes a specific node for downFor.
func NodeCrash(node ids.ID, at, downFor time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{Kind: Crash, Node: node, Duration: downFor}}}
}

// RollingRestart crashes each node in turn for downFor, spacing consecutive
// crashes by gap (gap ≥ downFor keeps at most one node down at a time).
func RollingRestart(nodes []ids.ID, start, downFor, gap time.Duration) Schedule {
	s := make(Schedule, 0, len(nodes))
	at := start
	for _, n := range nodes {
		s = append(s, Event{At: at, Action: Action{Kind: Crash, Node: n, Duration: downFor}})
		at += gap
	}
	return s
}

// MinorityPartition cuts the given minority off the rest of the cluster at
// `at`, healing after healAfter.
func MinorityPartition(minority, rest []ids.ID, at, healAfter time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{
		Kind: PartitionCut, SideA: minority, SideB: rest, Duration: healAfter,
	}}}
}

// FlakyLinks degrades every link with f from `at`, clearing after
// clearAfter.
func FlakyLinks(f netsim.LinkFaults, at, clearAfter time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{Kind: LinkFault, Faults: f, Duration: clearAfter}}}
}

// RegionCut scripts the paper's whole-region outage: zone loses its WAN
// uplinks at `at` (clients in the region marooned with it), healing after
// healAfter.
func RegionCut(zone int, at, healAfter time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{Kind: RegionPartition, Zone: zone, Duration: healAfter}}}
}

// DegradeWANPair degrades the zoneA↔zoneB WAN path with f from `at`,
// clearing after clearAfter.
func DegradeWANPair(zoneA, zoneB int, f netsim.LinkFaults, at, clearAfter time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{
		Kind: WANDegrade, Zone: zoneA, ZoneB: zoneB, Faults: f, Duration: clearAfter,
	}}}
}

// RegionCrash crashes every member of zone at `at`, recovering all of them
// downFor later.
func RegionCrash(zone int, at, downFor time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{Kind: CrashRegion, Zone: zone, Duration: downFor}}}
}

// PlacementFlip forces a campaign from zone at `at` — the leader moves into
// the target region (Figure 9's leader-placement dimension).
func PlacementFlip(zone int, at time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{Kind: LeaderPlacementFlip, Zone: zone}}}
}

// ShardLeaderCrash scripts the sharded failover scenario: kill whichever
// node leads consensus group shard at `at`, bringing it back downFor later.
// Shards not replicated by the victim must keep committing throughout.
func ShardLeaderCrash(shard int, at, downFor time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{Kind: CrashShardLeader, Shard: shard, Duration: downFor}}}
}

// ShardFlip forces a campaign for shard's leadership from zone at `at`
// (zone 0 lets the resolver pick any live standby) — the per-shard
// migration primitive.
func ShardFlip(shard, zone int, at time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{Kind: ShardPlacementFlip, Shard: shard, Zone: zone}}}
}

// RestartFromDisk crashes node at `at` and reboots it downFor later from its
// persisted WAL + snapshot — the honest process-restart fault.
func RestartFromDisk(node ids.ID, at, downFor time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{Kind: Restart, Node: node, Duration: downFor}}}
}

// LeaderRestart restarts whichever node leads at `at` — failover plus
// durable recovery in one scenario.
func LeaderRestart(at, downFor time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{Kind: RestartLeader, Duration: downFor}}}
}

// TornRestart crashes node at `at`, tears the synced tail of its journal
// mid-frame, and reboots it downFor later — the crash-during-write fault.
func TornRestart(node ids.ID, at, downFor time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{Kind: TornTail, Node: node, Duration: downFor}}}
}

// DiskSlowWindow degrades node's fsync latency to lat from `at`, restoring
// the baseline clearAfter later.
func DiskSlowWindow(node ids.ID, lat time.Duration, at, clearAfter time.Duration) Schedule {
	return Schedule{{At: at, Action: Action{
		Kind: DiskSlow, Node: node, SyncLatency: lat, Duration: clearAfter,
	}}}
}

// RollingReboot restarts each node in turn from disk for downFor, spacing
// consecutive restarts by gap (gap ≥ downFor keeps at most one node down at
// a time) — the cluster-wide upgrade drill.
func RollingReboot(nodes []ids.ID, start, downFor, gap time.Duration) Schedule {
	s := make(Schedule, 0, len(nodes))
	at := start
	for _, n := range nodes {
		s = append(s, Event{At: at, Action: Action{Kind: Restart, Node: n, Duration: downFor}})
		at += gap
	}
	return s
}

// ------------------------------------------------------------- validation --

// window is a fault's span [start, end).
type window struct{ start, end time.Duration }

// covers reports whether t falls inside w.
func (w window) covers(t time.Duration) bool { return w.start <= t && t < w.end }

// MaxSafeCrashes is the classical f: how many of n nodes may be down
// simultaneously while a majority of n stays formable from the survivors.
func MaxSafeCrashes(n int) int { return n - quorum.MajoritySize(n) }

// Validate checks a schedule against the safety bounds the explorer promises
// and tests rely on, for cluster cc:
//   - every fault heals by healBy, and every crash recovers; dynamic-target
//     crashes must self-heal (Duration > 0), since their victims cannot be
//     matched to later Recover events statically, and restarts always need a
//     Duration, since the reboot has no other trigger;
//   - the schedule keeps the cluster available (see available): crashed and
//     cut-away nodes are charged together, so a partition plus crashes on
//     its majority side cannot leave the survivors without a quorum;
//   - region actions name populated zones, and a LeaderPlacementFlip does not
//     target a region whose every member is statically crashed at fire time
//     (there would be nobody to campaign).
//
// Region actions are first lowered to their node-level equivalents:
// CrashRegion to one Crash per member (so a crashed region counts every node
// against the bound), RegionPartition to the (zone, rest) PartitionCut,
// WANDegrade to a LinkFault.
func Validate(s Schedule, cc config.Cluster, healBy time.Duration) error {
	lowered := make(Schedule, 0, len(s))
	var flips []Event
	for _, ev := range s {
		a := ev.Action
		switch a.Kind {
		case RegionPartition, CrashRegion, LeaderPlacementFlip, WANDegrade:
			if len(cc.ZoneNodes(a.Zone)) == 0 || (a.Kind == WANDegrade && len(cc.ZoneNodes(a.ZoneB)) == 0) {
				return fmt.Errorf("chaos: %v at %v targets an empty zone (%d, %d)", a.Kind, ev.At, a.Zone, a.ZoneB)
			}
		}
		switch a.Kind {
		case RegionPartition:
			in, out := cc.RegionSides(a.Zone)
			lowered = append(lowered, Event{At: ev.At, Action: Action{
				Kind: PartitionCut, SideA: in, SideB: out, Duration: a.Duration,
			}})
		case CrashRegion:
			for _, v := range cc.ZoneNodes(a.Zone) {
				lowered = append(lowered, Event{At: ev.At, Action: Action{Kind: Crash, Node: v, Duration: a.Duration}})
			}
		case WANDegrade:
			lowered = append(lowered, Event{At: ev.At, Action: Action{Kind: LinkFault, Faults: a.Faults, Duration: a.Duration}})
		case LeaderPlacementFlip:
			flips = append(flips, ev)
		default:
			lowered = append(lowered, ev)
		}
	}

	var losses []loss
	down := map[ids.ID][]window{} // static victims' outages, for the flip check
	for _, ev := range lowered {
		a := ev.Action
		var l loss
		switch a.Kind {
		case Crash, Restart, TornTail:
			l.down = []ids.ID{a.Node}
		case CrashLeader, CrashRelay, CrashShardLeader, RestartLeader:
			l.unknown = 1
		case PartitionCut:
			l.sideA, l.sideB = a.SideA, a.SideB
		case LinkFault, Sluggish:
		default:
			continue
		}
		end, err := faultEnd(lowered, ev, healBy)
		if err != nil {
			return err
		}
		l.window = window{ev.At, end}
		losses = append(losses, l)
		if l.down != nil {
			down[a.Node] = append(down[a.Node], l.window)
		}
	}
	if err := available(losses, cc); err != nil {
		return err
	}
	for _, ev := range flips {
		alive := 0
		for _, v := range cc.ZoneNodes(ev.Action.Zone) {
			up := true
			for _, w := range down[v] {
				up = up && !w.covers(ev.At)
			}
			if up {
				alive++
			}
		}
		if alive == 0 {
			return fmt.Errorf("chaos: placement-flip at %v targets zone %d while its every member is crashed", ev.At, ev.Action.Zone)
		}
	}
	return nil
}

// faultEnd returns when ev's fault ends: ev.At + Duration, or without one the
// earliest later event in s that ends it (a Recover of the crashed node, a
// Heal of a partition cut, a ClearLinks of link faults). It rejects a fault
// that never ends or ends after healBy.
func faultEnd(s Schedule, ev Event, healBy time.Duration) (time.Duration, error) {
	a := ev.Action
	end := ev.At + a.Duration
	if a.Duration <= 0 {
		var ends func(Action) bool
		switch a.Kind {
		case Restart, RestartLeader, TornTail:
			return 0, fmt.Errorf("chaos: %v at %v has no Duration (the reboot needs a fire time)", a.Kind, ev.At)
		case Crash:
			ends = func(r Action) bool { return r.Kind == Recover && r.Node == a.Node }
		case PartitionCut:
			ends = func(r Action) bool { return r.Kind == Heal }
		case LinkFault:
			ends = func(r Action) bool { return r.Kind == ClearLinks }
		case Sluggish:
			return 0, fmt.Errorf("chaos: %v at %v never heals", a.Kind, ev.At)
		default:
			return 0, fmt.Errorf("chaos: %v at %v has no Duration (dynamic targets must self-heal)", a.Kind, ev.At)
		}
		end = -1
		for _, r := range s {
			if r.At > ev.At && ends(r.Action) && (end < 0 || r.At < end) {
				end = r.At
			}
		}
		if end < 0 {
			return 0, fmt.Errorf("chaos: %v at %v never heals", a.Kind, ev.At)
		}
	}
	if end > healBy {
		return 0, fmt.Errorf("chaos: %v at %v heals at %v, after the %v deadline", a.Kind, ev.At, end, healBy)
	}
	return end, nil
}

// loss is one fault window as the availability rule sees it: the nodes it
// takes down, or how many victims it takes that are not named in advance (a
// leader or relay resolved at fire time), or a cut between two sides. A link
// fault or a slow node takes nothing.
type loss struct {
	window
	down         []ids.ID
	unknown      int
	sideA, sideB []ids.ID
}

// available is the one availability rule, which Validate and the explorer
// both apply: at every instant a fault starts, in every consensus group (each
// shard of cc's shard plan when cc is sharded, else the whole membership),
// the largest set of live members that can all reach one another loses at
// most MaxSafeCrashes of the group — so it still holds a majority. Every
// victim not named in advance is assumed to fall in that set, and in every
// group.
func available(losses []loss, cc config.Cluster) error {
	groups := [][]ids.ID{cc.Nodes}
	if cc.Shards > 1 {
		groups = groups[:0]
		for _, d := range shard.Plan(cc, cc.Shards).Shards {
			groups = append(groups, d.Members)
		}
	}
	for _, l := range losses {
		for k, g := range groups {
			need := len(g) - MaxSafeCrashes(len(g))
			if got := connected(g, losses, l.start); got < need {
				return fmt.Errorf("chaos: at %v only %d of group %d's %d nodes are live and connected; it needs %d",
					l.start, max(got, 0), k, len(g), need)
			}
		}
	}
	return nil
}

// connected returns the size of the largest set of members live and mutually
// reachable at t, less the victims not named in advance.
func connected(members []ids.ID, losses []loss, t time.Duration) int {
	dead := map[ids.ID]bool{}
	var cuts []loss
	unknown := 0
	for _, l := range losses {
		if !l.covers(t) {
			continue
		}
		for _, v := range l.down {
			dead[v] = true
		}
		unknown += l.unknown
		if l.sideA != nil {
			cuts = append(cuts, l)
		}
	}
	cut := func(a, b ids.ID) bool {
		for _, c := range cuts {
			if (slices.Contains(c.sideA, a) && slices.Contains(c.sideB, b)) ||
				(slices.Contains(c.sideA, b) && slices.Contains(c.sideB, a)) {
				return true
			}
		}
		return false
	}
	seen := make([]bool, len(members))
	largest := 0
	for i, m := range members {
		if seen[i] || dead[m] {
			continue
		}
		seen[i] = true
		size, stack := 0, []int{i}
		for len(stack) > 0 {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for k, o := range members {
				if !seen[k] && !dead[o] && !cut(members[j], o) {
					seen[k] = true
					stack = append(stack, k)
				}
			}
		}
		largest = max(largest, size)
	}
	return largest - unknown
}
