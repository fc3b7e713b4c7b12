// Scenario harness: runs a protocol under a chaos fault schedule and checks
// what the steady-state harness only assumes — that the cluster stays
// available (bounded gap), recovers fully (every acknowledged command
// committed and replicas converged), and never serves a non-linearizable
// history. This is the paper's §4/§5 fault-tolerance story (relay rotation,
// leader re-fan-out, failover) as a reproducible, measured experiment
// instead of a comment.
package harness

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/linearizability"
	"pigpaxos/internal/metrics"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
)

// maxOpsPerKey bounds how many operations may land on one probe key: the
// linearizability checker's per-key search is exponential in overlapping
// ops and hard-capped at 24.
const maxOpsPerKey = 12

// scenarioDrain is the virtual time after the measurement window for scripts
// to finish and replicas to converge.
const scenarioDrain = 5 * time.Second

// ScenarioOptions parameterize one chaos scenario run. The embedded Options
// configure the cluster exactly as Run does; scenario clients replace the
// open-ended closed-loop clients with fixed-length recorded scripts so every
// history can be checked.
type ScenarioOptions struct {
	Options

	// OpsPerClient is each client's script length (default 30).
	OpsPerClient int
	// ThinkTime paces clients: each waits this long between an ack and its
	// next operation, so scripts span the whole window and faults land on
	// live traffic. Defaults to Measure/OpsPerClient (script ≈ window);
	// negative disables pacing.
	ThinkTime time.Duration
	// ClientRetry is the clients' sweep period (client.Session.Retry): a
	// command unanswered that long is sent again, to the next node in
	// target order if its target said nothing at all in that time (masking
	// crashed leaders — or crashed EPaxos command leaders — and lost
	// messages; every protocol's replicated at-most-once session table
	// absorbs the duplicates). It also caps the Busy backoff. Defaults to
	// 120ms.
	ClientRetry time.Duration
	// ElectionTimeout arms follower elections so leader crashes actually
	// fail over (default 150ms; ignored by EPaxos).
	ElectionTimeout time.Duration
	// RegionClients homes clients round-robin across the cluster's zones
	// instead of packing them into the leader's (the paper's WAN runs place
	// client VMs in every region). Each region's latency and availability
	// are then reported separately in ScenarioResult.Regions — and a
	// RegionPartition maroons the cut region's clients along with its
	// replicas.
	RegionClients bool
	// Durable gives every Paxos/PigPaxos replica a wal.MemStorage journal:
	// promises and accepts fsync before the corresponding vote leaves,
	// snapshots checkpoint the state machine, and the Restart/TornTail/
	// DiskSlow chaos families go live (the scenario resolver implements
	// chaos.Rebooter and chaos.DiskFaulter). EPaxos has no durable path, so
	// restart actions against it skip deterministically.
	Durable bool
	// SnapshotEvery is the per-replica checkpoint cadence in executed
	// commands (default 64 when Durable).
	SnapshotEvery int
	// SyncCost is the simulated fsync latency charged per real journal sync
	// (default 400µs when Durable — an EBS-class flush).
	SyncCost time.Duration
	// Jobs is how many scenarios RunScenarios executes concurrently:
	// 0 means GOMAXPROCS, 1 forces the serial path. Every run is an
	// isolated deterministic sim and results are collected by schedule
	// index, so any Jobs value produces bit-identical output.
	Jobs int
}

func (o *ScenarioOptions) applyDefaults() {
	o.Options.applyDefaults()
	if o.OpsPerClient == 0 {
		o.OpsPerClient = 30
	}
	if o.ThinkTime == 0 {
		o.ThinkTime = o.Measure / time.Duration(o.OpsPerClient)
	} else if o.ThinkTime < 0 {
		o.ThinkTime = 0
	}
	if o.ClientRetry == 0 {
		o.ClientRetry = 120 * time.Millisecond
	}
	if o.ElectionTimeout == 0 {
		o.ElectionTimeout = 150 * time.Millisecond
	}
	if o.Durable {
		if o.SnapshotEvery == 0 {
			o.SnapshotEvery = 64
		}
		if o.SyncCost == 0 {
			o.SyncCost = 400 * time.Microsecond
		}
	}
}

// ScenarioResult is one scenario's measurement and verdicts. It contains
// only values derived from virtual time, so two runs at the same seed are
// comparable field-by-field (and asserted bit-identical in tests).
type ScenarioResult struct {
	Protocol Protocol
	N        int
	Shards   int `json:",omitempty"` // groups of a sharded run
	Clients  int

	// Acked counts operations acknowledged OK over the whole run.
	Acked int
	// Throughput is in-window acks per second (same window as Run).
	Throughput float64
	// Latency summarizes request latency over every acked operation.
	Latency metrics.Summary
	// AvailabilityGap is the longest interval between consecutive acks;
	// GapStart is when it opened. A fault that interrupts service shows up
	// here as a gap well above the per-op baseline.
	AvailabilityGap time.Duration
	GapStart        time.Duration
	// FirstFaultAt is the scheduled time of the first fault (0 with an
	// empty schedule); RecoveryLatency is the delay from that instant to
	// the first subsequent ack — how long the fault kept service down.
	FirstFaultAt    time.Duration
	RecoveryLatency time.Duration

	// Linearizable is the checker's verdict over every client's history —
	// one history across shards: per-key linearizability must hold
	// regardless of which shard served which key. LinBadKey names the
	// failing key when false, and LinChecked and LinExplored are the
	// check's size and cost.
	Linearizable bool
	LinBadKey    uint64
	LinChecked   int
	LinExplored  int
	// AllComplete reports that every client finished its script — with
	// Converged, the "full recovery: all acked commands committed
	// everywhere" criterion.
	AllComplete bool
	// Converged reports that every group's replicas ended bit-identical
	// (same checksum, same applied count) and that none applied more
	// commands than the clients issued distinct operations: a retry
	// executed twice on every replica is convergent, and still wrong.
	Converged bool
	// Unrecovered counts EPaxos instances left unexecuted across all
	// replicas after the drain — zero when Explicit Prepare recovery
	// finished every instance a fault orphaned (always zero for the
	// Paxos family).
	Unrecovered int

	Messages  uint64
	Delivered uint64
	Dropped   uint64

	// Durability telemetry, summed over replicas (zero on volatile runs).
	WALSyncs     uint64 // real journal fsyncs
	Snapshots    uint64 // checkpoints saved
	SnapRestores uint64 // snapshot installs (boot recovery + catch-up)
	Reboots      int    // honest restarts the injector completed
	// MaxLogLen and MaxWALBytes are the largest in-memory log and journal
	// footprint across replicas at run end — the bounded-memory check for
	// snapshot-driven compaction.
	MaxLogLen   int
	MaxWALBytes int

	// Overload telemetry. Busy counts the wire.Busy rejections the scripted
	// clients' finished operations met (each retried after a backoff from
	// the leader's hint, up to ClientRetry); DroppedExpired sums commands
	// the leaders dropped from their queues after QueueTTL; MaxQueueDepth is
	// the largest leader ingress queue observed across replicas — bounded by
	// paxos.Config.MaxPending when admission control is on.
	Busy           int
	DroppedExpired uint64
	MaxQueueDepth  uint64

	// Regions breaks the measurement down by client region (ascending
	// zone), populated when RegionClients is set on a multi-zone cluster.
	Regions []RegionResult
	// PerShard breaks a sharded run down by group.
	PerShard []ShardSlice `json:",omitempty"`

	// FaultLog lists the executed fault actions with resolved targets.
	FaultLog []chaos.Applied
}

// RegionResult is one region's slice of a WAN scenario: what service looked
// like to the clients homed there.
type RegionResult struct {
	Zone    int
	Clients int
	// Acked counts operations acknowledged to this region's clients.
	Acked int
	// Latency summarizes this region's request latency.
	Latency metrics.Summary
	// AvailabilityGap is the longest ack silence this region saw, GapStart
	// its opening instant, and Stalls how many distinct gaps of at least
	// 250ms the region suffered — a region cut off its WAN uplinks shows
	// one long stall here while the others stay smooth.
	AvailabilityGap time.Duration
	GapStart        time.Duration
	Stalls          int
}

// String implements fmt.Stringer.
func (r RegionResult) String() string {
	return fmt.Sprintf("zone %d: %d clients, %d acked, mean %v p99 %v, gap %v, stalls %d",
		r.Zone, r.Clients, r.Acked, r.Latency.Mean, r.Latency.P99, r.AvailabilityGap, r.Stalls)
}

// regionStallThreshold is the gap length counted as a service stall in
// RegionResult.Stalls: comfortably above a WAN round trip, well below any
// fault window a schedule would script.
const regionStallThreshold = 250 * time.Millisecond

// String implements fmt.Stringer.
func (r ScenarioResult) String() string {
	return fmt.Sprintf("%s N=%d: %d acked, gap %v, recovery %v, lin=%v complete=%v converged=%v",
		r.Protocol, r.N, r.Acked, r.AvailabilityGap, r.RecoveryLatency,
		r.Linearizable, r.AllComplete, r.Converged)
}

// scenScript builds client ci's fixed workload: keys assigned round-robin
// over the probe keyspace by global op index, so each key receives exactly
// ⌈total/keys⌉ operations (the checker's per-key bound holds by
// construction) while clients still contend on shared keys. Every third
// operation reads.
func scenScript(ci, ops, keys int) []kvstore.Command {
	out := make([]kvstore.Command, 0, ops)
	for j := 0; j < ops; j++ {
		key := uint64((ci*ops + j) % keys)
		if j%3 == 2 {
			out = append(out, kvstore.Command{Op: kvstore.Get, Key: key})
		} else {
			out = append(out, kvstore.Command{
				Op: kvstore.Put, Key: key,
				Value: []byte(fmt.Sprintf("c%d-%d", ci, j)),
			})
		}
	}
	return out
}

// scenarioRun is what a scenario leaves behind for RunScenario to report
// from.
type scenarioRun struct {
	d        *deployment
	clients  []*closedLoop
	probes   []*closedLoop // planned deployments only: one per group
	hist     *linearizability.History
	gaps     *metrics.GapTracker
	lat      *metrics.Histogram
	inWindow int
	// groupGaps tracks each group's availability separately (planned
	// deployments only): acknowledgements for its keys plus its probe's.
	groupGaps []*metrics.GapTracker
	// zones (ascending) and regions break the measurement down by client
	// home region (RegionClients on a multi-zone cluster only).
	zones    []int
	regions  map[int]*regionTrack
	storages map[ids.ID]*wal.MemStorage // durable runs only
	faultLog []chaos.Applied
}

// regionTrack is what one region's clients saw.
type regionTrack struct {
	gaps    metrics.GapTracker
	lat     *metrics.Histogram
	clients int
}

// runScenario is the scenario runner behind RunScenario: paced fixed-script
// clients recording one shared linearizability history against the
// deployment the plan selects, under the fault schedule, followed by a
// drain and a convergence tail.
func runScenario(opts *ScenarioOptions, plan *shard.Map, sched chaos.Schedule) scenarioRun {
	sr := scenarioRun{
		hist: &linearizability.History{}, gaps: &metrics.GapTracker{}, lat: metrics.NewHistogram(),
	}
	// Sharded scenarios stay volatile, as they always have: no sharded
	// schedule restarts nodes from disk.
	durable := opts.Durable && opts.Protocol != EPaxos && plan == nil
	if durable {
		sr.storages = make(map[ids.ID]*wal.MemStorage, opts.N)
		for _, id := range opts.cluster().Nodes {
			st := wal.NewMem()
			st.SetSyncCost(opts.SyncCost)
			sr.storages[id] = st
		}
	}
	d := deploy(&opts.Options, plan, func(id ids.ID, cfg *paxos.Config) {
		cfg.ElectionTimeout = opts.ElectionTimeout
		// The core's retransmit timer masks schedule-injected loss. The
		// unsharded PigPaxos scenario leaves the timeout to pigpaxos.New,
		// which derives it from the relay timeout (110 ms at the default).
		if plan != nil || opts.Protocol == Paxos {
			cfg.RetryTimeout = 100 * time.Millisecond
		}
		if durable {
			cfg.Storage = sr.storages[id]
			cfg.SnapshotEvery = opts.SnapshotEvery
		}
	})
	sr.d = d
	warmupEnd := opts.Warmup
	windowEnd := opts.Warmup + opts.Measure

	if plan != nil {
		for range d.groups {
			sr.groupGaps = append(sr.groupGaps, &metrics.GapTracker{})
		}
	}
	// Per-region trackers, when clients spread over zones: zones in
	// ascending order, clients assigned round-robin so every region gets
	// an equal share (±1).
	if opts.RegionClients {
		if zs := d.cc.ZoneList(); len(zs) > 1 {
			sr.zones, sr.regions = zs, map[int]*regionTrack{}
			for _, z := range zs {
				sr.regions[z] = &regionTrack{lat: metrics.NewHistogram()}
			}
		}
	}
	if opts.Protocol == EPaxos {
		// EPaxos clients retry over the membership in sorted ID order, so a
		// dead home replica's pending requests move to the next live replica
		// deterministically — sorted ID order, never map order.
		// Leader-based protocols keep membership order, leader first.
		g := d.groups[0]
		g.targets = append([]ids.ID(nil), g.Members...)
		ids.Sort(g.targets)
	}

	// The scenario keyspace: large enough that no key sees more than
	// maxOpsPerKey operations, and never below 8 keys.
	total := opts.Clients * opts.OpsPerClient
	keyspace := max((total+maxOpsPerKey-1)/maxOpsPerKey, 8)
	sr.clients = make([]*closedLoop, opts.Clients)
	for i := range sr.clients {
		home := d.cc.ZoneOf(d.cc.Nodes[0])
		var region *regionTrack
		if sr.zones != nil {
			home = sr.zones[i%len(sr.zones)]
			region = sr.regions[home]
			region.clients++
		}
		cl := d.closedLoop(uint64(i+1), home, 1000+i, opts.ClientRetry)
		cl.think = opts.ThinkTime
		cl.source = scriptSource(scenScript(i, opts.OpsPerClient, keyspace))
		cl.record = func(tag int, cmd kvstore.Command, rep wire.Reply, started, now time.Duration) {
			sr.hist.Add(historyOp(cmd, rep, started, now))
			sr.gaps.Record(now)
			if sr.groupGaps != nil {
				sr.groupGaps[tag].Record(now)
			}
			sr.lat.Observe(now - started)
			if region != nil {
				region.gaps.Record(now)
				region.lat.Observe(now - started)
			}
			if now >= warmupEnd && now < windowEnd {
				sr.inWindow++
			}
		}
		if opts.Protocol == EPaxos {
			// Every replica serves in EPaxos: home clients round-robin over
			// the whole membership (§5.4's client model). Crashed homes are
			// masked by the session's sweep, duplicate admissions by the
			// replicated session tables.
			s := &cl.sessions[0]
			s.Target = s.Targets[i%len(s.Targets)]
		}
		sr.clients[i] = cl
	}

	// One availability probe per group of a planned deployment: a closed-loop
	// client issuing paced reads on keys that group owns, above the scripted
	// keyspace, at a cadence well under the stall threshold. Scripted clients
	// are closed-loop ACROSS groups — one stuck on a crashed shard stops
	// offering load to healthy shards, which would read as a stall there.
	// Probes decouple the measurement: a group's GapTracker goes silent only
	// when the group itself cannot serve. Probe reads go through the log like
	// any command (so they measure commit availability), but stay out of the
	// latency histogram, throughput counters and linearizability history —
	// they are measurement, not workload.
	for k := range sr.groupGaps {
		keys, ki := probeKeys(d.router, k, 8, uint64(keyspace)), 0
		pr := d.closedLoop(uint64(opts.Clients+1+k), d.cc.ZoneOf(d.cc.Nodes[0]), 2000+k, opts.ClientRetry)
		pr.think = 25 * time.Millisecond
		pr.source = func(bool) (kvstore.Command, bool) {
			key := keys[ki%len(keys)]
			ki++
			return kvstore.Command{Op: kvstore.Get, Key: key}, true
		}
		pr.record = func(tag int, _ kvstore.Command, _ wire.Reply, _, now time.Duration) {
			sr.groupGaps[tag].Record(now)
		}
		sr.probes = append(sr.probes, pr)
	}

	var res chaos.Resolver = resolver{d}
	if durable {
		res = durableResolver{resolver{d}, sr.storages, opts.SyncCost}
	}
	injector := chaos.Apply(d.sim, d.net, sched, res)
	d.start()
	d.launch(sr.clients, 50*time.Microsecond)
	d.launch(sr.probes, 75*time.Microsecond)

	d.sim.Run(windowEnd)
	// Drain: give scripts and convergence (watermarks, catch-up) time to
	// finish, in slices so a finished run stops early.
	for drainEnd := windowEnd + scenarioDrain; d.sim.Now() < drainEnd && !sr.allDone(); {
		d.sim.Run(min(d.sim.Now()+100*time.Millisecond, drainEnd))
	}
	// Converge tail: heartbeat watermarks, catch-up replies and EPaxos
	// commit-floor anti-entropy flush. Runs that are already converged
	// after the fixed 500ms stop there (identical to the historical
	// behavior); stragglers get extra slices while the recovery machinery
	// — whose WAN-scale periods exceed half a second — finishes teaching
	// them, bounded by an additional budget.
	d.sim.Run(d.sim.Now() + 500*time.Millisecond)
	for end := d.sim.Now() + 4*time.Second; d.sim.Now() < end && !sr.converged(); {
		d.sim.Run(d.sim.Now() + 250*time.Millisecond)
	}
	sr.faultLog = injector.Log()
	return sr
}

// allDone reports that every scripted client finished its script.
func (sr *scenarioRun) allDone() bool {
	for _, cl := range sr.clients {
		if !cl.done {
			return false
		}
	}
	return true
}

// converged reports that every group's members ended bit-identical and no
// EPaxos instance is left unexecuted.
func (sr *scenarioRun) converged() bool {
	for _, g := range sr.d.groups {
		if !g.converged() || g.unexecuted() > 0 {
			return false
		}
	}
	return true
}

// atMostOnce reports that no member of group k applied more commands than
// the group's clients issued distinct operations.
func (sr *scenarioRun) atMostOnce(k int) bool {
	issued := uint64(0)
	for _, cl := range slices.Concat(sr.clients, sr.probes) {
		issued += cl.sessions[k].Issued()
	}
	for _, m := range sr.d.groups[k].members {
		if m.Store.Applied() > issued {
			return false
		}
	}
	return true
}

// RunScenario executes one protocol run under the fault schedule and returns
// measurements plus the correctness verdicts. Schedule times are absolute
// virtual times (the measurement window starts at opts.Warmup). With Shards
// set, scripted clients route by key across the groups and each group's
// availability is also tracked on its own (its keys' acknowledgements plus
// a dedicated probe), so a fault's blast radius is measurable per shard.
func RunScenario(opts ScenarioOptions, sched chaos.Schedule) ScenarioResult {
	opts.applyDefaults()
	sr := runScenario(&opts, opts.plan(), sched)
	d := sr.d
	res := ScenarioResult{
		Protocol:    opts.Protocol,
		N:           opts.N,
		Clients:     opts.Clients,
		Acked:       sr.gaps.Count(),
		Throughput:  float64(sr.inWindow) / opts.Measure.Seconds(),
		Latency:     sr.lat.Snapshot(),
		Messages:    d.net.MessagesSent(),
		Delivered:   d.net.MessagesDelivered(),
		Dropped:     d.net.MessagesDropped(),
		FaultLog:    sr.faultLog,
		AllComplete: sr.allDone(),
		Converged:   true,
	}
	for k, g := range d.groups {
		converged := g.converged() && sr.atMostOnce(k)
		res.Converged = res.Converged && converged
		res.Unrecovered += g.unexecuted()
		if sr.groupGaps == nil {
			continue
		}
		sl := ShardSlice{
			Shard:     k,
			Members:   g.Members,
			Leader:    g.Leader,
			Acked:     sr.groupGaps[k].Count(),
			Stalls:    sr.groupGaps[k].GapsOver(regionStallThreshold),
			Converged: converged,
		}
		sl.GapStart, sl.AvailabilityGap = sr.groupGaps[k].MaxGap()
		res.PerShard = append(res.PerShard, sl)
	}
	res.Shards = len(res.PerShard)
	for _, cl := range sr.clients {
		res.Busy += cl.busy
	}
	res.GapStart, res.AvailabilityGap = sr.gaps.MaxGap()
	for _, z := range sr.zones {
		reg := sr.regions[z]
		rr := RegionResult{
			Zone:    z,
			Clients: reg.clients,
			Acked:   reg.gaps.Count(),
			Latency: reg.lat.Snapshot(),
			Stalls:  reg.gaps.GapsOver(regionStallThreshold),
		}
		rr.GapStart, rr.AvailabilityGap = reg.gaps.MaxGap()
		res.Regions = append(res.Regions, rr)
	}
	if len(sched) > 0 {
		res.FirstFaultAt = sched.FirstFaultAt()
		if at, ok := sr.gaps.FirstAfter(res.FirstFaultAt); ok {
			res.RecoveryLatency = at - res.FirstFaultAt
		}
	}
	d.coreStats(func(id ids.ID, core *paxos.Replica) {
		st := core.Stats()
		res.WALSyncs += st.WALSyncs
		res.Snapshots += st.Snapshots
		res.SnapRestores += st.SnapRestores
		res.DroppedExpired += st.DroppedExpired
		res.MaxQueueDepth = max(res.MaxQueueDepth, st.MaxQueueDepth)
		res.MaxLogLen = max(res.MaxLogLen, core.Log().Len())
		if journal := sr.storages[id]; journal != nil {
			res.MaxWALBytes = max(res.MaxWALBytes, journal.Bytes())
		}
	})
	for _, a := range res.FaultLog {
		if a.Kind == chaos.Reboot {
			res.Reboots++
		}
	}
	lin := sr.hist.Check()
	res.Linearizable = lin.OK
	res.LinBadKey = lin.BadKey
	res.LinChecked = lin.Checked
	res.LinExplored = lin.Explored
	return res
}

// FaultPoint is one sample of a fault-intensity sweep.
type FaultPoint struct {
	Crashes         int
	Throughput      float64
	AvailabilityGap time.Duration
	P99             time.Duration
	Linearizable    bool
	Recovered       bool // AllComplete && Converged
}

// FaultCurve sweeps simultaneous follower-crash counts from 0 to maxCrashes
// (clamped to chaos.MaxSafeCrashes): k followers crash together a quarter
// into the window and recover at the midpoint. The curve shows how
// availability degrades with fault intensity while safety holds.
func FaultCurve(opts ScenarioOptions, maxCrashes int) []FaultPoint {
	opts.applyDefaults()
	cc := opts.cluster()
	if limit := chaos.MaxSafeCrashes(opts.N); maxCrashes > limit {
		maxCrashes = limit
	}
	out := make([]FaultPoint, 0, maxCrashes+1)
	for k := 0; k <= maxCrashes; k++ {
		crashAt := opts.Warmup + opts.Measure/4
		downFor := opts.Measure / 4
		var sched chaos.Schedule
		for i := 0; i < k; i++ {
			victim := cc.Nodes[len(cc.Nodes)-1-i] // followers, from the back
			sched = chaos.Merge(sched, chaos.NodeCrash(victim, crashAt, downFor))
		}
		r := RunScenario(opts, sched)
		out = append(out, FaultPoint{
			Crashes:         k,
			Throughput:      r.Throughput,
			AvailabilityGap: r.AvailabilityGap,
			P99:             r.Latency.P99,
			Linearizable:    r.Linearizable,
			Recovered:       r.AllComplete && r.Converged,
		})
	}
	return out
}

// ExploreSchedules generates ex.Scenarios random schedules (see
// chaos.Explore) with the harness defaults filled in: ex.Nodes and
// ex.Cluster from the cluster when nil, and the palette per protocol — the WAN region
// families on WAN clusters, chaos.EPaxosPalette (everything but relay
// crashes) for EPaxos, and everything-but-relay-crashes for Paxos.
// Exposed separately from ExploreScenarios so sweeps can keep the
// schedule that produced each result (the shrinker's input).
func ExploreSchedules(opts ScenarioOptions, ex chaos.ExplorerOpts) []chaos.Schedule {
	opts.applyDefaults()
	wan := opts.WAN || opts.WANLossy
	if ex.Nodes == nil {
		cc := opts.cluster()
		ex.Nodes = cc.Nodes
		if ex.Cluster.N() == 0 {
			// Hand the explorer the cluster: its zones for the region
			// fault families, its shards for the availability rule.
			ex.Cluster = cc
		}
	}
	if ex.Allow == (chaos.Palette{}) {
		switch {
		case wan:
			// Region faults for every protocol; EPaxos is leaderless, so
			// placement flips have nobody to move.
			ex.Allow = chaos.WANPalette()
			if opts.Protocol == EPaxos {
				ex.Allow.PlacementFlip = false
			}
		case opts.Protocol == EPaxos:
			// Full LAN palette minus relay crashes: Explicit Prepare
			// recovery, the retransmit sweep and the session tables take
			// crashes, partitions, loss and duplication.
			ex.Allow = chaos.EPaxosPalette()
		case opts.Protocol == Paxos:
			ex.Allow = chaos.FullPalette()
			ex.Allow.RelayCrash = false
		default:
			ex.Allow = chaos.FullPalette()
		}
	}
	if ex.Groups == 0 {
		ex.Groups = opts.NumGroups
	}
	if ex.Horizon == 0 {
		ex.Horizon = opts.Warmup + opts.Measure
	}
	if ex.Seed == 0 {
		ex.Seed = opts.Seed
	}
	return chaos.Explore(ex)
}

// RunScenarios runs one scenario per schedule and returns results in
// schedule order. Runs fan out across opts.Jobs workers (0 = GOMAXPROCS,
// 1 = serial); each run is an isolated deterministic sim — no shared
// state, per-run RNGs — and results land in a pre-sized slice by index,
// so the output is bit-identical to the serial path regardless of worker
// count or completion order.
func RunScenarios(opts ScenarioOptions, scheds []chaos.Schedule) []ScenarioResult {
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(scheds) {
		jobs = len(scheds)
	}
	out := make([]ScenarioResult, len(scheds))
	if jobs <= 1 {
		for i, s := range scheds {
			out[i] = RunScenario(opts, s)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = RunScenario(opts, scheds[i])
			}
		}()
	}
	for i := range scheds {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// ExploreScenarios generates ex.Scenarios random schedules and runs each
// under opts, returning one result per schedule. It is
// RunScenarios(opts, ExploreSchedules(opts, ex)) — parallel across
// opts.Jobs workers with positionally bit-identical results.
func ExploreScenarios(opts ScenarioOptions, ex chaos.ExplorerOpts) []ScenarioResult {
	return RunScenarios(opts, ExploreSchedules(opts, ex))
}
