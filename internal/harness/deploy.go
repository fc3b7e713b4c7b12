package harness

import (
	"time"

	"pigpaxos/internal/client"
	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/epaxos"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/node"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/protocol"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
)

// group is one consensus group of a deployment: its descriptor, the cluster
// config its replicas run under, and each member's live protocol stack.
type group struct {
	shard.Descriptor
	cluster config.Cluster
	targets []ids.ID // client target order: planned leader first
	members map[ids.ID]protocol.Member
}

// converged reports that the group's state machines ended bit-identical
// (same checksum, same applied count).
func (g *group) converged() bool {
	first := g.members[g.Members[0]].Store
	for _, id := range g.Members[1:] {
		st := g.members[id].Store
		if st.Checksum() != first.Checksum() || st.Applied() != first.Applied() {
			return false
		}
	}
	return true
}

// unexecuted counts EPaxos instances the group's replicas have not executed.
func (g *group) unexecuted() int {
	n := 0
	for _, id := range g.Members {
		if er := g.members[id].EPaxos; er != nil {
			n += er.Unexecuted()
		}
	}
	return n
}

// deployment is a simulated cluster running one or more consensus groups.
// Every physical node keeps ONE netsim endpoint and ONE event loop whose
// handler is a shard.Dispatcher; groups therefore share the DES clock and
// each node's virtual CPU, and multiplexing is paid for honestly in the
// cost model. An unsharded run is the single-group case: its traffic is
// untagged, which the dispatcher delivers to group 0.
type deployment struct {
	sim    *des.Sim
	cc     config.Cluster
	net    *netsim.Network
	router shard.Router
	// tagged reports that traffic rides wire.Sharded envelopes. A planned
	// deployment keeps the envelope even at one shard: it changes byte
	// costs, and S=1 is the baseline sharded sweeps compare against.
	tagged      bool
	groups      []*group
	dispatchers map[ids.ID]*shard.Dispatcher
	// build constructs one member's protocol stack and installs it. It runs
	// once per member at boot and again on every chaos Restart — a rebuilt
	// replica gets the node's surviving storage and nothing else, so
	// recovery is honest.
	build func(g *group, id ids.ID)
}

// deploy builds the simulator, the network and every replica the options
// select. A nil plan is one untagged group spanning the whole membership,
// led by its first node; a plan gives one tagged group per shard. tune, when
// set, adjusts each decision core's config after the batching knobs and
// before the per-experiment Mut hooks.
func deploy(opts *Options, plan *shard.Map, tune func(*paxos.Config)) *deployment {
	sim := des.New(opts.Seed)
	cc := opts.cluster()
	d := &deployment{
		sim: sim, cc: cc, net: netsim.New(sim, cc, opts.Net),
		dispatchers: make(map[ids.ID]*shard.Dispatcher, len(cc.Nodes)),
	}
	if plan == nil {
		d.groups = []*group{{
			Descriptor: shard.Descriptor{Members: cc.Nodes, Leader: cc.Nodes[0]},
			cluster:    cc,
		}}
	} else {
		// EPaxos' leaderless instance space is orthogonal to key-space
		// sharding.
		if opts.Protocol == EPaxos {
			panic("harness: sharded runs support Paxos and PigPaxos")
		}
		d.tagged, d.router = true, plan.Router
		for k, desc := range plan.Shards {
			d.groups = append(d.groups, &group{Descriptor: desc, cluster: plan.Sub(cc, k)})
		}
	}
	endpoints := make(map[ids.ID]*netsim.Endpoint, len(cc.Nodes))
	for _, id := range cc.Nodes {
		d.dispatchers[id] = shard.NewDispatcher(len(d.groups))
		endpoints[id] = d.net.Register(id, d.dispatchers[id], false)
	}
	d.build = func(g *group, id ids.ID) {
		var ctx node.Context = endpoints[id]
		if d.tagged {
			ctx = shard.Wrap(ctx, g.Index)
		}
		core := paxos.Config{Cluster: g.cluster, ID: id, InitialLeader: g.Leader}
		opts.paxosBatching(&core)
		if tune != nil {
			tune(&core)
		}
		spec := protocol.Spec{Kind: opts.Protocol}
		switch opts.Protocol {
		case Paxos:
			if opts.MutPaxos != nil {
				opts.MutPaxos(&core)
			}
			spec.Paxos = core
		case PigPaxos:
			spec.Pig = pigpaxos.Config{Paxos: core, NumGroups: opts.NumGroups}
			if opts.ZoneGroups {
				spec.Pig.Strategy = pigpaxos.GroupByZone
			}
			if opts.MutPig != nil {
				opts.MutPig(&spec.Pig)
			}
		case EPaxos:
			spec.EPaxos = epaxos.Config{Cluster: g.cluster, ID: id}
			if opts.MutEPaxos != nil {
				opts.MutEPaxos(&spec.EPaxos)
			}
		}
		m := protocol.Build(ctx, spec)
		d.dispatchers[id].Register(g.Index, m.Handler)
		g.members[id] = m
	}
	for _, g := range d.groups {
		g.targets = leaderFirst(g.Members, g.Leader)
		g.members = make(map[ids.ID]protocol.Member, len(g.Members))
		for _, id := range g.Members {
			d.build(g, id)
		}
	}
	return d
}

// start schedules every replica's Start at t=0 in (group, membership) order
// — map iteration would leak scheduling nondeterminism into the run.
func (d *deployment) start() {
	d.sim.Schedule(0, func() {
		for _, g := range d.groups {
			for _, id := range g.Members {
				g.members[id].Start()
			}
		}
	})
}

// simClient is a simulated client's node: one client.Session per group
// behind one endpoint, whose traffic goes to the session of the group that
// carried it. A pacing policy embeds it and drives the sessions.
type simClient struct {
	sessions []client.Session
}

// OnMessage implements node.Handler.
func (c *simClient) OnMessage(from ids.ID, m wire.Msg) {
	k, m := shard.Unwrap(m)
	c.sessions[k].OnMessage(from, m)
}

// client registers c on the network as client id, homed in zone, with one
// session per group aimed at the group's targets (planned leader first),
// tagged with its group when the deployment's traffic is. Client node
// numbers n sit far above any replica's. Every simulated client is built
// here; the caller sets the pacing: each session's Window, Timeout, Retry
// and callbacks.
func (d *deployment) client(c *simClient, id uint64, zone, n int) {
	ep := d.net.Register(ids.NewID(zone, n), c, true)
	c.sessions = make([]client.Session, len(d.groups))
	for k, g := range d.groups {
		c.sessions[k] = client.Session{Ctx: ep, ClientID: id, Targets: g.targets, Target: g.targets[0]}
		if d.tagged {
			c.sessions[k].Ctx = shard.Wrap(ep, k)
		}
	}
}

// launch staggers first sends a few tens of microseconds apart from 1ms on,
// to avoid a thundering herd at t=0 (the real benchmark ramps up the same
// way).
func (d *deployment) launch(clients []*closedLoop, stagger time.Duration) {
	for i, cl := range clients {
		d.sim.Schedule(time.Duration(i)*stagger+time.Millisecond, cl.next)
	}
}

// coreStats visits the decision core of every Paxos-family replica, in
// (group, membership) order.
func (d *deployment) coreStats(visit func(id ids.ID, core *paxos.Replica)) {
	for _, g := range d.groups {
		for _, id := range g.Members {
			if core := g.members[id].Core; core != nil {
				visit(id, core)
			}
		}
	}
}

// resolver resolves dynamic chaos targets from live protocol state. It
// implements chaos.Resolver, chaos.Placer against group 0 (the whole
// cluster when unsharded) and chaos.ShardPlacer.
type resolver struct{ d *deployment }

// ShardLeader implements chaos.Resolver: the first member (membership
// order) whose group-k replica believes it leads. EPaxos is leaderless —
// every replica is command leader for its own clients — so a leader-targeted
// fault resolves to the first live replica: a deterministic "crash a command
// leader mid-flight", which is exactly what Explicit Prepare recovery must
// absorb.
func (r resolver) ShardLeader(k int) ids.ID {
	if k < 0 || k >= len(r.d.groups) {
		return 0
	}
	g := r.d.groups[k]
	for _, id := range g.Members {
		if core := g.members[id].Core; core != nil {
			if core.IsLeader() {
				return id
			}
		} else if !r.d.net.Crashed(id) {
			return id
		}
	}
	return 0
}

// Relay implements chaos.Resolver: the relay the current PigPaxos leader
// last drew for relay group g, falling back to the group's first member
// before any fan-out has happened.
func (r resolver) Relay(g int) ids.ID {
	leader := r.ShardLeader(0)
	if leader.IsZero() {
		return 0
	}
	pr := r.d.groups[0].members[leader].Pig
	if pr == nil {
		return 0
	}
	if relay := pr.LastRelay(g); !relay.IsZero() {
		return relay
	}
	layout := pr.Layout()
	if g >= 0 && g < layout.NumGroups() && len(layout.Groups[g]) > 0 {
		return layout.Groups[g][0]
	}
	return 0
}

// campaign makes the first live eligible member of group k (membership
// order) bid for its leadership. EPaxos has nobody to move, so placement
// flips against it resolve to nobody and are skipped.
func (r resolver) campaign(k int, eligible func(ids.ID) bool) ids.ID {
	g := r.d.groups[k]
	for _, id := range g.Members {
		if core := g.members[id].Core; core != nil && !r.d.net.Crashed(id) && eligible(id) {
			core.Campaign()
			return id
		}
	}
	return 0
}

// CampaignFrom implements chaos.Placer. It matches the zone exactly and
// does not skip the sitting leader, unlike CampaignShardFrom; both are kept
// as found so every fixed-seed schedule replays byte-identically.
func (r resolver) CampaignFrom(zone int) ids.ID {
	return r.campaign(0, func(id ids.ID) bool { return r.d.cc.ZoneOf(id) == zone })
}

// CampaignShardFrom implements chaos.ShardPlacer: the first live non-leader
// member of group k in the zone (zone 0 = any) campaigns.
func (r resolver) CampaignShardFrom(k, zone int) ids.ID {
	if k < 0 || k >= len(r.d.groups) {
		return 0
	}
	cur := r.ShardLeader(k)
	return r.campaign(k, func(id ids.ID) bool {
		return id != cur && (zone == 0 || r.d.cc.ZoneOf(id) == zone)
	})
}

// durableResolver layers reboot and disk-fault capabilities over the
// resolver. Only durable deployments get one, so on volatile runs the
// injector's chaos.Rebooter/DiskFaulter type assertions fail and restart
// schedules skip deterministically without ever crashing the node.
type durableResolver struct {
	resolver
	storages map[ids.ID]*wal.MemStorage
	baseSync time.Duration
}

// Reboot implements chaos.Rebooter: power-loss semantics (unsynced journal
// appends dropped, optionally a torn final frame), then fresh replicas
// recovering from snapshot + WAL tail take over the node's endpoint.
func (dr durableResolver) Reboot(id ids.ID, torn bool) bool {
	st := dr.storages[id]
	if st == nil {
		return false
	}
	st.Crash() // whatever was never fsynced is gone
	if torn {
		st.TearTail()
	}
	// Epoch bump first: timers the old incarnation armed must never fire
	// into the new one, and the fresh replica's Start() timers must.
	dr.d.net.Reboot(id, dr.d.dispatchers[id])
	for _, g := range dr.d.groups {
		if _, hosts := g.members[id]; hosts {
			dr.d.build(g, id)
			g.members[id].Start()
		}
	}
	return true
}

// SetDiskSync implements chaos.DiskFaulter. lat <= 0 restores the
// scenario's baseline fsync cost.
func (dr durableResolver) SetDiskSync(id ids.ID, lat time.Duration) {
	if st := dr.storages[id]; st != nil {
		if lat <= 0 {
			lat = dr.baseSync
		}
		st.SetSyncCost(lat)
	}
}
