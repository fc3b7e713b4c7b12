// Package netsim models the paper's testbed on top of the discrete-event
// simulator: every node owns a single virtual CPU that serializes message
// handling, links carry zone-to-zone latency from the cluster config, and
// failures (crashes, sluggishness, partitions) can be injected at any
// virtual time.
//
// The cost model is the heart of the reproduction. Sending a message costs
// the sender SendCost + ByteCost·size of CPU; receiving costs the receiver
// RecvCost + ByteCost·size before its handler runs. A node that must
// exchange many messages per consensus round (a Paxos leader: 2(N−1)+2)
// therefore saturates its virtual CPU at a proportionally lower request
// rate than a PigPaxos leader (2r+2) — exactly the bottleneck mechanism the
// paper measures on EC2.
//
// Each message is two simulator events: its arrival at the receiver, and
// its handling once the receiver's CPU is free. Both ride des streams, so a
// saturated endpoint costs the event heap a handful of entries however long
// its queue. Handling times at one endpoint never decrease (its CPU horizon
// only moves forward), so each endpoint has one handling stream. A sender's
// send-completion times never decrease either, and the latency from its
// zone to a destination zone is fixed, so its messages to one zone arrive
// in send order: each sender has one arrival stream per destination zone,
// next to that link's latency and profile. Self-addressed messages, and
// messages on a link whose delay is drawn (profile jitter) or that has
// chaos reorder or duplication set, go straight into the heap. Streams
// never change the order events run in (see package des), so every
// fixed-seed run is the same with or without them. Deliveries due at the
// same instant run in the order they were scheduled; which stream's head
// runs first among them is the choice an explorer of delivery orders would
// vary.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wire"
)

// Options tune the CPU/network cost model.
type Options struct {
	// SendCost is the fixed CPU time to serialize and hand one message to
	// the network.
	SendCost time.Duration
	// RecvCost is the fixed CPU time to read and deserialize one message.
	RecvCost time.Duration
	// ByteCostPerKB is additional CPU per KiB of payload, charged on both
	// sides (scaled linearly for partial KiBs).
	ByteCostPerKB time.Duration
}

// DefaultOptions returns the calibration used for the paper reproduction:
// 10µs per message on each side and ~2.5µs/KiB (≈ single-core marshalling
// plus kernel/NIC costs on an m5a.large). With these numbers a 25-node
// Multi-Paxos leader (50 msgs/request) saturates around 1.9k req/s and a
// 3-group PigPaxos leader (8 msgs/request) around 9k — matching the paper's
// 2k vs 7k shape.
func DefaultOptions() Options {
	return Options{
		SendCost:      10 * time.Microsecond,
		RecvCost:      10 * time.Microsecond,
		ByteCostPerKB: 2500 * time.Nanosecond,
	}
}

// Handler consumes delivered messages at a registered endpoint.
type Handler interface {
	OnMessage(from ids.ID, m wire.Msg)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from ids.ID, m wire.Msg)

// OnMessage implements Handler.
func (f HandlerFunc) OnMessage(from ids.ID, m wire.Msg) { f(from, m) }

// Network is a simulated cluster network.
type Network struct {
	sim  *des.Sim
	cfg  config.Cluster
	opts Options
	// prof is the cluster's per-zone-pair link profile source, when its
	// latency model carries one. Zero profiles draw nothing from the RNG,
	// so profile-free topologies run bit-identical to before profiles
	// existed.
	prof config.ProfileModel

	endpoints map[ids.ID]*Endpoint

	// freeDeliveries recycles message-delivery events (the simulator is
	// single-threaded, so a plain stack beats sync.Pool).
	freeDeliveries []*delivery

	// Counters for the analytical-model cross-checks (plain: the simulator
	// is single-threaded).
	sent, delivered, dropped uint64
}

// New creates a network over sim for cluster cfg.
func New(sim *des.Sim, cfg config.Cluster, opts Options) *Network {
	n := &Network{
		sim:       sim,
		cfg:       cfg,
		opts:      opts,
		endpoints: make(map[ids.ID]*Endpoint),
	}
	if pm, ok := cfg.Latency.(config.ProfileModel); ok {
		n.prof = pm
	}
	return n
}

// Sim returns the underlying simulator.
func (n *Network) Sim() *des.Sim { return n.sim }

// Cluster returns the cluster configuration the network was built over.
// Region-level fault injection uses it to resolve zones to node sets.
func (n *Network) Cluster() config.Cluster { return n.cfg }

// Register attaches handler h as node id and returns its endpoint. Clients
// register like nodes; pass free=true to give the endpoint an unmetered CPU
// (the paper ran clients on larger instances so that client-side processing
// never limits the measurement).
func (n *Network) Register(id ids.ID, h Handler, free bool) *Endpoint {
	if _, dup := n.endpoints[id]; dup {
		panic(fmt.Sprintf("netsim: duplicate endpoint %v", id))
	}
	e := &Endpoint{net: n, id: id, zone: n.cfg.ZoneOf(id), handler: h, free: free}
	n.endpoints[id] = e
	return e
}

// Endpoint returns the endpoint registered for id, or nil.
func (n *Network) Endpoint(id ids.ID) *Endpoint { return n.endpoints[id] }

// MessagesSent returns the number of messages handed to the network.
func (n *Network) MessagesSent() uint64 { return n.sent }

// MessagesDelivered returns the number of messages delivered to handlers.
func (n *Network) MessagesDelivered() uint64 { return n.delivered }

// MessagesDropped returns messages dropped by crashes or partitions.
func (n *Network) MessagesDropped() uint64 { return n.dropped }

// Crash makes id drop every message in or out until Recover. In-flight
// messages addressed to it are dropped on delivery.
func (n *Network) Crash(id ids.ID) {
	if e := n.endpoints[id]; e != nil {
		e.crashed = true
	}
}

// Recover brings a crashed node back (it retains its pre-crash state, as in
// the paper's crash-recovery model; protocols must tolerate stale state).
func (n *Network) Recover(id ids.ID) {
	if e := n.endpoints[id]; e != nil {
		e.crashed = false
	}
}

// Reboot brings a crashed node back as a fresh incarnation: h replaces the
// endpoint's handler and every timer armed by the previous incarnation is
// invalidated (its epoch no longer matches). Unlike Recover, which models a
// process that kept its memory, Reboot models an honest process restart —
// the caller supplies a new protocol instance that must rebuild its state
// from durable storage alone. Messages already in flight still arrive (the
// network does not know the process restarted); protocols tolerate them the
// same way they tolerate any stale delivery.
func (n *Network) Reboot(id ids.ID, h Handler) {
	if e := n.endpoints[id]; e != nil {
		e.epoch++
		e.crashed = false
		e.handler = h
	}
}

// Crashed reports whether id is currently crashed.
func (n *Network) Crashed(id ids.ID) bool {
	e := n.endpoints[id]
	return e != nil && e.crashed
}

// SetSluggish multiplies id's CPU costs by factor (1 = normal). Models the
// "sluggish node" scenarios of §3.4 without a full crash.
func (n *Network) SetSluggish(id ids.ID, factor float64) {
	if e := n.endpoints[id]; e != nil {
		if factor < 1 {
			factor = 1
		}
		e.slow = factor
	}
}

// Partition cuts connectivity between every pair (a ∈ sideA, b ∈ sideB) in
// both directions until HealPartition. A node appearing on both sides is
// never cut from itself: loopback survives every partition (a node can
// always talk to itself), so self-partitions are no-ops.
func (n *Network) Partition(sideA, sideB []ids.ID) {
	for _, a := range sideA {
		for _, b := range sideB {
			if a == b {
				continue
			}
			if ea := n.endpoints[a]; ea != nil {
				if ea.cut == nil {
					ea.cut = make(map[ids.ID]bool)
				}
				ea.cut[b] = true
			}
			if eb := n.endpoints[b]; eb != nil {
				if eb.cut == nil {
					eb.cut = make(map[ids.ID]bool)
				}
				eb.cut[a] = true
			}
		}
	}
}

// PartitionZone cuts every endpoint whose zone is z — replicas and clients
// alike — from every endpoint outside z, until HealPartition. It models a
// region losing its WAN uplinks: intra-region connectivity survives, and
// clients homed in the region are marooned with it.
func (n *Network) PartitionZone(z int) {
	for ida, ea := range n.endpoints {
		if n.cfg.ZoneOf(ida) != z {
			continue
		}
		for idb, eb := range n.endpoints {
			if idb == ida || n.cfg.ZoneOf(idb) == z {
				continue
			}
			if ea.cut == nil {
				ea.cut = make(map[ids.ID]bool)
			}
			ea.cut[idb] = true
			if eb.cut == nil {
				eb.cut = make(map[ids.ID]bool)
			}
			eb.cut[ida] = true
		}
	}
}

// HealPartition removes all partition cuts.
func (n *Network) HealPartition() {
	for _, e := range n.endpoints {
		e.cut = nil
	}
}

// LinkFaults are probabilistic per-link disturbances, applied on the sender
// side of a directed link. All probabilities are in [0,1]; draws come from
// the simulation RNG, so equal seeds give bit-identical fault patterns.
type LinkFaults struct {
	// Loss drops each message with this probability (counted in
	// MessagesDropped).
	Loss float64
	// Duplicate delivers each message twice with this probability (the
	// second copy shares the send's CPU charge: duplication happens in the
	// network, not at the sender). Deliveries can therefore exceed sends.
	Duplicate float64
	// Reorder adds uniform random [0, ReorderWindow) extra latency to a
	// message with this probability, letting later sends overtake it.
	Reorder float64
	// ReorderWindow bounds the extra reorder delay (default 1ms).
	ReorderWindow time.Duration
}

// active reports whether any fault is configured.
func (f LinkFaults) active() bool {
	return f.Loss > 0 || f.Duplicate > 0 || f.Reorder > 0
}

// SetLinkFaults installs f on the directed link from → to, replacing any
// previous setting. A zero LinkFaults clears the link.
func (n *Network) SetLinkFaults(from, to ids.ID, f LinkFaults) {
	e := n.endpoints[from]
	if e == nil {
		return
	}
	if !f.active() {
		delete(e.links, to)
		return
	}
	if f.Reorder > 0 && f.ReorderWindow <= 0 {
		f.ReorderWindow = time.Millisecond
	}
	if e.links == nil {
		e.links = make(map[ids.ID]LinkFaults)
	}
	e.links[to] = f
}

// SetAllLinkFaults installs f on every registered directed link (loopbacks
// excluded — a node never loses messages to itself).
func (n *Network) SetAllLinkFaults(f LinkFaults) {
	for from := range n.endpoints {
		for to := range n.endpoints {
			if from == to {
				continue
			}
			n.SetLinkFaults(from, to, f)
		}
	}
}

// SetZoneLinkFaults installs f on every directed link joining zone a to
// zone b, in both directions (a == b selects the zone's internal links).
// Chaos schedules use it to degrade one WAN path — say Virginia↔Oregon —
// while the rest of the mesh stays clean. Only cluster members are touched;
// client endpoints keep clean links (the paper degrades replica WAN paths,
// not client access networks).
func (n *Network) SetZoneLinkFaults(zoneA, zoneB int, f LinkFaults) {
	for _, from := range n.cfg.Nodes {
		for _, to := range n.cfg.Nodes {
			if from == to {
				continue
			}
			za, zb := n.cfg.ZoneOf(from), n.cfg.ZoneOf(to)
			if (za == zoneA && zb == zoneB) || (za == zoneB && zb == zoneA) {
				n.SetLinkFaults(from, to, f)
			}
		}
	}
}

// ClearLinkFaults removes every per-link fault configuration.
func (n *Network) ClearLinkFaults() {
	for _, e := range n.endpoints {
		e.links = nil
	}
}

// LinkFaultsBetween returns the faults configured on from → to.
func (n *Network) LinkFaultsBetween(from, to ids.ID) (LinkFaults, bool) {
	if e := n.endpoints[from]; e != nil {
		f, ok := e.links[to]
		return f, ok
	}
	return LinkFaults{}, false
}

// byteCost scales the per-KiB rate to an arbitrary byte count.
func byteCost(perKB time.Duration, size int) time.Duration {
	return time.Duration(int64(perKB) * int64(size) / 1024)
}

// route is what one sender's messages to one destination zone share: the
// link's fixed latency and profile, looked up once, and the stream their
// arrivals queue on.
type route struct {
	lat      time.Duration
	prof     config.LinkProfile
	arrivals des.Stream
}

// route returns e's route to zone, building it on first use.
func (e *Endpoint) route(zone int) *route {
	if zone < len(e.routes) && e.routes[zone] != nil {
		return e.routes[zone]
	}
	n := e.net
	r := &route{}
	if n.cfg.Latency != nil {
		r.lat = n.cfg.Latency.OneWay(e.zone, zone)
	}
	if n.prof != nil {
		r.prof = n.prof.Profile(e.zone, zone)
		if r.prof.OneWay > 0 {
			r.lat = r.prof.OneWay
		}
	}
	if zone >= len(e.routes) {
		e.routes = append(e.routes, make([]*route, zone+1-len(e.routes))...)
	}
	e.routes[zone] = r
	return r
}

// delivery is one in-flight message, pooled on the Network and scheduled
// as a des.Runner — replacing the two closures (arrival + handle) the
// delivery path used to allocate per message. The same object runs twice:
// first at network arrival, where it charges the receiver's CPU and
// reschedules itself, then at handling time, where it invokes the handler
// and returns to the pool.
type delivery struct {
	dst     *Endpoint
	from    ids.ID
	m       wire.Msg
	size    int
	arrived bool
}

func (n *Network) newDelivery(dst *Endpoint, from ids.ID, m wire.Msg, size int) *delivery {
	if k := len(n.freeDeliveries); k > 0 {
		d := n.freeDeliveries[k-1]
		n.freeDeliveries = n.freeDeliveries[:k-1]
		*d = delivery{dst: dst, from: from, m: m, size: size}
		return d
	}
	return &delivery{dst: dst, from: from, m: m, size: size}
}

func (n *Network) releaseDelivery(d *delivery) {
	*d = delivery{}
	n.freeDeliveries = append(n.freeDeliveries, d)
}

// Run implements des.Runner.
func (d *delivery) Run() {
	e := d.dst
	n := e.net
	if !d.arrived {
		// Network arrival: the receiver pays RecvCost plus per-byte CPU
		// before its handler may run (same cost model as before).
		if e.crashed || e.cut[d.from] {
			n.dropped++
			n.releaseDelivery(d)
			return
		}
		handleAt := e.cpu(n.sim.Now(), n.opts.RecvCost+byteCost(n.opts.ByteCostPerKB, d.size))
		d.arrived = true
		n.sim.ScheduleRunner(handleAt-n.sim.Now(), d, &e.handling)
		return
	}
	// Handling time.
	if e.crashed {
		n.dropped++
		n.releaseDelivery(d)
		return
	}
	n.delivered++
	e.received++
	from, m := d.from, d.m
	// Release before invoking the handler: sends from inside OnMessage may
	// reuse this object immediately.
	n.releaseDelivery(d)
	e.handler.OnMessage(from, m)
}

// Endpoint is one simulated node's attachment to the network. It implements
// the context protocols use to act on the world: sending, timers, clock and
// randomness. All methods must be called from simulator callbacks (the
// simulator is single-threaded).
type Endpoint struct {
	net     *Network
	id      ids.ID
	zone    int
	handler Handler
	free    bool // unmetered CPU (clients)

	handling des.Stream // deliveries waiting for this endpoint's CPU
	routes   []*route   // by destination zone, built on first send

	busyUntil time.Duration
	busyTotal time.Duration // accumulated CPU time consumed
	crashed   bool
	epoch     uint64 // incarnation counter; bumped by Reboot to kill timers
	slow      float64
	cut       map[ids.ID]bool
	links     map[ids.ID]LinkFaults // per-destination probabilistic faults

	sent     uint64
	received uint64
}

// ID returns the endpoint's node ID.
func (e *Endpoint) ID() ids.ID { return e.id }

// Now returns the current virtual time.
func (e *Endpoint) Now() time.Duration { return e.net.sim.Now() }

// Rand returns the deterministic simulation RNG.
func (e *Endpoint) Rand() *rand.Rand { return e.net.sim.Rand() }

// Sent returns how many messages this endpoint has sent.
func (e *Endpoint) Sent() uint64 { return e.sent }

// Received returns how many messages were delivered to this endpoint.
func (e *Endpoint) Received() uint64 { return e.received }

// BusyUntil exposes the CPU horizon for load accounting in tests.
func (e *Endpoint) BusyUntil() time.Duration { return e.busyUntil }

// BusyTotal returns the accumulated CPU time this endpoint has consumed —
// utilization over a window is BusyTotal delta divided by the window.
func (e *Endpoint) BusyTotal() time.Duration { return e.busyTotal }

func (e *Endpoint) scale(d time.Duration) time.Duration {
	if e.free {
		return 0
	}
	if e.slow > 1 {
		return time.Duration(float64(d) * e.slow)
	}
	return d
}

// cpu charges d of CPU starting no earlier than now and returns the
// completion instant.
func (e *Endpoint) cpu(now, d time.Duration) time.Duration {
	start := e.busyUntil
	if now > start {
		start = now
	}
	work := e.scale(d)
	e.busyTotal += work
	e.busyUntil = start + work
	return e.busyUntil
}

// Work charges extra CPU to the endpoint (protocol bookkeeping such as vote
// tallying or state-machine execution) without sending anything.
func (e *Endpoint) Work(d time.Duration) {
	e.cpu(e.net.sim.Now(), d)
}

// Send transmits m to the node registered as to. Messages to self are
// delivered through the same cost path (loopback latency zero).
func (e *Endpoint) Send(to ids.ID, m wire.Msg) {
	e.send(to, m, m.Size())
}

// Broadcast sends m to every node in to, charging the sender the full
// per-recipient CPU cost (SendCost + ByteCost·size each) exactly as N
// unicasts would: the paper's leader bottleneck is that per-recipient
// serialization tax, so the simulator keeps paying it even though live
// transports encode once. Only the sizing is done once. Results are
// bit-identical to a Send loop at equal seeds.
func (e *Endpoint) Broadcast(to []ids.ID, m wire.Msg) {
	size := m.Size()
	for _, id := range to {
		e.send(id, m, size)
	}
}

// send is Send with m's encoded size already known.
func (e *Endpoint) send(to ids.ID, m wire.Msg, size int) {
	n := e.net
	n.sent++
	e.sent++
	if e.crashed {
		n.dropped++
		return
	}
	if e.cut[to] {
		n.dropped++
		return
	}
	dst := n.endpoints[to]
	if dst == nil {
		n.dropped++
		return
	}
	// Per-link probabilistic faults (chaos schedules). RNG draws happen only
	// when faults are configured, so fault-free runs are bit-identical to
	// runs before this feature existed.
	lf, chaotic := e.links[to]
	if chaotic && lf.Loss > 0 && n.sim.Rand().Float64() < lf.Loss {
		n.dropped++
		return
	}
	// Topology-level link profile (WAN jitter/loss per zone pair). Same
	// determinism contract as chaos faults: zero profiles draw nothing.
	var r *route
	if dst != e {
		r = e.route(dst.zone)
		if r.prof.Loss > 0 && n.sim.Rand().Float64() < r.prof.Loss {
			n.dropped++
			return
		}
	}
	sendDone := e.cpu(n.sim.Now(), n.opts.SendCost+byteCost(n.opts.ByteCostPerKB, size))
	var lat time.Duration
	var st *des.Stream
	if r != nil {
		lat = r.lat
		if r.prof.Jitter > 0 {
			lat += time.Duration(n.sim.Rand().Int63n(int64(r.prof.Jitter)))
		} else if lf.Reorder == 0 && lf.Duplicate == 0 {
			st = &r.arrivals
		}
	}
	copies := 1
	if chaotic && lf.Duplicate > 0 && n.sim.Rand().Float64() < lf.Duplicate {
		copies = 2
	}
	for c := 0; c < copies; c++ {
		d := lat
		if chaotic && lf.Reorder > 0 && n.sim.Rand().Float64() < lf.Reorder {
			d += time.Duration(n.sim.Rand().Int63n(int64(lf.ReorderWindow)))
		}
		n.sim.ScheduleRunner(sendDone+d-n.sim.Now(), n.newDelivery(dst, e.id, m, size), st)
	}
}

// After schedules fn after d of virtual time. Timers fire even while the
// CPU is busy (they model OS timers); crashed nodes skip the callback, and a
// timer armed before a Reboot never fires into the new incarnation (the
// restarted process did not arm it).
func (e *Endpoint) After(d time.Duration, fn func()) node.Timer {
	epoch := e.epoch
	return e.net.sim.Schedule(d, func() {
		if e.crashed || e.epoch != epoch {
			return
		}
		fn()
	})
}

// Endpoint implements node.Context.
var _ node.Context = (*Endpoint)(nil)
