// Package pigpaxos implements PigPaxos: Multi-Paxos with the leader's
// direct fan-out/fan-in replaced by a relay/aggregate communication tree
// (paper §3). Followers are statically partitioned into relay groups; at
// every fan-out the leader picks one random node per group as the round's
// relay. The relay applies the message as an ordinary follower, re-sends it
// to the rest of its group, collects the group's votes, and returns them to
// the leader as a single aggregated message. Random relay rotation spreads
// the extra relay load across rounds (§3.2), relay timeouts bound the damage
// of slow or crashed followers (§3.4, Figure 5a).
//
// The leader draws relays once per event-loop turn (node.Turns): on the live
// transport every proposal, P1a and P3 of one turn rides the same relay tree,
// so each relay's frames of the turn share one socket write, and the next
// turn draws afresh. A substrate without turns (the simulator) makes every
// fan-out its own turn. Figure 5b — the leader times out and retries the slot
// with different relays — is the decision core's own retransmit
// (paxos.Config.RetryTimeout) sent through this plane: the retry fires from a
// timer, in a later turn than the round it repeats, so it draws afresh.
//
// Heartbeats stay off the tree: the decision core sends them straight to the
// followers it picks — all of them when idle, and while rounds are in flight
// only those whose votes do not show they heard a recent round — so relays
// carry the liveness signal of a busy leader, and the leader's load per
// request is 2r+2 messages, as §6.1 counts it.
//
// The decision core is an unmodified paxos.Replica: this package only
// substitutes the communication plane, exactly as the paper describes its
// own implementation (§5.1).
package pigpaxos

import (
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/node"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/slots"
	"pigpaxos/internal/wire"
)

// GroupingStrategy selects how a leader partitions its followers.
type GroupingStrategy int

const (
	// GroupEven splits followers into NumGroups near-equal groups in ID
	// order (the hash-style static grouping of §3.2).
	GroupEven GroupingStrategy = iota
	// GroupByZone makes one relay group per zone (§6.4's WAN layout; one
	// message crosses the WAN per region per round).
	GroupByZone
)

// Config parameterizes a PigPaxos replica.
type Config struct {
	// Paxos is the decision-core configuration. A zero Paxos.RetryTimeout
	// becomes 2×RelayTimeout + 10ms: a round through a relay that waited out
	// its whole timeout is still answered before the leader retries it.
	Paxos paxos.Config
	// NumGroups is r, the number of relay groups (GroupEven only).
	NumGroups int
	// Strategy picks the grouping layout.
	Strategy GroupingStrategy
	// RelayTimeout bounds how long a relay waits for its group before
	// flushing a partial aggregate (default 50ms, the Figure 13 setting).
	RelayTimeout time.Duration
	// FixedRelays pins each group's relay to its first member instead of
	// rotating randomly — an ablation of §3.2's hotspot-avoidance argument.
	// On the simulator, which charges each node's CPU, the fixed relays
	// become bottlenecks. On one loopback host pinning reads faster: every
	// round to a group shares one connection, so its frames share writes.
	FixedRelays bool
}

func (c *Config) applyDefaults() {
	if c.NumGroups == 0 {
		c.NumGroups = 3
	}
	if c.RelayTimeout == 0 {
		c.RelayTimeout = 50 * time.Millisecond
	}
	if c.Paxos.RetryTimeout == 0 {
		c.Paxos.RetryTimeout = 2*c.RelayTimeout + 10*time.Millisecond
	}
}

// relayWork is the CPU charged at a relay per aggregation flush (combining
// votes into one message).
const relayWork = 5 * time.Microsecond

// Stats counts PigPaxos-specific events.
type Stats struct {
	RelayRounds    uint64 // RelayP2a/RelayP1a handled as relay
	FullFlushes    uint64 // aggregates sent with the whole group's votes
	PartialFlushes uint64 // aggregates flushed by timeout
	LateVotes      uint64 // votes and aggregates arriving outside an open aggregation
}

// agg is a relay's phase-2 aggregation for one slot: the cell of the aggs
// ring. One slot holds one aggregation — the latest ballot's; an older
// ballot's leader has been deposed and has no use for its aggregate.
type agg struct {
	ballot   ids.Ballot
	state    aggState
	leader   ids.ID // where the aggregate goes
	acks     []ids.ID
	expected int // votes to collect including our own
}

type aggState uint8

const (
	aggNone       aggState = iota // the relay never aggregated this slot
	aggCollecting                 // votes still arriving, timeout armed
	// aggFlushed: the aggregate went out. Remembered so votes arriving after
	// a timeout flush are dropped instead of forwarded one by one, which
	// would push the leader's load past its 2r+2 messages per round. A round
	// the partial aggregate left short of a majority is the core's
	// retransmit's to finish, through freshly drawn relays.
	aggFlushed
)

// aggMemory is how many slots of aggregation state a relay keeps below the
// highest slot it has relayed.
const aggMemory = 4096

// p1agg tracks one in-progress phase-1 aggregation at a relay.
type p1agg struct {
	leader   ids.ID
	expected int // promises to collect including our own
	replies  []wire.P1b
	timer    node.Timer
}

// Replica is one PigPaxos node.
type Replica struct {
	ctx  node.Context
	cfg  Config
	core *paxos.Replica

	layout config.GroupLayout
	// rest[g][i] is group g without its i-th member: the peer list a round
	// hands the relay it drew, shared by every message of every round
	// (read-only downstream).
	rest [][][]ids.ID
	// relays[g] is the index in group g of the relay most recently drawn
	// (-1 before the first round). Chaos schedules use it to aim "kill the
	// current relay of group g" faults at the node actually carrying the
	// round.
	relays []int
	// turns is the context's node.Turns, nil if it has none; relays were
	// drawn in turn drawTurn once drawn is set.
	turns    node.Turns
	drawTurn uint64
	drawn    bool

	// Relay side: phase-2 aggregations by slot with their relay timeouts,
	// phase-1 aggregations by ballot.
	aggs     slots.Window[agg]
	relayDue *slots.Timers[ids.Ballot]
	p1aggs   map[ids.Ballot]*p1agg

	// What this relay's own parked votes do when durable, bound once.
	ackDurable, promiseDurable paxos.Release

	stats Stats
}

// New builds a PigPaxos replica around a fresh Paxos core.
func New(ctx node.Context, cfg Config) *Replica {
	cfg.applyDefaults()
	r := &Replica{ctx: ctx, cfg: cfg, p1aggs: make(map[ids.Ballot]*p1agg)}
	r.turns, _ = ctx.(node.Turns)
	r.relayDue = slots.NewTimers(ctx, r.relayTimeout)
	r.ackDurable, r.promiseDurable = r.ownAck, r.ownPromise
	r.core = paxos.New(ctx, cfg.Paxos, &pigPlane{r})
	r.computeLayout()
	return r
}

// Start launches the replica (see paxos.Replica.Start).
func (r *Replica) Start() { r.core.Start() }

// Core exposes the decision core (stores, log, leadership state).
func (r *Replica) Core() *paxos.Replica { return r.core }

// Stats returns a copy of the PigPaxos event counters.
func (r *Replica) Stats() Stats { return r.stats }

// Layout returns the current relay-group layout (leader's view).
func (r *Replica) Layout() config.GroupLayout { return r.layout }

// computeLayout partitions the followers into relay groups and builds what
// is derived from the partition.
func (r *Replica) computeLayout() {
	peers := r.cfg.Paxos.Cluster.Peers(r.cfg.Paxos.ID)
	switch r.cfg.Strategy {
	case GroupByZone:
		r.layout = config.ZoneGroups(r.cfg.Paxos.Cluster, peers)
	default:
		g, err := config.EvenGroups(peers, r.cfg.NumGroups)
		if err != nil {
			// Degenerate clusters (r > followers): one group per node.
			g, _ = config.EvenGroups(peers, len(peers))
		}
		r.layout = g
	}
	r.relays = make([]int, r.layout.NumGroups())
	for g := range r.relays {
		r.relays[g] = -1
	}
	r.rest = make([][][]ids.ID, len(r.layout.Groups))
	for g, group := range r.layout.Groups {
		r.rest[g] = make([][]ids.ID, len(group))
		for i := range group {
			rest := make([]ids.ID, 0, len(group)-1)
			r.rest[g][i] = append(append(rest, group[:i]...), group[i+1:]...)
		}
	}
}

// OnMessage dispatches a delivered message. Relay-plane messages are
// handled here; everything else goes to the Paxos core.
func (r *Replica) OnMessage(from ids.ID, m wire.Msg) {
	switch v := m.(type) {
	case wire.RelayP2a:
		r.onRelayP2a(from, v)
	case wire.RelayP1a:
		r.onRelayP1a(from, v)
	case wire.RelayP3:
		r.onRelayP3(v)
	case wire.AggP2b:
		if r.core.Ballot().ID() == r.ctx.ID() {
			r.onAggP2b(v)
		} else {
			// An aggregate that reached a deposed leader: pass it to the
			// owner of the ballot it carries.
			r.stats.LateVotes++
			r.ctx.Send(v.Ballot.ID(), v)
		}
	case wire.AggP1b:
		r.onAggP1b(v)
	case wire.P2b:
		r.onP2b(from, v)
	case wire.P1b:
		r.onP1b(v)
	default:
		r.core.OnMessage(from, m)
	}
}

// ------------------------------------------------------------ leader side --

// pigPlane implements paxos.Disseminator by routing fan-outs through relay
// groups.
type pigPlane struct{ r *Replica }

// FanOut implements paxos.Disseminator: each P1a, P2a and P3 rides the
// relay tree. The first call of an event-loop turn draws the relays and the
// turn's later calls reuse them (see eachRelay); the core's retransmit of a
// stalled slot fires in a later turn, so it is Figure 5b's retry with
// freshly drawn relays. Heartbeats never come here: the core sends them
// direct, so the failure detector does not depend on relay liveness.
func (p *pigPlane) FanOut(m wire.Msg) {
	r := p.r
	switch v := m.(type) {
	case wire.P2a:
		r.eachRelay(func(relay ids.ID, peers []ids.ID) {
			r.ctx.Send(relay, wire.RelayP2a{P2a: v, Peers: peers, Timeout: r.cfg.RelayTimeout})
		})
	case wire.P1a:
		r.eachRelay(func(relay ids.ID, peers []ids.ID) {
			r.ctx.Send(relay, wire.RelayP1a{P1a: v, Peers: peers})
		})
	case wire.P3:
		r.eachRelay(func(relay ids.ID, peers []ids.ID) {
			r.ctx.Send(relay, wire.RelayP3{P3: v, Peers: peers})
		})
	}
}

// pickRelay draws the round's relay index for a group: random rotation by
// default (§3.2), pinned to the first member under the FixedRelays
// ablation.
func (r *Replica) pickRelay(group []ids.ID) int {
	if r.cfg.FixedRelays {
		return 0
	}
	return r.ctx.Rand().Intn(len(group))
}

// LastRelay returns the relay most recently drawn for group g, or the zero
// ID before any fan-out touched the group (or for an out-of-range g).
func (r *Replica) LastRelay(g int) ids.ID {
	if g < 0 || g >= len(r.relays) || r.relays[g] < 0 {
		return 0
	}
	return r.layout.Groups[g][r.relays[g]]
}

// eachRelay hands send this round's relay for every group and the rest of
// its group. The first fan-out of a turn draws the relays and the turn's
// later fan-outs reuse them, so their frames to each relay leave in one
// write; without node.Turns every fan-out draws. Each group's draw comes just
// before its send: on the simulator a send may draw from the same random
// source, and fixed-seed outputs depend on the order.
func (r *Replica) eachRelay(send func(relay ids.ID, peers []ids.ID)) {
	draw := true
	if r.turns != nil {
		t := r.turns.Turn()
		draw = !r.drawn || t != r.drawTurn
		r.drawTurn, r.drawn = t, true
	}
	for gi, group := range r.layout.Groups {
		if draw {
			r.relays[gi] = r.pickRelay(group)
		}
		ri := r.relays[gi]
		send(group[ri], r.rest[gi][ri])
	}
}

// onAggP2b unpacks a relay's aggregate into individual votes for the core.
func (r *Replica) onAggP2b(m wire.AggP2b) {
	if m.Ballot > r.core.Ballot() {
		// Rejection aggregated by a relay: one synthetic NACK dethrones.
		r.core.OnP2b(wire.P2b{Ballot: m.Ballot, From: m.Relay, Slot: m.Slot})
		return
	}
	if m.Partial {
		r.stats.PartialFlushes++
	}
	for _, ack := range m.Acks {
		r.core.OnP2b(wire.P2b{Ballot: m.Ballot, From: ack, Slot: m.Slot})
	}
}

// onAggP1b unpacks aggregated phase-1 promises.
func (r *Replica) onAggP1b(m wire.AggP1b) {
	for _, p := range m.Replies {
		r.core.OnP1b(p)
	}
}

// ------------------------------------------------------------- relay side --

func (r *Replica) onRelayP2a(from ids.ID, m wire.RelayP2a) {
	r.stats.RelayRounds++
	vote, ok := r.core.AcceptP2a(m.P2a)
	if vote.Ballot > m.P2a.Ballot {
		// Reject: answer immediately without waiting for the group
		// (paper footnote 2).
		r.ctx.Send(from, wire.AggP2b{
			Ballot: vote.Ballot, Relay: r.ctx.ID(), Slot: m.P2a.Slot, Partial: true,
		})
		return
	}
	slot := m.P2a.Slot
	a := r.aggCell(slot)
	if a == nil {
		// Outside what this relay tracks (see aggCell): no aggregation. The
		// group still gets the message; its votes come back one by one and
		// onP2b passes each on to the leader, as ours goes once durable.
		r.ctx.Broadcast(m.Peers, m.P2a)
		if ok {
			r.core.WhenDurable(r.ackDurable, slot, m.P2a.Ballot, from)
		}
		return
	}
	// An aggregation already open here is a duplicate assignment (a leader
	// retry chose us again) or an older ballot's; either way restart cleanly.
	*a = agg{
		ballot:   m.P2a.Ballot,
		state:    aggCollecting,
		leader:   from,
		acks:     make([]ids.ID, 0, len(m.Peers)+1),
		expected: len(m.Peers) + 1,
	}
	if !ok {
		// Our own accept was refused (committed slot, different batch —
		// the core already sent the teach-back): relay without a self-vote.
		a.expected = len(m.Peers)
	}
	// The forward reveals nothing of ours, so the group starts on its accepts
	// while our own waits for its flush. One encode serves the whole group on
	// live transports (the relay's own CPU tax is what §3 spreads around).
	r.ctx.Broadcast(m.Peers, m.P2a)
	if ok {
		r.core.WhenDurable(r.ackDurable, slot, m.P2a.Ballot, from)
	} else {
		r.maybeFlushP2(slot, a, false)
	}
	if a = r.collecting(m.P2a.Ballot, slot); a == nil {
		return // flushed already
	}
	timeout := m.Timeout
	if timeout <= 0 {
		timeout = r.cfg.RelayTimeout
	}
	r.relayDue.Arm(slot, timeout, a.ballot)
}

// ownAck is this relay's own accept of (slot, b), durable: it joins the
// aggregation it was meant for, or goes to the round's sender on its own if
// that aggregation has been flushed or was never opened.
func (r *Replica) ownAck(slot uint64, b ids.Ballot, leader ids.ID) {
	if a := r.collecting(b, slot); a != nil {
		r.addAck(a, r.ctx.ID())
		r.maybeFlushP2(slot, a, false)
		return
	}
	r.ctx.Send(leader, wire.AggP2b{
		Ballot: b, Relay: r.ctx.ID(), Slot: slot,
		Acks: []ids.ID{r.ctx.ID()}, Partial: true,
	})
}

// aggCell returns the ring cell for slot, sliding the ring up when slot is
// its new high-water mark. It returns nil for a slot the relay will not
// track: aggMemory or more below the high-water mark, or so far above the
// execution cursor that the log refuses it too (a corrupt slot number must
// not slide the ring away from the live ones).
func (r *Replica) aggCell(slot uint64) *agg {
	if a := r.aggs.At(slot); a != nil {
		return a
	}
	if r.core.Log().Beyond(slot) {
		return nil
	}
	if r.aggs.Len() > 0 {
		if slot < r.aggs.Base() && r.aggs.End()-slot > aggMemory {
			return nil
		}
		if slot >= r.aggs.End() && slot-r.aggs.Base() >= aggMemory {
			floor := slot + 1 - aggMemory
			// Whatever is still collecting down there goes out as it stands
			// rather than being forgotten.
			for s := r.aggs.Base(); s < min(floor, r.aggs.End()); s++ {
				if old := r.aggs.At(s); old.state == aggCollecting {
					r.flushP2(s, old, true)
				}
			}
			r.aggs.Advance(floor)
		}
	}
	return r.aggs.Cover(slot)
}

// relayTimeout is the relayDue expiry: the group did not answer in time.
func (r *Replica) relayTimeout(slot uint64, b ids.Ballot) {
	if a := r.aggs.At(slot); a != nil && a.state == aggCollecting && a.ballot == b {
		r.maybeFlushP2(slot, a, true)
	}
}

// collecting returns the open aggregation a (ballot, slot) vote belongs to.
func (r *Replica) collecting(b ids.Ballot, slot uint64) *agg {
	if a := r.aggs.At(slot); a != nil && a.ballot == b && a.state == aggCollecting {
		return a
	}
	return nil
}

// onP2b is a vote arriving at a relay (or a late vote at the leader).
func (r *Replica) onP2b(from ids.ID, m wire.P2b) {
	if r.core.IsLeader() || r.core.Ballot().ID() == r.ctx.ID() {
		r.core.OnP2b(m)
		return
	}
	a := r.collecting(m.Ballot, m.Slot)
	if a == nil {
		r.stats.LateVotes++
		if c := r.aggs.At(m.Slot); c != nil && c.ballot == m.Ballot && c.state == aggFlushed {
			// The aggregate already went out, timed out. Dropping this
			// vote keeps the leader's load at 2r+2 messages per round; if
			// the round fell short of a majority, the core's retransmit
			// runs it again through freshly drawn relays.
			return
		}
		// A vote we have no record of (e.g. we restarted): pass it to
		// the ballot owner rather than lose it.
		r.ctx.Send(m.Ballot.ID(), m)
		return
	}
	r.addAck(a, m.From)
	r.maybeFlushP2(m.Slot, a, false)
}

// addAck records a vote once.
func (r *Replica) addAck(a *agg, from ids.ID) {
	for _, id := range a.acks {
		if id == from {
			return
		}
	}
	a.acks = append(a.acks, from)
}

func (r *Replica) maybeFlushP2(slot uint64, a *agg, timedOut bool) {
	if full := len(a.acks) >= a.expected; full || timedOut {
		r.flushP2(slot, a, !full)
	}
}

func (r *Replica) flushP2(slot uint64, a *agg, partial bool) {
	a.state = aggFlushed
	r.relayDue.Cancel(slot)
	if partial {
		r.stats.PartialFlushes++
	} else {
		r.stats.FullFlushes++
	}
	r.ctx.Work(relayWork)
	r.ctx.Send(a.leader, wire.AggP2b{
		Ballot:  a.ballot,
		Relay:   r.ctx.ID(),
		Slot:    slot,
		Acks:    a.acks,
		Partial: partial,
	})
	a.acks = nil // the message owns them now
}

func (r *Replica) onRelayP1a(from ids.ID, m wire.RelayP1a) {
	r.stats.RelayRounds++
	b := m.P1a.Ballot
	if !r.core.PromiseP1a(m.P1a) {
		// A NACK does not wait for the group; ownPromise finds no aggregation
		// and answers on its own.
		r.core.WhenDurable(r.promiseDurable, m.P1a.From, b, from)
		return
	}
	a := &p1agg{leader: from, expected: len(m.Peers) + 1, replies: make([]wire.P1b, 0, len(m.Peers)+1)}
	r.p1aggs[b] = a
	r.ctx.Broadcast(m.Peers, m.P1a)
	r.core.WhenDurable(r.promiseDurable, m.P1a.From, b, from)
	if r.p1aggs[b] != a {
		return // flushed already
	}
	a.timer = r.ctx.After(r.cfg.RelayTimeout, func() {
		if r.p1aggs[b] == a {
			r.flushP1(b, a)
		}
	})
}

// ownPromise is this relay's own answer to the phase-1 bid under b, durable:
// a promise joins the bid's aggregation; a NACK, or a promise whose
// aggregation has been flushed, goes to the round's sender on its own.
func (r *Replica) ownPromise(low uint64, b ids.Ballot, leader ids.ID) {
	own := r.core.P1bFor(low)
	if a := r.p1aggs[b]; a != nil && own.Ballot == b {
		a.replies = append(a.replies, own)
		if len(a.replies) >= a.expected {
			r.flushP1(b, a)
		}
		return
	}
	r.ctx.Send(leader, wire.AggP1b{Ballot: own.Ballot, Relay: r.ctx.ID(), Replies: []wire.P1b{own}})
}

// onP1b is a promise arriving at a relay (or at a campaigning node).
func (r *Replica) onP1b(m wire.P1b) {
	if r.core.Ballot().ID() == r.ctx.ID() {
		r.core.OnP1b(m)
		return
	}
	a := r.p1aggs[m.Ballot]
	if a == nil {
		// Flushed already, or a NACK for a different ballot: forward to
		// whoever owns the ballot the promise names.
		r.stats.LateVotes++
		r.ctx.Send(m.Ballot.ID(), m)
		return
	}
	a.replies = append(a.replies, m)
	if len(a.replies) >= a.expected {
		r.flushP1(m.Ballot, a)
	}
}

func (r *Replica) flushP1(b ids.Ballot, a *p1agg) {
	delete(r.p1aggs, b)
	if a.timer != nil {
		a.timer.Stop()
	}
	r.ctx.Work(relayWork)
	r.ctx.Send(a.leader, wire.AggP1b{Ballot: b, Relay: r.ctx.ID(), Replies: a.replies})
}

func (r *Replica) onRelayP3(m wire.RelayP3) {
	r.core.OnP3(m.P3)
	r.ctx.Broadcast(m.Peers, m.P3)
}
