package paxos

import (
	"math"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/quorum"
	"pigpaxos/internal/wire"
)

// Start launches the replica: the designated initial leader bids
// immediately, and every member arms its election timer (when enabled).
func (r *Replica) Start() {
	if r.cfg.InitialLeader == r.cfg.ID {
		r.Campaign()
	}
	r.armElectionTimer(!r.contending())
}

// Campaign makes the replica bid for leadership now, regardless of its
// failure detector's opinion of the current leader. Operators (and the chaos
// injector's LeaderPlacementFlip) use it to move the leader into a chosen
// region; the bid carries a higher ballot, so the incumbent steps down on
// first contact. A no-op on a node that already leads.
func (r *Replica) Campaign() {
	if r.active {
		return
	}
	r.stats.Elections++
	r.abortProposals()
	r.ballot = r.ballot.Next(r.cfg.ID)
	r.journalPromise()
	r.p1q = quorum.NewThreshold(r.cfg.Cluster.N(), r.majority)
	r.p1MaxFloor, r.p1FloorFrom = 0, 0
	r.promised = false
	// The bid reveals nothing that must survive a crash, so it leaves at
	// once. The promise to ourselves does: without it this node does not win
	// (see selfPromise), so no value is ever proposed under a ballot a restart
	// could forget and hand out again.
	r.diss.FanOut(wire.P1a{Ballot: r.ballot, From: r.log.ExecuteCursor()})
	r.WhenDurable(r.selfPromiseDurable, 0, r.ballot, r.cfg.ID)
	if !r.active { // a single-node cluster has won already
		r.armCampaignRetry()
	}
}

// contending reports whether this node leads or campaigns for its ballot.
func (r *Replica) contending() bool {
	return r.active || r.p1q != nil && r.ballot.ID() == r.cfg.ID
}

// abortProposals discards in-flight phase-2 state (vote tallies and
// retransmit timers) once this node's proposals can no longer commit under
// its ballot — on losing leadership or opening a fresh campaign. Stale
// entries would otherwise count against the pipelining window forever,
// shrinking or wedging it after re-election.
func (r *Replica) abortProposals() {
	r.retx.Clear()
	for s := r.inflight.Base(); s < r.inflight.End(); s++ {
		r.inflight.At(s).voting = false
	}
	r.voting = 0
}

// selfPromise counts a campaigner's own promise once it is durable.
func (r *Replica) selfPromise(_ uint64, b ids.Ballot, _ ids.ID) {
	if r.ballot != b || r.active || r.p1q == nil {
		return // the campaign it belonged to is over
	}
	r.promised = true
	r.p1q.ACK(r.cfg.ID)
	if r.p1q.Satisfied() {
		r.becomeLeader()
	}
}

// armCampaignRetry re-bids after a delay if phase-1 stalls (lost messages,
// peers not yet listening — a live-deployment bootstrap concern the
// simulator never hits). The retry aborts if another node took over.
func (r *Replica) armCampaignRetry() {
	if r.campaignRetry != nil {
		r.campaignRetry.Stop()
	}
	retry := r.cfg.ElectionTimeout
	if retry <= 0 {
		retry = 150 * time.Millisecond
	}
	r.campaignRetry = r.ctx.After(retry, func() {
		if r.ballot.ID() == r.cfg.ID {
			r.Campaign()
		}
	})
}

// armElectionTimer (re)starts the election timer: due in ElectionTimeout
// and, with jitter, a random share of another, so followers seldom bid at
// once. The chain never stops, so a leader can bid again once deposed. Only
// a follower's tick draws jitter: leading, campaigning or just deposed, a
// node leaves alone the random source a simulated run shares.
func (r *Replica) armElectionTimer(jitter bool) {
	if r.cfg.ElectionTimeout <= 0 {
		return
	}
	if r.electionTimer != nil {
		r.electionTimer.Stop()
	}
	d := r.cfg.ElectionTimeout
	if jitter {
		d += time.Duration(r.ctx.Rand().Int63n(int64(d)))
	}
	r.electionTimer = r.ctx.After(d, r.electionTick)
}

// electionTick is the failure detector: a follower that has heard from no
// leader for ElectionTimeout bids, unless it promised the leader a read lease
// that has not run out.
func (r *Replica) electionTick() {
	follower := !r.contending()
	if now := r.ctx.Now(); follower && now >= r.leasePromiseUntil && now-r.lastLeaderContact >= r.cfg.ElectionTimeout {
		r.Campaign()
	}
	r.armElectionTimer(follower)
}

// PromiseP1a applies a phase-1 bid locally — adopting its ballot if higher
// and journaling the promise — and reports whether the bid was promised
// (false: it is below our ballot, and the answer is a NACK). The answer,
// P1bFor, reveals the ballot either way and may leave only WhenDurable.
// Exposed for relay aggregation.
func (r *Replica) PromiseP1a(m wire.P1a) bool {
	if m.Ballot > r.ballot {
		r.heard(m.Ballot)
	}
	r.journalPromise()
	return m.Ballot == r.ballot
}

// P1bFor builds this replica's phase-1 answer for a campaigner whose
// execution cursor is low: a promise if the replica's ballot is still the
// campaigner's, a NACK carrying the higher ballot otherwise.
func (r *Replica) P1bFor(low uint64) wire.P1b {
	reply := wire.P1b{Ballot: r.ballot, From: r.cfg.ID, Floor: r.log.FirstSlot()}
	// Report every known entry from the campaigner's cursor up — committed
	// ones included, flagged, so a lagging winner installs them as commits
	// instead of proposing no-op fillers over anchored slots (which would
	// make one (ballot, slot) pair carry two values, breaking the
	// same-ballot watermark commit rule).
	for slot := max(low, 1); slot < r.log.PeekNextSlot() && len(reply.Entries) < math.MaxUint16; slot++ {
		e := r.log.Get(slot)
		if e == nil {
			continue // gap, or compacted (an extreme lagger re-asks via catch-up)
		}
		reply.Entries = append(reply.Entries, wire.SlotEntry{Slot: slot, Ballot: e.Ballot, Committed: e.Committed, Cmds: e.Commands})
	}
	return reply
}

// OnP1a handles a direct phase-1 bid: apply locally, answer the bidder once
// the promise is durable.
func (r *Replica) OnP1a(from ids.ID, m wire.P1a) {
	r.PromiseP1a(m)
	r.WhenDurable(r.promiseDurable, m.From, m.Ballot, from)
}

func (r *Replica) sendP1b(low uint64, _ ids.Ballot, to ids.ID) {
	r.ctx.Send(to, r.P1bFor(low))
}

// OnP1b tallies phase-1 promises at a campaigning node.
func (r *Replica) OnP1b(m wire.P1b) {
	if m.Ballot > r.ballot {
		// Someone promised a higher ballot: our campaign lost.
		r.stepDown(m.Ballot)
		return
	}
	if m.Ballot < r.ballot || r.active || r.p1q == nil {
		return // stale or already elected
	}
	r.p1q.ACK(m.From)
	if m.Floor > r.p1MaxFloor {
		r.p1MaxFloor, r.p1FloorFrom = m.Floor, m.From
	}
	r.recoverEntries(m.Entries)
	if r.promised && r.p1q.Satisfied() {
		r.becomeLeader()
	}
}

// recoverEntries installs phase-1 knowledge: committed entries are
// authoritative and land as commits; uncommitted ones accumulate the
// highest-ballot value seen per slot.
func (r *Replica) recoverEntries(entries []wire.SlotEntry) {
	for _, e := range entries {
		if e.Committed {
			r.log.Commit(e.Slot, e.Ballot, e.Cmds)
			r.stats.Commits++
			continue
		}
		cur := r.log.Get(e.Slot)
		if cur == nil || (!cur.Committed && e.Ballot > cur.Ballot) {
			r.log.Accept(e.Slot, e.Ballot, e.Cmds)
		}
	}
}

func (r *Replica) becomeLeader() {
	r.active = true
	r.p1q = nil
	// Apply commits learned during phase-1 before proposing, so the
	// re-propose loop below starts past everything already anchored.
	r.execute()
	// Re-propose every accepted-but-uncommitted slot under our ballot,
	// filling log gaps with no-ops, so earlier instances anchor before new
	// commands enter. Their commands count as admitted here: a retry of one
	// re-attaches to its slot instead of opening a second.
	low := r.log.ExecuteCursor()
	if r.p1MaxFloor > low {
		// A promiser's compaction floor is above our cursor: every slot
		// below it was committed, executed and checkpointed somewhere, but
		// nobody can report those slots any more. Their silence is NOT
		// license to fill with no-ops — skip past the floor and pull the
		// checkpoint holder's snapshot instead.
		r.catchupToFloor(r.p1FloorFrom, r.p1MaxFloor)
		low = r.p1MaxFloor
	}
	high := r.log.PeekNextSlot()
	for slot := low; slot < high; slot++ {
		var cmds []kvstore.Command
		if e := r.log.Get(slot); e != nil {
			if e.Committed {
				continue
			}
			cmds = e.Commands
		}
		for _, c := range cmds {
			r.sessions.MarkAdmitted(c.ClientID, c.Seq)
		}
		r.propose(slot, cmds)
	}
	// Serve requests held during the campaign.
	for _, c := range r.ingress.Release() {
		r.OnRequest(c.From, wire.Request{Cmd: c.Cmd})
	}
	r.scheduleHeartbeat()
}

func (r *Replica) scheduleHeartbeat() {
	if r.cfg.HeartbeatInterval <= 0 {
		return
	}
	r.ctx.After(r.cfg.HeartbeatInterval, func() {
		if r.active {
			r.diss.FanOut(wire.Heartbeat{Ballot: r.ballot, From: r.cfg.ID, Commit: r.log.ExecuteCursor()})
			r.scheduleHeartbeat()
		}
	})
}

// OnHeartbeat refreshes the failure detector and applies the leader's
// commit watermark.
func (r *Replica) OnHeartbeat(m wire.Heartbeat) {
	if !r.heard(m.Ballot) {
		return
	}
	if r.cfg.ReadMode == ReadLease && m.Ballot.ID() != r.cfg.ID {
		// Promise the leader its lease window and confirm.
		r.leasePromiseUntil = r.ctx.Now() + r.cfg.leaseDuration()
		r.ctx.Send(m.Ballot.ID(), wire.HeartbeatAck{Ballot: m.Ballot, From: r.cfg.ID})
	}
	r.applyWatermark(m.Commit, m.Ballot)
}

// heard takes in the ballot of a leader's message or of a higher bid, and
// reports whether it is current: one above ours deposes this node, and one at
// least ours counts as contact with the leader.
func (r *Replica) heard(b ids.Ballot) bool {
	if b < r.ballot {
		return false
	}
	if b > r.ballot {
		r.stepDown(b)
	}
	r.lastLeaderContact = r.ctx.Now()
	return true
}

// stepDown adopts b, a higher ballot than ours seen in a peer's message: this
// replica stops leading (or campaigning), and every held and in-flight
// client request is answered with a redirect to b's owner instead of being
// resurrected stale on a later re-election. The ballot is adopted first so
// the redirects name that owner; there is nobody to name when the ballot is
// one this node issued in an earlier life. A deposed leader or beaten
// campaigner re-arms its election timer, last: its own chain may be gone, as
// the simulator drops a timer that comes due while its node is crashed.
func (r *Replica) stepDown(b ids.Ballot) {
	if r.contending() {
		defer r.armElectionTimer(false)
	}
	r.ballot = b
	r.active = false
	if b.ID() == r.cfg.ID {
		return
	}
	// The campaign is lost: b's owner's NACK of our bid carries b and must
	// not count as a promise, or this node leads under b's owner's ballot.
	r.p1q = nil
	r.abortProposals()
	// Redirect in ascending slot order, then drop every slot's in-flight
	// state: the tallies closed above, and the routes are now answered.
	for s := r.inflight.Base(); s < r.inflight.End(); s++ {
		for _, rt := range r.inflight.At(s).routes {
			if !rt.client.IsZero() { // zero: a placeholder in a re-attached route list
				r.redirect(rt.client, rt.clientID, rt.seq)
			}
		}
	}
	r.inflight.Advance(r.inflight.End())
	for _, p := range r.ingress.Items() {
		r.redirect(p.From, p.Cmd.ClientID, p.Cmd.Seq)
	}
	r.dropPending(r.ingress.Len())
	for _, p := range r.ingress.Release() {
		r.redirect(p.From, p.Cmd.ClientID, p.Cmd.Seq)
	}
}
