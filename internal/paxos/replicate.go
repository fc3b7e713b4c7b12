package paxos

import (
	"slices"

	"pigpaxos/internal/admission"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/quorum"
	"pigpaxos/internal/wire"
)

// propose runs phase-2 for (slot, cmds) under the current ballot.
func (r *Replica) propose(slot uint64, cmds []kvstore.Command) {
	r.log.Accept(slot, r.ballot, cmds)
	r.noteJournaled(r.ballot)
	p := r.inflight.Cover(slot)
	if !p.voting {
		p.voting = true
		r.voting++
	}
	p.votes = quorum.Tally{}
	p.proposedAt = r.ctx.Now()
	r.diss.FanOut(wire.P2a{Ballot: r.ballot, Slot: slot, Cmds: cmds, Commit: r.log.ExecuteCursor()})
	// The leader's self-vote counts toward the quorum, so its own accept must
	// be as durable as a follower's: the vote waits for the flush while the
	// followers already work on theirs. One flush covers every slot proposed
	// since the last (group commit).
	r.WhenDurable(r.selfVoteDurable, slot, r.ballot, r.cfg.ID)
	if p := r.inflight.At(slot); p != nil && p.voting { // not so on a single-node cluster
		r.armRetransmit(slot)
	}
}

// selfVote counts the leader's own accept of slot under b once it is
// durable — unless the proposal it belonged to is gone: the leader stepped
// down or was re-elected under another ballot, or the slot's tally closed.
func (r *Replica) selfVote(slot uint64, b ids.Ballot, _ ids.ID) {
	if r.active && r.ballot == b {
		r.vote(slot, r.self)
	}
}

// vote counts member i's accept toward slot's open tally, if any.
func (r *Replica) vote(slot uint64, i int) {
	if p := r.inflight.At(slot); p != nil && p.voting {
		if p.votes.Add(i); p.votes.Count() >= r.majority {
			r.commit(slot)
		}
	}
}

// armRetransmit re-broadcasts a slot's P2a if it stalls (lossy networks).
func (r *Replica) armRetransmit(slot uint64) {
	if r.cfg.RetryTimeout > 0 {
		r.retx.Arm(slot, r.cfg.RetryTimeout, struct{}{})
	}
}

// retransmit is the retx expiry: the slot went RetryTimeout without
// committing.
func (r *Replica) retransmit(slot uint64, _ struct{}) {
	e := r.log.Get(slot)
	if e == nil || e.Committed || !r.active {
		return
	}
	r.stats.Retransmits++
	r.diss.FanOut(wire.P2a{Ballot: r.ballot, Slot: slot, Cmds: e.Commands, Commit: r.log.ExecuteCursor()})
	r.armRetransmit(slot)
}

// AcceptP2a applies a phase-2 request locally and returns the vote (a P2b
// whose Ballot exceeds m.Ballot signals rejection). ok reports whether the
// proposal was actually accepted into the log: false with an equal-ballot
// vote means the slot already committed a different batch — the caller must
// NOT count the vote, and the anchored value has been sent back to the
// proposer (a lagging re-elected leader anchoring gaps with no-ops would
// otherwise quorum-commit over an acknowledged batch). An accepted proposal's
// vote may leave only WhenDurable; a rejection reveals nothing and may leave
// at once. Exposed for relays.
func (r *Replica) AcceptP2a(m wire.P2a) (vote wire.P2b, ok bool) {
	if r.heard(m.Ballot) {
		ok = r.log.Accept(m.Slot, m.Ballot, m.Cmds)
		if ok {
			r.noteJournaled(m.Ballot)
		} else if e := r.log.Get(m.Slot); e != nil && e.Committed {
			// In this branch a refusal can only mean the slot committed a
			// different batch (m.Ballot ≥ r.ballot ≥ any accepted ballot).
			// Teach the proposer the anchored value instead of voting.
			r.ctx.Send(m.Ballot.ID(), wire.P3{Ballot: r.ballot, Slot: m.Slot, Cmds: e.Commands})
		} else if m.Slot < r.log.FirstSlot() && !(m.Ballot == r.heardBallot && m.Slot < r.heardCommit) {
			// The slot was committed, executed and compacted away: the
			// proposer is behind our checkpoint floor, so the single-slot
			// teach-back no longer exists — ship the whole snapshot. Not so
			// when this ballot's leader has itself announced the slot
			// committed: then the proposer is not behind, the message is an
			// old duplicate, and it is dropped.
			r.sendSnapshot(m.Ballot.ID())
		}
		r.applyWatermark(m.Commit, m.Ballot)
	}
	return wire.P2b{Ballot: r.ballot, From: r.cfg.ID, Slot: m.Slot}, ok
}

// OnP2a handles a direct phase-2 request: accept locally, vote back. A
// refused proposal gets no vote (the teach-back P3 stands in for it);
// higher-ballot NACKs still flow so a stale leader steps down.
func (r *Replica) OnP2a(from ids.ID, m wire.P2a) {
	vote, ok := r.AcceptP2a(m)
	if ok {
		// Sync-before-vote: the accept (journaled by the log) must be durable
		// before the P2b leaves. Commits folded in by the watermark ride along
		// in the same flush.
		r.WhenDurable(r.voteDurable, m.Slot, m.Ballot, from)
	} else if vote.Ballot > m.Ballot {
		r.ctx.Send(from, vote)
	}
}

// sendP2b is an accept vote leaving, its accept durable. The ballot is the
// accepted proposal's even if the replica has promised a higher one since.
func (r *Replica) sendP2b(slot uint64, b ids.Ballot, to ids.ID) {
	r.ctx.Send(to, wire.P2b{Ballot: b, From: r.cfg.ID, Slot: slot})
}

// OnP2b tallies phase-2 votes at the leader. A vote also credits its voter
// with contact at the round's send time (see heartbeatTargets) — first, as
// the vote may commit and execute the slot, and a slot no longer in flight
// credits nothing.
func (r *Replica) OnP2b(m wire.P2b) {
	switch {
	case m.Ballot > r.ballot: // rejection: a higher ballot exists, stop leading
		r.stepDown(m.Ballot)
	case m.Ballot == r.ballot: // a lower one is a stale vote
		i := slices.Index(r.cfg.Cluster.Nodes, m.From)
		if p := r.inflight.At(m.Slot); p != nil && i >= 0 {
			r.votedAt[i] = max(r.votedAt[i], p.proposedAt)
		}
		r.vote(m.Slot, i)
	}
}

// closeTally ends slot's vote (it committed, or was taught an anchored
// batch) and reports whether one was open.
func (r *Replica) closeTally(slot uint64) (*proposal, bool) {
	p := r.inflight.At(slot)
	if p == nil || !p.voting {
		return p, false
	}
	p.voting = false
	r.voting--
	r.retx.Cancel(slot)
	return p, true
}

func (r *Replica) commit(slot uint64) {
	if p, open := r.closeTally(slot); open {
		r.ingress.Committed(r.ctx.Now() - p.proposedAt)
	}
	e := r.log.Get(slot)
	if e == nil || e.Committed {
		return
	}
	r.log.Commit(slot, r.ballot, e.Commands)
	r.stats.Commits++
	r.execute()
	// A committed slot frees pipeline window capacity: flush what queued.
	r.flushBatches()
}

// execute applies all contiguous committed batches and answers clients for
// commands this node proposed (route lists are position-aligned with each
// slot's batch).
func (r *Replica) execute() {
	r.log.ExecuteReady(r.store, r.apply)
	// Executed slots are done with their in-flight state. A tally still open
	// on one (the slot committed by a path other than its own quorum) stops
	// counting against the window with it.
	cur := r.log.ExecuteCursor()
	for s := r.inflight.Base(); s < min(cur, r.inflight.End()); s++ {
		if r.inflight.At(s).voting {
			r.voting--
		}
	}
	r.inflight.Advance(cur)
	r.maybeCompact()
	r.maybeSnapshot()
}

// apply executes the command at idx in slot's batch unless the session table
// says it executed already — every replica decides that identically, so a
// retry that reached the log twice is skipped everywhere — and answers its
// client if this node proposed it; a skipped one from the cache.
func (r *Replica) apply(slot uint64, idx int, cmd kvstore.Command) bool {
	var to ids.ID
	if p := r.inflight.At(slot); p != nil && idx < len(p.routes) {
		// A route recorded for another batch (an abandoned proposal) must
		// never carry this command's reply.
		if rt := p.routes[idx]; rt.clientID == cmd.ClientID && rt.seq == cmd.Seq {
			to = rt.client
		}
	}
	cached, fresh := r.sessions.Execute(cmd.ClientID, cmd.Seq)
	if !fresh {
		r.stats.Duplicates++
		if cached != nil && !to.IsZero() {
			r.ctx.Send(to, *cached)
		}
		return false
	}
	res := r.store.Apply(cmd)
	r.stats.Executions++
	r.execSinceCompact++
	r.execSinceSnap++
	r.ctx.Work(execWork)
	rep := wire.Reply{
		ClientID: cmd.ClientID, Seq: cmd.Seq, OK: true,
		Exists: res.Exists, Value: res.Value, Leader: r.cfg.ID, Slot: slot,
	}
	if cached != nil {
		*cached = rep
	}
	if !to.IsZero() {
		r.ctx.Send(to, rep)
	}
	return true
}

// applyWatermark commits every slot below w that this replica accepted
// under the same ballot as the watermark's sender — those values are
// necessarily the anchored ones. Entries from older ballots (or missing
// entirely, e.g. lost messages) are unsafe to commit blindly; if any keep
// the execution cursor below the watermark, the follower asks the leader to
// re-announce them (catch-up).
func (r *Replica) applyWatermark(w uint64, b ids.Ballot) {
	if b != r.heardBallot {
		r.heardBallot, r.heardCommit = b, 0
	}
	r.heardCommit = max(r.heardCommit, w)
	// Nothing exists at or above the proposal cursor, whatever w claims.
	for slot := r.log.ExecuteCursor(); slot < min(w, r.log.PeekNextSlot()); slot++ {
		e := r.log.Get(slot)
		if e == nil || e.Committed || e.Ballot != b {
			continue
		}
		r.log.Commit(slot, b, e.Commands)
		r.stats.Commits++
	}
	r.execute()
	r.requestCatchup(b.ID(), w)
}

// OnP3 handles an explicit commit announcement. An active leader receiving
// one for a slot it is still proposing into has been taught the anchored
// batch by a follower (see AcceptP2a): it abandons its doomed proposal and
// re-announces the anchored value so followers that accepted the doomed
// batch are overwritten. This path is defense-in-depth — phase-1 recovery
// reports committed slots, so a proposal into an anchored slot requires a
// leader lagging beyond a promiser's compaction horizon. (The re-announce
// is best-effort ordered against watermark carriers; the relay plane does
// not guarantee FIFO across paths.)
func (r *Replica) OnP3(m wire.P3) {
	// A newer leader deposes this one before anything else, or the
	// flushBatches below would propose under its ballot.
	r.heard(m.Ballot)
	if p, proposing := r.closeTally(m.Slot); proposing {
		r.reclaimDoomed(p, m.Slot, m.Cmds)
		if r.active {
			r.diss.FanOut(wire.P3{Ballot: r.ballot, Slot: m.Slot, Cmds: m.Cmds})
		}
	}
	r.log.Commit(m.Slot, m.Ballot, m.Cmds)
	r.stats.Commits++
	r.execute()
	r.flushBatches()
}

// reclaimDoomed salvages the commands of an abandoned proposal: everything
// not in the anchored batch goes back into the batch accumulator for a
// fresh slot, so those clients are served instead of waiting forever. The
// slot's routes are dropped — the anchored batch was not proposed by us.
func (r *Replica) reclaimDoomed(p *proposal, slot uint64, anchored []kvstore.Command) {
	e := r.log.Get(slot)
	rts := p.routes
	p.routes = nil
	if e == nil || e.Committed {
		return
	}
	for i, c := range e.Commands {
		if i >= len(rts) || rts[i].client.IsZero() || slices.ContainsFunc(anchored, func(a kvstore.Command) bool {
			return a.ClientID == c.ClientID && a.Seq == c.Seq
		}) {
			continue
		}
		r.ingress.Push(admission.Cmd{From: rts[i].client, Cmd: c, At: r.ctx.Now()})
	}
}
