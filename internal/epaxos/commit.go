package epaxos

import (
	"slices"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/sessions"
	"pigpaxos/internal/slots"
	"pigpaxos/internal/wire"
)

// phase is the round a replica drives for an instance, named by the message
// the round sends.
type phase uint8

const (
	phaseNone phase = iota // not driven here
	phasePrepare
	phasePreAccept
	phaseAccept
)

// phase returns the round this replica drives for the instance: Prepare while
// it gathers a recovery quorum, else PreAccept or Accept by status.
func (in *instance) phase() phase {
	switch {
	case in.drive.IsZero():
		return phaseNone
	case in.preparing:
		return phasePrepare
	case in.status == statusPreAccepted:
		return phasePreAccept
	case in.status == statusAccepted:
		return phaseAccept
	}
	return phaseNone
}

// startRound opens a new round of the instance's current phase: no vote
// counted yet, and the phase message out. On a single-node cluster this
// replica is the whole quorum, so the round ends at once.
func (r *Replica) startRound(ref wire.InstRef, in *instance) {
	in.voters = in.voters[:0]
	r.broadcastPhase(ref, in)
	if r.slowQ > 0 {
		return
	}
	if in.preparing {
		r.decideRecovery(ref, in)
	} else {
		r.commitInstance(ref, in)
	}
}

// broadcastPhase sends the instance's current phase message, built from its
// state, and restarts the round's stall clock (see retransmit). A round's
// first send and every retransmit of it go out here.
func (r *Replica) broadcastPhase(ref wire.InstRef, in *instance) {
	in.lastSend = r.ctx.Now()
	in.votesAtSend = len(in.voters)
	switch in.phase() {
	case phasePrepare:
		r.ctx.Broadcast(r.peers, wire.Prepare{Ballot: in.drive, Inst: ref})
	case phasePreAccept:
		r.ctx.Broadcast(r.peers, wire.PreAccept{Ballot: in.drive, Inst: ref, Cmd: in.cmd, Seq: in.seq, Deps: in.deps})
	case phaseAccept:
		r.ctx.Broadcast(r.peers, wire.Accept{Ballot: in.drive, Inst: ref, Cmd: in.cmd, Seq: in.seq, Deps: in.deps})
	}
}

// vote records a distinct phase reply from id; it reports false for a
// duplicate (retransmitted or link-duplicated replies must not be counted
// twice toward a quorum).
func (in *instance) vote(id ids.ID) bool {
	if slices.Contains(in.voters, id) {
		return false
	}
	in.voters = append(in.voters, id)
	return true
}

// tally is the prologue of every phase reply: it returns the instance the
// reply counts toward, or nil when it counts for nothing — the instance is
// not in round p here, the reply is out of bounds, it is a refusal, or it
// answers another round or repeats a voter. A refusal carries the ballot
// that blocked the round: above the round this replica drives, a higher
// ballot owns the instance now, and its driver will finish it (or the
// recovery sweep retakes it later).
func (r *Replica) tally(ref wire.InstRef, deps []wire.InstRef, p phase, ok bool, b ids.Ballot, from ids.ID) *instance {
	in := r.lookup(ref)
	if in == nil || in.phase() != p || !r.bounded(ref, deps) {
		return nil
	}
	if !ok {
		r.promote(in, b)
		return nil
	}
	if b != in.drive || !in.vote(from) {
		return nil
	}
	return in
}

// promote records ballot b for the instance if it is the highest seen. A
// higher ballot owns the instance, so this replica stops driving it: late
// replies to its old rounds no longer count, and it cannot commit behind
// the new driver's back.
func (r *Replica) promote(in *instance, b ids.Ballot) {
	if b > in.bal {
		in.bal = b
		r.stopDriving(in)
	}
}

// stopDriving abandons this replica's phases for the instance (superseded
// by a higher ballot, or the instance committed). The client route, if any,
// survives: whoever finishes the instance makes it execute here too, and
// execution answers the client. An abandoned still-uncommitted instance
// goes onto the recovery clock — the superseder normally finishes it, but
// if that recovery dies too (ballot races), this replica takes the
// instance back instead of orphaning it.
func (r *Replica) stopDriving(in *instance) {
	if in.drive.IsZero() {
		return
	}
	in.drive = 0
	in.preparing = false
	in.prep = nil
	if in.status < statusCommitted {
		in.noteBlocked(r.ctx.Now())
	}
}

// uncommitted returns ref's instance for a driver's PreAccept or Accept
// naming it and deps, opening it if new, or nil when the message is out of
// bounds or the instance already committed here. In the last case the
// sender missed the commit (a lost message or a stale retransmit), so it is
// taught the Commit back instead of getting a vote.
func (r *Replica) uncommitted(from ids.ID, ref wire.InstRef, deps []wire.InstRef) *instance {
	in := r.inst(ref, deps)
	if in != nil && in.status >= statusCommitted {
		r.stats.Teachbacks++
		r.ctx.Send(from, wire.Commit{Inst: ref, Cmd: in.cmd, Seq: in.seq, Deps: in.deps})
		return nil
	}
	return in
}

func (r *Replica) onRequest(from ids.ID, m wire.Request) {
	switch v, cached := r.sessions.Admit(m.Cmd.ClientID, m.Cmd.Seq); v {
	case sessions.Executed, sessions.Stale:
		// Already executed here: answer from the session cache.
		r.stats.Duplicates++
		if cached != nil {
			r.ctx.Send(from, *cached)
		}
		return
	case sessions.Pending:
		// A retry of the command this replica is leading for the client:
		// refresh the reply route instead of opening a second instance.
		if in := r.lookup(r.pendingRef[m.Cmd.ClientID]); in != nil && in.status < statusExecuted &&
			in.cmd.ClientID == m.Cmd.ClientID && in.cmd.Seq == m.Cmd.Seq {
			in.client = from
			in.hasClient = true
			r.stats.Duplicates++
			return
		}
	}
	ref := wire.InstRef{Replica: r.cfg.ID, Slot: r.nextOwn}
	if ref.Slot-r.row(r.cfg.ID).floor() >= slots.MaxAhead {
		return // the own row is MaxAhead deep in unexecuted instances: the client retries
	}
	r.stats.Requests++
	r.ctx.Work(attrWork + r.scanCost())
	r.nextOwn++
	seq, deps := r.attributes(m.Cmd, ref)
	in := r.inst(ref, nil)
	in.cmd, in.seq, in.deps = m.Cmd, seq, deps
	in.status = statusPreAccepted
	in.drive = defaultBallot(ref) // inst opened it at this ballot: bal and vbal hold it
	in.client = from
	in.hasClient = true
	in.mergedSeq = seq
	in.mergedDeps = append([]wire.InstRef(nil), deps...)
	in.opened = r.ctx.Now()
	r.recordInterference(ref, m.Cmd, seq)
	if m.Cmd.ClientID != 0 {
		r.sessions.MarkAdmitted(m.Cmd.ClientID, m.Cmd.Seq)
		r.pendingRef[m.Cmd.ClientID] = ref
	}
	r.startRound(ref, in)
}

func (r *Replica) onPreAccept(from ids.ID, m wire.PreAccept) {
	in := r.uncommitted(from, m.Inst, m.Deps)
	if in == nil {
		return
	}
	if m.Ballot < in.bal || (m.Ballot == in.bal && in.status > statusPreAccepted) {
		// Stale ballot, or a reordered retransmit arriving after this
		// replica advanced to Accept at the same ballot: refuse, carrying
		// the ballot that blocked it.
		r.ctx.Send(from, wire.PreAcceptReply{Inst: m.Inst, From: r.cfg.ID, OK: false, Ballot: in.bal})
		return
	}
	r.ctx.Work(attrWork + r.scanCost() + time.Duration(len(m.Deps))*depWork)
	r.promote(in, m.Ballot)
	seq, deps := r.attributes(m.Cmd, m.Inst)
	merged := mergeDeps(append([]wire.InstRef(nil), m.Deps...), deps)
	merged = r.capSelfRow(merged, m.Inst, m.Cmd)
	changed := seq > m.Seq || !depsEqual(merged, m.Deps)
	seq = max(seq, m.Seq)
	in.cmd, in.seq, in.deps = m.Cmd, seq, merged
	in.status = statusPreAccepted
	in.vbal = m.Ballot
	r.recordInterference(m.Inst, m.Cmd, seq)
	r.ctx.Send(from, wire.PreAcceptReply{Inst: m.Inst, From: r.cfg.ID, OK: true, Ballot: m.Ballot,
		Seq: seq, Deps: merged, Changed: changed})
}

func (r *Replica) onPreAcceptReply(m wire.PreAcceptReply) {
	in := r.tally(m.Inst, m.Deps, phasePreAccept, m.OK, m.Ballot, m.From)
	if in == nil {
		return
	}
	r.ctx.Work(attrWork + time.Duration(len(m.Deps))*depWork)
	in.changed = in.changed || m.Changed
	in.mergedSeq = max(in.mergedSeq, m.Seq)
	in.mergedDeps = mergeDeps(in.mergedDeps, m.Deps)
	if m.Inst.Replica == r.cfg.ID && in.drive == defaultBallot(m.Inst) {
		// Original command leader: the fast path needs the full fast
		// quorum.
		if len(in.voters) < r.fastQ {
			return
		}
		if !in.changed {
			// Fast path: every fast-quorum member agreed with our
			// attributes.
			r.stats.FastPath++
			r.commitInstance(m.Inst, in)
			return
		}
		r.stats.SlowPath++
		r.startAccept(m.Inst, in, in.mergedSeq, in.mergedDeps)
		return
	}
	// Recovery re-run of phase 1: no fast path at a non-default ballot —
	// a majority of pre-accepts goes straight to the Accept round.
	if len(in.voters) >= r.slowQ {
		r.startAccept(m.Inst, in, in.mergedSeq, in.mergedDeps)
	}
}

// startAccept fixes (cmd, seq, deps) with a majority Accept round at the
// instance's drive ballot.
func (r *Replica) startAccept(ref wire.InstRef, in *instance, seq uint64, deps []wire.InstRef) {
	in.status = statusAccepted
	in.seq, in.deps = seq, deps
	in.vbal = in.drive
	r.startRound(ref, in)
}

func (r *Replica) onAccept(from ids.ID, m wire.Accept) {
	in := r.uncommitted(from, m.Inst, m.Deps)
	if in == nil {
		return
	}
	if m.Ballot < in.bal {
		r.ctx.Send(from, wire.AcceptReply{Inst: m.Inst, From: r.cfg.ID, OK: false, Ballot: in.bal})
		return
	}
	r.promote(in, m.Ballot)
	in.cmd, in.seq, in.deps = m.Cmd, m.Seq, m.Deps
	in.status = statusAccepted
	in.vbal = m.Ballot
	if !m.Cmd.Empty() {
		r.recordInterference(m.Inst, m.Cmd, m.Seq)
	}
	r.ctx.Send(from, wire.AcceptReply{Inst: m.Inst, From: r.cfg.ID, OK: true, Ballot: m.Ballot})
}

func (r *Replica) onAcceptReply(m wire.AcceptReply) {
	if in := r.tally(m.Inst, nil, phaseAccept, m.OK, m.Ballot, m.From); in != nil && len(in.voters) >= r.slowQ {
		r.commitInstance(m.Inst, in)
	}
}

// commitInstance commits the instance this replica drives with its current
// attributes, teaches the cluster, and runs execution; in is not valid
// afterwards.
func (r *Replica) commitInstance(ref wire.InstRef, in *instance) {
	if ref.Replica == r.cfg.ID && in.opened > 0 {
		sample := r.ctx.Now() - in.opened
		r.commitEwma += (sample - r.commitEwma) / 8
	}
	r.ctx.Broadcast(r.peers, wire.Commit{Inst: ref, Cmd: in.cmd, Seq: in.seq, Deps: in.deps})
	r.commit(ref, in)
}

func (r *Replica) onCommit(m wire.Commit) {
	r.ctx.Work(time.Duration(len(m.Deps)) * depWork)
	if in := r.inst(m.Inst, m.Deps); in != nil && in.status < statusCommitted {
		in.cmd, in.seq, in.deps = m.Cmd, m.Seq, m.Deps
		r.commit(m.Inst, in)
	}
}

// commit records in (ref's instance) committed with its current attributes
// and runs execution; in is not valid afterwards.
func (r *Replica) commit(ref wire.InstRef, in *instance) {
	in.status = statusCommitted
	r.stopDriving(in)
	in.block = blockState{}
	r.stats.Commits++
	if !in.cmd.Empty() {
		r.recordInterference(ref, in.cmd, in.seq)
	}
	r.tryExecuteAll()
}
