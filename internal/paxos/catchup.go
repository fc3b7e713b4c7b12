package paxos

import (
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
)

const (
	// catchupRetry is how long a follower waits for an answer to a
	// CatchupReq before it asks again.
	catchupRetry = 100 * time.Millisecond
	// catchupBatch caps the entries in one CatchupReply.
	catchupBatch = 128
)

// requestCatchup asks leader for the committed slots from the execution
// cursor up to w, unless none are missing or the last request is unanswered
// and younger than catchupRetry — a time, not a timer a crash could lose.
func (r *Replica) requestCatchup(leader ids.ID, w uint64) {
	if r.log.ExecuteCursor() >= w || r.ctx.Now() < r.catchupDue {
		return
	}
	r.catchupDue = r.ctx.Now() + catchupRetry
	r.stats.Catchups++
	r.ctx.Send(leader, wire.CatchupReq{From: r.log.ExecuteCursor(), To: w})
}

// OnCatchupReq re-announces committed entries a lagging follower asked for.
// A request below the compaction floor cannot be served slot-by-slot — the
// entries are gone — so the follower gets a snapshot of live state instead.
func (r *Replica) OnCatchupReq(from ids.ID, m wire.CatchupReq) {
	if m.From < r.log.FirstSlot() {
		r.sendSnapshot(from)
		return
	}
	to := min(m.To, r.log.ExecuteCursor())
	reply := wire.CatchupReply{Ballot: r.ballot}
	for slot := m.From; slot < to && len(reply.Entries) < catchupBatch; slot++ {
		e := r.log.Get(slot)
		if e == nil || !e.Committed {
			continue // compacted or unknown; the follower will re-ask
		}
		reply.Entries = append(reply.Entries, wire.SlotEntry{Slot: slot, Ballot: e.Ballot, Committed: true, Cmds: e.Commands})
	}
	if len(reply.Entries) > 0 {
		r.ctx.Send(from, reply)
	}
}

// OnCatchupReply installs re-announced commits.
func (r *Replica) OnCatchupReply(m wire.CatchupReply) {
	r.catchupDue = 0
	r.recoverEntries(m.Entries)
	r.execute()
}

// catchupToFloor pulls the snapshot of the promiser whose compaction floor
// is above this new leader's execution cursor (asking below that floor gets a
// SnapInstall), until it lands. Followers cure lag through the watermark
// path; a leader sends watermarks instead, so it drives its own catch-up.
func (r *Replica) catchupToFloor(target ids.ID, floor uint64) {
	if !r.active || r.log.ExecuteCursor() >= floor {
		return
	}
	r.stats.Catchups++
	r.ctx.Send(target, wire.CatchupReq{From: r.log.ExecuteCursor(), To: floor})
	r.ctx.After(150*time.Millisecond, func() { r.catchupToFloor(target, floor) })
}

// sendSnapshot ships live state to a peer behind the compaction floor, where
// the slots it lacks no longer exist one by one.
func (r *Replica) sendSnapshot(to ids.ID) {
	r.stats.SnapSends++
	r.ctx.Send(to, wire.SnapInstall{Ballot: r.ballot, Floor: r.log.ExecuteCursor(), Data: r.encodeSnapshot()})
}

// OnSnapInstall installs a snapshot shipped to a replica whose catch-up
// request (or proposal) fell below the sender's compaction floor. A blob that
// does not parse is dropped and counted before anything else in the message
// is believed: the replica is as it was.
func (r *Replica) OnSnapInstall(m wire.SnapInstall) {
	r.catchupDue = 0
	// Already caught up past the snapshot: nothing to gain, nothing to parse.
	stale := m.Floor <= r.log.ExecuteCursor()
	var ballot ids.Ballot
	if !stale {
		var err error
		if ballot, err = r.restoreSnapshot(m.Data); err != nil {
			r.stats.SnapRejects++
			return
		}
	}
	r.heard(m.Ballot)
	if stale {
		return
	}
	r.ballot = max(r.ballot, ballot)
	r.log.InstallSnapshot(m.Floor)
	r.stats.SnapRestores++
	if r.st != nil {
		// Persist the installed snapshot as our own checkpoint, so a crash
		// once it has landed restarts from here; the journal prefix it
		// covers goes then. The message's blob is the journal's from now.
		r.saveSnapshot(wal.Snapshot{Floor: m.Floor, Data: m.Data})
		r.execSinceSnap = 0
	}
	r.execute()
}

// maybeCompact discards old executed log entries once enough executions
// accumulated, keeping CompactRetain slots for catch-up service.
func (r *Replica) maybeCompact() {
	if r.cfg.CompactEvery <= 0 || r.execSinceCompact < r.cfg.CompactEvery {
		return
	}
	r.execSinceCompact = 0
	cur := r.log.ExecuteCursor()
	if cur <= uint64(r.cfg.CompactRetain) {
		return
	}
	r.log.CompactTo(cur-uint64(r.cfg.CompactRetain), r.store)
	r.stats.Compactions++
}
