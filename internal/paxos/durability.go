package paxos

import (
	"fmt"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wal"
)

// This file wires the replica to its wal.Storage. Every entry point is a
// no-op when cfg.Storage is nil, so the volatile default keeps the exact
// event sequence of the seed.
//
// The sync discipline follows the classical acceptor rule — state must be
// durable before the message that reveals it leaves:
//
//   - a promise (P1b, and a campaigner's promise to itself) waits for the
//     KindPromise record journalPromise appended;
//   - an accept vote (P2b, a relay's own ack, and the leader's self-vote)
//     waits for the KindAccept record the rlog journaled;
//   - commits are journaled but never waited for — a lost commit record is
//     re-learned from a quorum during phase-1, so it never forges anything.
//
// Durability is a pipeline stage, not a pause: the vote waits, the event
// loop does not. A handler changes the replica's memory at once, appends its
// record, sends whatever reveals nothing (the leader's P2a and P1a fan-out, a
// relay's forward to its group) and parks the vote with WhenDurable. At most
// one flush is in flight; votes parked while it runs ride the next one, so
// group commit widens by itself under load — the leader batches commands
// into slots, a flush covers every slot appended since the last. When a
// flush is over its votes are released on the loop, in the order they were
// parked. Because flushes cover prefixes of the journal, what survives a
// crash is always a prefix of the replica's state changes that contains
// everything any released message revealed, which is all Paxos asks of an
// acceptor's disk. A vote released late is still true: the accept it reports
// happened before whatever the replica promised since.
//
// A snapshot is a stage of the same pipeline. The loop captures it — one
// pass over the store's kept key order into a buffer of the exact size — and
// hands it to the journal, which saves it as a disk job of the next flush,
// after that flush's records; with no flush in flight one starts for it at
// once. Nothing waits for it but compaction: the log and the journal are cut
// to its floor when the flush carrying it lands, never before, so a crash in
// between reboots from the previous snapshot and a journal that still holds
// every record above that one's floor.

// Release is what a parked vote does once the flush covering its record is
// over: the handler it was parked with, called with the values it was parked
// with. Handlers are bound once per replica, so parking a vote allocates
// nothing.
type Release func(slot uint64, b ids.Ballot, peer ids.ID)

// waiter is one parked vote.
type waiter struct {
	fn   Release
	slot uint64
	b    ids.Ballot
	peer ids.ID
}

// flusher is the replica's end of the durability pipeline.
type flusher struct {
	riding   []waiter // parked before the flush in flight began: it covers them
	next     []waiter // parked since; they ride the next flush
	flying   bool
	draining bool // releasing riders; the next flush starts when they are out
	// snapshot: a captured snapshot waits for the next flush;
	// snapFlying: the flush in flight carries one.
	snapshot, snapFlying bool
	// A modelled flush (async false from StartFlush) is over at due, when
	// timer fires; due is negative while a storage runs the flush itself.
	due   time.Duration
	timer node.Timer
	// wake and landed are bound once: wake is what the storage's own
	// goroutine calls, and all it does is post landed to the event loop.
	wake, landed func()
}

func (r *Replica) initFlusher() {
	r.flush.landed = r.flushLanded
	r.flush.wake = func() { r.ctx.After(0, r.flush.landed) }
	r.voteDurable = r.sendP2b
	r.selfVoteDurable = r.selfVote
	r.promiseDurable = r.sendP1b
	r.selfPromiseDurable = r.selfPromise
}

// WhenDurable runs fn(slot, b, peer) once every record journaled so far is
// durable: now on a volatile replica or when the journal has nothing
// unflushed, otherwise when the flush that covers them is over.
func (r *Replica) WhenDurable(fn Release, slot uint64, b ids.Ballot, peer ids.ID) {
	if r.st == nil {
		fn(slot, b, peer)
		return
	}
	f := &r.flush
	r.landOverdue()
	f.next = append(f.next, waiter{fn, slot, b, peer})
	if !f.draining {
		r.pump()
	}
}

// landOverdue ends a modelled flush whose completion came due while the
// node was crashed: the simulator drops such a timer, but the flush was over
// at due all the same. A node that comes back with its memory (chaos.Crash,
// not Reboot) would otherwise hold its votes for good: harness
// TestScenarioRollingCrashMidFlightKeepsVoting.
func (r *Replica) landOverdue() {
	if f := &r.flush; f.flying && f.due >= 0 && r.ctx.Now() > f.due {
		r.landEarly()
	}
}

// pump starts a flush for the votes parked so far and the snapshot captured
// since the last one, unless a flush is in flight.
func (r *Replica) pump() {
	f := &r.flush
	for !f.flying && (len(f.next) > 0 || f.snapshot) {
		f.riding, f.next = f.next, f.riding
		f.snapFlying, f.snapshot = f.snapshot, false
		started, async := r.st.StartFlush(f.wake)
		if !started {
			// Nothing was journaled or saved since the last flush ended:
			// what these votes reveal is durable already. (A failed storage
			// starts nothing either; landing says so.)
			r.land()
			continue
		}
		r.stats.WALSyncs++
		f.flying, f.due = true, -1
		if !async {
			cost := r.st.SyncCost()
			f.due = r.ctx.Now() + cost
			f.timer = r.ctx.After(cost, f.landed)
		}
	}
}

// flushLanded runs on the event loop when the flush in flight is over.
func (r *Replica) flushLanded() {
	if r.flush.flying {
		r.land()
		r.pump()
	}
}

// landEarly ends the flight ahead of its completion callback, which must not
// run later and end a newer flight instead.
func (r *Replica) landEarly() {
	if f := &r.flush; f.flying {
		if f.due >= 0 {
			f.timer.Stop()
		}
		r.flushLanded()
	}
}

// land ends the flight, if any, compacts to the snapshot it saved and lets
// the votes it covered go, oldest first. What they do may park new votes;
// those wait in next. A flush that failed stops the replica: its votes must
// never leave.
func (r *Replica) land() {
	f := &r.flush
	if err := r.st.FinishFlush(); err != nil {
		panic(fmt.Sprintf("paxos %v: journal flush: %v", r.cfg.ID, err))
	}
	f.flying, f.draining = false, true
	if f.snapFlying {
		f.snapFlying = false
		if snap, ok := r.st.Snapshot(); ok {
			r.log.CompactTo(snap.Floor, r.store)
			r.st.CompactTo(snap.Floor)
		}
	}
	for _, w := range f.riding {
		w.fn(w.slot, w.b, w.peer)
	}
	f.riding = f.riding[:0]
	f.draining = false
}

// recoverFromStorage rebuilds replica state from snapshot + journal tail at
// construction time. Ordering matters: the snapshot positions the log floor,
// replay fills the tail above it, and only then is the journal attached to
// the log (attaching earlier would re-journal the replayed records).
func (r *Replica) recoverFromStorage() {
	if snap, ok := r.st.Snapshot(); ok {
		ballot, err := r.restoreSnapshot(snap.Data)
		if err != nil {
			panic(fmt.Sprintf("paxos %v: unreadable local snapshot: %v", r.cfg.ID, err))
		}
		r.ballot = ballot
		r.log.InstallSnapshot(snap.Floor)
		r.stats.SnapRestores++
	}
	err := r.st.Replay(func(rec wal.Record) error {
		r.ballot = max(r.ballot, rec.Ballot)
		if rec.Kind == wal.KindPromise || rec.Slot < r.log.FirstSlot() {
			return nil // ballot already folded in; slot covered by snapshot
		}
		r.log.Redo(rec)
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("paxos %v: journal replay failed: %v", r.cfg.ID, err))
	}
	r.journalBallot = r.ballot
	r.log.Attach(r.st)
	// Re-apply the committed tail above the snapshot floor. Routes are empty,
	// so no replies go out; execWork is charged as honest recovery CPU.
	r.execute()
	if r.cfg.ReadMode == ReadLease {
		// The pre-crash replica may have promised the leader a lease; the
		// promise window is not journaled, so re-arm it conservatively. A
		// restarted follower must not elect itself inside a window the old
		// incarnation promised away.
		r.leasePromiseUntil = r.ctx.Now() + r.cfg.leaseDuration()
	}
}

// journalPromise appends a promise record for the current ballot unless the
// journal already holds the ballot (accept records carry theirs too, see
// noteJournaled). The promise itself must still wait: park it.
func (r *Replica) journalPromise() {
	if r.st == nil || r.ballot <= r.journalBallot {
		return
	}
	if err := r.st.Append(wal.Record{Kind: wal.KindPromise, Ballot: r.ballot}); err != nil {
		panic(fmt.Sprintf("paxos %v: journal promise: %v", r.cfg.ID, err))
	}
	r.journalBallot = r.ballot
}

// noteJournaled records that an accept under b went into the journal.
func (r *Replica) noteJournaled(b ids.Ballot) { r.journalBallot = max(r.journalBallot, b) }

// maybeSnapshot checkpoints the state machine every SnapshotEvery local
// executions; the in-memory log and the journal are compacted to its floor
// once it lands — this is what bounds memory and disk over a long run, and
// what lets restart replay snapshot + tail instead of the full history.
func (r *Replica) maybeSnapshot() {
	if r.st == nil || r.cfg.SnapshotEvery <= 0 || r.execSinceSnap < r.cfg.SnapshotEvery {
		return
	}
	r.execSinceSnap = 0
	r.saveSnapshot(wal.Snapshot{Floor: r.log.ExecuteCursor(), Data: r.encodeSnapshot()})
	r.stats.Snapshots++
}

// saveSnapshot hands snap to the journal to ride the next flush, starting
// one if none is in flight.
func (r *Replica) saveSnapshot(snap wal.Snapshot) {
	if err := r.st.SaveSnapshot(snap); err != nil {
		panic(fmt.Sprintf("paxos %v: save snapshot: %v", r.cfg.ID, err))
	}
	f := &r.flush
	r.landOverdue()
	f.snapshot = true
	if !f.draining {
		r.pump()
	}
}

// FlushJournal is "flush and wait" for shutdown: it blocks the event loop
// until everything journaled is durable, then lets every parked vote go.
func (r *Replica) FlushJournal() error {
	if r.st == nil {
		return nil
	}
	if _, err := r.st.Sync(); err != nil {
		return err
	}
	r.landEarly()
	return nil
}
