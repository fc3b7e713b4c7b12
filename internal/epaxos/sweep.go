package epaxos

import (
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/wire"
)

func (r *Replica) armSweep() {
	d := r.cfg.SweepInterval
	if r.lastSweep == 0 {
		// Phase-stagger the first tick by node number: replicas started at
		// the same instant would otherwise sweep — and fire their recovery
		// deadlines — in lockstep, so two replicas blocked on the same
		// instance would keep superseding each other's Prepare rounds.
		d += time.Duration(r.cfg.ID.Node()%16) * r.cfg.SweepInterval / 16
	}
	r.ctx.After(d, r.sweepTick)
}

func (r *Replica) sweepTick() {
	r.lastSweep = r.ctx.Now()
	r.sweep()
	r.armSweep()
}

// sweep is the periodic retransmit/recovery pass: it re-broadcasts the
// current phase message of every stalled driven instance (masking lost
// messages), downgrades stalled fast-path attempts to the slow path once a
// majority has replied (masking crashed fast-quorum members), and starts
// Explicit Prepare on instances execution has been blocked on for too long
// (masking crashed command leaders and lost commits). Both scans walk the
// rows' unexecuted ranges in (replica, slot) order, the same on every run,
// and look each cell up afresh: a commit or recovery inside the scan may
// move the ring.
func (r *Replica) sweep() {
	now := r.ctx.Now()
	// Adaptive stall threshold: at least RetryTimeout, but well above
	// the commit latency the cluster is currently delivering, so a
	// loaded-but-healthy quorum is never mistaken for loss.
	retryAfter := max(r.cfg.RetryTimeout, 3*r.commitEwma)
	for i := range r.rows {
		rw := &r.rows[i]
		for slot := rw.cursor(); slot < rw.win.End(); slot++ {
			if in := rw.win.At(slot); in != nil && in.phase() != phaseNone {
				r.retransmit(wire.InstRef{Replica: rw.id, Slot: slot}, in, now, retryAfter)
			}
		}
	}
	for i := range r.rows {
		rw := &r.rows[i]
		for slot := rw.cursor(); slot < rw.win.End(); slot++ {
			in := rw.win.At(slot)
			if in == nil || !in.block.on { // on only while uncommitted: commit stops the clock
				continue
			}
			// Recovery deadlines are tiered so a cluster that is blocked on
			// one instance does not recover it nine times over (every
			// concurrent Prepare supersedes every other — a ballot war
			// that commits nothing):
			//   - the owner itself, and anyone a row watermark proved the
			//     instance committed at its owner for (a plain fetch,
			//     nothing to steal), fire after one timeout;
			//   - otherwise, a chatty owner is alive and will finish the
			//     instance itself — everyone defers four timeouts;
			//   - for a silent owner, the lowest-ID replica this replica
			//     has recently heard from (itself included) is the
			//     designated recoverer at one timeout; the rest hang back
			//     four as its fallback.
			wait := r.cfg.RecoverTimeout
			switch {
			case in.block.committedElsewhere || rw.id == r.cfg.ID:
			case now-rw.heard < r.cfg.RecoverTimeout:
				wait = 4 * r.cfg.RecoverTimeout
			case r.recoveryDelegate(rw.id, now) != r.cfg.ID:
				wait = 4 * r.cfg.RecoverTimeout
			}
			if now-in.block.since < wait {
				continue
			}
			// Re-stamp so a superseded or stalled recovery retries with a
			// fresh (higher) ballot after another full timeout.
			in.block.since = now
			r.startRecovery(wire.InstRef{Replica: rw.id, Slot: slot})
		}
	}
	// Row-watermark gossip: periodically advertise the own-row commit
	// floor. Pure periodic re-sends are the anti-entropy loop's liveness —
	// a replica partitioned away through any number of marks catches up on
	// the first one it receives after healing — and the marks double as
	// liveness heartbeats: the first one delivered to a freshly recovered
	// replica resurrects its sweep chain (see OnMessage).
	if now-r.lastAdvertise >= r.cfg.RecoverTimeout {
		own := r.row(r.cfg.ID)
		r.ownFloor = max(r.ownFloor, own.floor())
		for {
			if in := own.win.At(r.ownFloor + 1); in == nil || in.status < statusCommitted {
				break
			}
			r.ownFloor++
		}
		r.lastAdvertise = now
		r.ctx.Broadcast(r.peers, wire.Heartbeat{From: r.cfg.ID, Commit: r.ownFloor})
	}
}

// retransmit re-sends a driven instance's current phase message if it has
// stalled for retryAfter.
func (r *Replica) retransmit(ref wire.InstRef, in *instance, now, retryAfter time.Duration) {
	if now-in.lastSend < retryAfter {
		return
	}
	if len(in.voters) > in.votesAtSend {
		// Votes arrived since the last send: the quorum is slow, not
		// lossy. Push the clock instead of retransmitting — blind
		// retransmission under overload amplifies the very queueing that
		// slowed the votes.
		in.votesAtSend = len(in.voters)
		in.lastSend = now
		return
	}
	r.stats.Retransmits++
	if in.phase() == phasePreAccept && ref.Replica == r.cfg.ID && in.drive == defaultBallot(ref) &&
		len(in.voters) >= r.slowQ {
		// A majority replied but the fast quorum is not forming (crashed
		// peers): downgrade to the slow path instead of stalling.
		r.stats.SlowPath++
		r.startAccept(ref, in, in.mergedSeq, in.mergedDeps)
		return
	}
	r.broadcastPhase(ref, in)
}

// onRowMark processes a peer's row watermark (carried in a Heartbeat: From
// is the row owner, Commit its own-row commit floor — every advertised
// slot is committed at the owner). Slots at or below the watermark that
// this replica has not committed start the recovery clock: Explicit
// Prepare will fetch them from the quorum. The row's synced prefix caps the
// rescan, so steady-state marks cost nothing.
func (r *Replica) onRowMark(m wire.Heartbeat) {
	if m.From == r.cfg.ID || !r.holds(wire.InstRef{Replica: m.From, Slot: m.Commit}) {
		return
	}
	rw := r.row(m.From)
	base := max(rw.synced, rw.floor())
	if m.Commit <= base {
		return
	}
	synced := base
	contig := true
	for slot := base + 1; slot <= m.Commit; slot++ {
		if in := rw.win.At(slot); in != nil && in.status >= statusCommitted {
			if contig {
				synced = slot
			}
			continue
		}
		contig = false
		// The watermark proves the instance committed at its owner: its
		// recovery is a plain fetch (see sweep).
		if c := r.cell(wire.InstRef{Replica: m.From, Slot: slot}); c != nil {
			c.noteBlocked(r.ctx.Now())
			c.block.committedElsewhere = true
		}
	}
	rw.synced = synced
}

// blockState is an instance's recovery clock: whether it runs, when the
// instance first blocked execution, and whether a row watermark proved it
// committed at its owner (in which case recovery is a plain fetch with no
// takeover race, and the chatty-owner grace period does not apply).
type blockState struct {
	on                 bool
	since              time.Duration
	committedElsewhere bool
}

// noteBlocked starts the instance's recovery clock if it is not running.
func (in *instance) noteBlocked(now time.Duration) {
	if !in.block.on {
		in.block = blockState{on: true, since: now}
	}
}

// recoveryDelegate is the replica expected to run Explicit Prepare for a
// dead owner's instances: the lowest-ID replica this replica believes
// alive (heard within two timeouts, or itself), the owner excluded. Views
// of liveness coincide closely enough that at most one or two replicas
// elect themselves, instead of the whole cluster superseding one another.
func (r *Replica) recoveryDelegate(owner ids.ID, now time.Duration) ids.ID {
	best := r.cfg.ID
	for i := range r.rows {
		rw := &r.rows[i]
		if rw.id == owner || rw.id >= best {
			continue
		}
		if now-rw.heard < 2*r.cfg.RecoverTimeout {
			best = rw.id
		}
	}
	return best
}
