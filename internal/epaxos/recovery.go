package epaxos

import (
	"slices"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

// prepInfo is one PrepareReply's knowledge of an instance.
type prepInfo struct {
	from   ids.ID
	status uint8
	vbal   ids.Ballot
	cmd    kvstore.Command
	seq    uint64
	deps   []wire.InstRef
}

// startRecovery takes over an instance whose driver is suspected dead: bid
// a ballot above everything seen and gather a majority's knowledge.
func (r *Replica) startRecovery(ref wire.InstRef) {
	in := r.inst(ref, nil)
	if in == nil || in.status >= statusCommitted || in.preparing {
		return
	}
	r.stats.Recoveries++
	b := in.bal.Next(r.cfg.ID)
	in.bal = b
	in.drive = b
	in.preparing = true
	// This replica's own knowledge is the first reply.
	in.prep = append(in.prep[:0], prepInfo{from: r.cfg.ID, status: wireStatus[in.status], vbal: in.vbal,
		cmd: in.cmd, seq: in.seq, deps: append([]wire.InstRef(nil), in.deps...)})
	r.startRound(ref, in)
}

func (r *Replica) onPrepare(from ids.ID, m wire.Prepare) {
	r.stats.Prepares++
	in := r.inst(m.Inst, nil)
	if in == nil {
		// Out of bounds, or collected: the command executed here and is
		// gone. Saying "none" would invite a no-op over it.
		return
	}
	if m.Ballot < in.bal {
		r.ctx.Send(from, wire.PrepareReply{Inst: m.Inst, From: r.cfg.ID, OK: false, Ballot: in.bal})
		return
	}
	r.promote(in, m.Ballot)
	r.ctx.Send(from, wire.PrepareReply{Inst: m.Inst, From: r.cfg.ID, OK: true, Ballot: m.Ballot,
		Status: wireStatus[in.status], VBallot: in.vbal, Cmd: in.cmd, Seq: in.seq, Deps: in.deps})
}

func (r *Replica) onPrepareReply(m wire.PrepareReply) {
	in := r.tally(m.Inst, m.Deps, phasePrepare, m.OK, m.Ballot, m.From)
	if in == nil {
		return
	}
	if m.Status == wire.InstCommitted {
		// Someone has the commit: adopt it and teach everyone
		// (commitInstance re-broadcasts).
		in.cmd, in.seq, in.deps = m.Cmd, m.Seq, m.Deps
		r.commitInstance(m.Inst, in)
		return
	}
	in.prep = append(in.prep, prepInfo{from: m.From, status: m.Status, vbal: m.VBallot, cmd: m.Cmd, seq: m.Seq, deps: m.Deps})
	if len(in.voters) >= r.slowQ {
		r.decideRecovery(m.Inst, in)
	}
}

// decideRecovery finishes a prepared instance from what the quorum
// reported. The case analysis is the simple-fast-quorum (N−1) Explicit
// Prepare rule set:
//
//  1. an accepted value (highest accept ballot) re-runs the Accept round —
//     classic Paxos;
//  2. the owner's own pre-accept means no fast-path commit exists (the
//     owner would have reported it, and our Prepare just superseded it),
//     so its command safely re-runs phase 1;
//  3. two or more identical default-ballot pre-accepts (owner excluded)
//     may have fast-committed and are defended — with the N−1 fast
//     quorum, a commit shows at least majority−1 ≥ 2 identical copies in
//     every all-non-owner Prepare majority, while any competing attribute
//     set shows at most one;
//  4. any other pre-accepted command re-runs phase 1 at the recovery
//     ballot (slow path only — a fast commit is impossible below the
//     bound, so fresh attributes are safe);
//  5. an instance nobody knows is anchored as a no-op so dependents can
//     execute.
func (r *Replica) decideRecovery(ref wire.InstRef, in *instance) {
	in.preparing = false
	prep := in.prep
	in.prep = nil

	var acc *prepInfo
	for i := range prep {
		p := &prep[i]
		if p.status == wire.InstAccepted && (acc == nil || p.vbal > acc.vbal) {
			acc = p
		}
	}
	if acc != nil {
		in.cmd = acc.cmd
		r.startAccept(ref, in, acc.seq, acc.deps)
		return
	}

	def := defaultBallot(ref)
	var owner, anyPre *prepInfo
	var defPre []*prepInfo
	for i := range prep {
		p := &prep[i]
		if p.status != wire.InstPreAccepted {
			continue
		}
		if anyPre == nil {
			anyPre = p
		}
		if p.from == ref.Replica {
			owner = p
		} else if p.vbal == def {
			defPre = append(defPre, p)
		}
	}
	if owner != nil {
		// The initial command leader itself answered with a pre-accept: it
		// has not committed (it would have reported the commit) and our
		// Prepare superseded it, so no fast-path commit can exist. Its
		// command re-runs phase 1 rather than being re-accepted at its old
		// attributes: a quorum re-merge restores dependency edges to
		// interfering commands that committed while this instance idled —
		// committing stale attributes would break the pairwise-connection
		// invariant the execution order relies on.
		r.restartPreAccept(ref, in, owner.cmd, owner.seq, owner.deps)
		return
	}
	if len(defPre) > 0 {
		// Largest group of identical (seq, deps) attributes, first seen
		// wins ties — reply arrival order is deterministic. The defend
		// threshold is 2: with the N−1 fast quorum, a fast-path commit
		// leaves all but one non-owner replica holding its attributes, so
		// any all-non-owner Prepare majority (the owner case returned
		// above) sees at least majority−1 ≥ 2 identical copies of a
		// committed attribute set — and at most one copy of anything else,
		// so a group of two can never be the wrong set.
		var best *prepInfo
		bestN := 0
		for i, p := range defPre {
			n := 1
			for _, q := range defPre[i+1:] {
				if q.seq == p.seq && depsEqual(q.deps, p.deps) {
					n++
				}
			}
			if n > bestN {
				best, bestN = p, n
			}
		}
		if bestN >= 2 {
			in.cmd = best.cmd
			r.startAccept(ref, in, best.seq, best.deps)
			return
		}
	}
	if anyPre != nil {
		r.restartPreAccept(ref, in, anyPre.cmd, anyPre.seq, anyPre.deps)
		return
	}
	// Nobody knows the command: anchor a no-op (through the Accept round,
	// so a competing driver cannot commit something else underneath it).
	in.cmd = kvstore.Command{}
	r.startAccept(ref, in, 0, nil)
}

// restartPreAccept re-runs phase 1 for a recovered command at the recovery
// ballot: fresh attributes merged with what the Prepare quorum reported,
// slow path only.
func (r *Replica) restartPreAccept(ref wire.InstRef, in *instance, cmd kvstore.Command, seq0 uint64, deps0 []wire.InstRef) {
	r.ctx.Work(attrWork + r.scanCost())
	seq, deps := r.attributes(cmd, ref)
	seq = max(seq, seq0)
	deps = mergeDeps(deps, deps0)
	deps = r.capSelfRow(deps, ref, cmd)
	slices.SortFunc(deps, compareRefs)
	in.cmd, in.seq, in.deps = cmd, seq, deps
	in.status = statusPreAccepted
	in.vbal = in.drive
	in.mergedSeq = seq
	in.mergedDeps = append(in.mergedDeps[:0], deps...)
	r.recordInterference(ref, cmd, seq)
	r.startRound(ref, in)
}
