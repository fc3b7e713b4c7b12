package wire

import (
	"fmt"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
)

// ---------------------------------------------------------------- client --

// Request carries one client command to a replica.
type Request struct {
	Cmd kvstore.Command
}

// Type implements Msg.
func (Request) Type() Type { return TRequest }

// Size implements Msg.
func (m Request) Size() int { return szCmd(m.Cmd) }

func (m Request) append(b []byte) []byte { return putCmd(b, m.Cmd) }

// Reply answers a client Request. When OK is false the request was not
// served (e.g. the receiver is not the leader) and Leader hints where to
// retry.
type Reply struct {
	ClientID uint64
	Seq      uint64
	OK       bool
	Exists   bool
	Value    []byte
	Leader   ids.ID
	Slot     uint64 // log slot the command committed in (diagnostics)
}

// Type implements Msg.
func (Reply) Type() Type { return TReply }

// Size implements Msg.
func (m Reply) Size() int {
	return szU64 + szU64 + szBool + szBool + szBytes(m.Value) + szID + szU64
}

func (m Reply) append(b []byte) []byte {
	b = putU64(b, m.ClientID)
	b = putU64(b, m.Seq)
	b = putBool(b, m.OK)
	b = putBool(b, m.Exists)
	b = putBytes(b, m.Value)
	b = putU32(b, uint32(m.Leader))
	b = putU64(b, m.Slot)
	return b
}

// Busy rejects a client Request without queueing it: the leader's ingress
// queue is full, or its commit-latency EWMA crossed the overload threshold.
// Unlike a redirecting Reply, the sender IS the leader — the client should
// stay put and retry the same command after RetryAfter. The rejected
// sequence number is not consumed: the at-most-once session table still
// expects it, so a retry is re-admitted as if never seen.
type Busy struct {
	ClientID   uint64
	Seq        uint64
	Leader     ids.ID
	RetryAfter time.Duration
}

// Type implements Msg.
func (Busy) Type() Type { return TBusy }

// Size implements Msg.
func (Busy) Size() int { return szU64 + szU64 + szID + szU64 }

func (m Busy) append(b []byte) []byte {
	b = putU64(b, m.ClientID)
	b = putU64(b, m.Seq)
	b = putU32(b, uint32(m.Leader))
	return putU64(b, uint64(m.RetryAfter))
}

func init() {
	decoders[TBusy] = func(r *reader) Msg {
		return Busy{
			ClientID: r.u64(), Seq: r.u64(), Leader: r.id(),
			RetryAfter: time.Duration(r.u64()),
		}
	}
}

// ----------------------------------------------------------------- paxos --

// P1a is the phase-1 leadership bid ("lead with ballot b?"). From is the
// campaigner's execution cursor: promisers report every log entry at or
// above it — committed ones included — so a lagging winner learns anchored
// slots it never saw instead of proposing no-op fillers over them.
type P1a struct {
	Ballot ids.Ballot
	From   uint64
}

// Type implements Msg.
func (P1a) Type() Type { return TP1a }

// Size implements Msg.
func (P1a) Size() int { return szBallot + szU64 }

func (m P1a) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	return putU64(b, m.From)
}

// SlotEntry reports one known slot in a P1b or CatchupReply. Cmds is the
// slot's full command batch; Committed marks batches the sender knows are
// anchored (the receiver must install them as commits, not proposals).
type SlotEntry struct {
	Slot      uint64
	Ballot    ids.Ballot
	Committed bool
	Cmds      []kvstore.Command
}

func szSlotEntry(e SlotEntry) int { return szU64 + szBallot + szBool + szCmds(e.Cmds) }

func putSlotEntry(b []byte, e SlotEntry) []byte {
	b = putU64(b, e.Slot)
	b = putU64(b, uint64(e.Ballot))
	b = putBool(b, e.Committed)
	return putCmds(b, e.Cmds)
}

func (r *reader) slotEntry() SlotEntry {
	return SlotEntry{Slot: r.u64(), Ballot: r.ballot(), Committed: r.boolean(), Cmds: r.cmds()}
}

// P1b is a follower's phase-1 promise, carrying its uncommitted log suffix.
// Floor is the follower's log compaction floor (first resident slot): slots
// below it were committed, executed and checkpointed, so the follower can no
// longer report them — a campaigner behind the floor must install a snapshot
// instead of treating the silence as proposable gaps.
type P1b struct {
	Ballot  ids.Ballot // highest ballot the follower has seen
	From    ids.ID
	Floor   uint64
	Entries []SlotEntry
}

// Type implements Msg.
func (P1b) Type() Type { return TP1b }

// Size implements Msg.
func (m P1b) Size() int {
	n := szBallot + szID + szU64 + szU16
	for _, e := range m.Entries {
		n += szSlotEntry(e)
	}
	return n
}

func (m P1b) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	b = putU32(b, uint32(m.From))
	b = putU64(b, m.Floor)
	checkCount(len(m.Entries), "P1b entry list")
	b = putU16(b, uint16(len(m.Entries)))
	for _, e := range m.Entries {
		b = putSlotEntry(b, e)
	}
	return b
}

// P2a is the phase-2 accept request for one log slot. Cmds is the slot's
// command batch: the leader packs up to MaxBatchSize client commands into a
// single consensus instance, so the whole batch costs one fan-out round (a
// one-element batch is the degenerate unbatched case). Commit is the
// leader's execution watermark: every slot below it is committed (phase-3
// piggybacking per the Multi-Paxos optimization in the paper's Figure 2).
type P2a struct {
	Ballot ids.Ballot
	Slot   uint64
	Cmds   []kvstore.Command
	Commit uint64
}

// Type implements Msg.
func (P2a) Type() Type { return TP2a }

// Size implements Msg.
func (m P2a) Size() int { return szBallot + szU64 + szCmds(m.Cmds) + szU64 }

func (m P2a) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	b = putU64(b, m.Slot)
	b = putCmds(b, m.Cmds)
	b = putU64(b, m.Commit)
	return b
}

// P2b acknowledges (or, with a higher Ballot than sent, rejects) a P2a.
type P2b struct {
	Ballot ids.Ballot
	From   ids.ID
	Slot   uint64
}

// Type implements Msg.
func (P2b) Type() Type { return TP2b }

// Size implements Msg.
func (P2b) Size() int { return szBallot + szID + szU64 }

func (m P2b) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	b = putU32(b, uint32(m.From))
	b = putU64(b, m.Slot)
	return b
}

// P3 is an explicit phase-3 commit announcement, used when there is no
// follow-up P2a to piggyback on. It carries the slot's full command batch.
type P3 struct {
	Ballot ids.Ballot
	Slot   uint64
	Cmds   []kvstore.Command
}

// Type implements Msg.
func (P3) Type() Type { return TP3 }

// Size implements Msg.
func (m P3) Size() int { return szBallot + szU64 + szCmds(m.Cmds) }

func (m P3) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	b = putU64(b, m.Slot)
	return putCmds(b, m.Cmds)
}

// -------------------------------------------------------------- pigpaxos --

// RelayP1a asks a relay node to propagate a phase-1 bid to Peers (the rest
// of its relay group) and aggregate their P1b responses.
type RelayP1a struct {
	P1a   P1a
	Peers []ids.ID
}

// Type implements Msg.
func (RelayP1a) Type() Type { return TRelayP1a }

// Size implements Msg.
func (m RelayP1a) Size() int { return m.P1a.Size() + szIDs(m.Peers) }

func (m RelayP1a) append(b []byte) []byte {
	b = m.P1a.append(b)
	return putIDs(b, m.Peers)
}

// AggP1b aggregates a relay group's phase-1 promises into one message.
type AggP1b struct {
	Ballot  ids.Ballot
	Relay   ids.ID
	Replies []P1b
}

// Type implements Msg.
func (AggP1b) Type() Type { return TAggP1b }

// Size implements Msg.
func (m AggP1b) Size() int {
	n := szBallot + szID + szU16
	for _, p := range m.Replies {
		n += p.Size()
	}
	return n
}

func (m AggP1b) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	b = putU32(b, uint32(m.Relay))
	checkCount(len(m.Replies), "AggP1b reply list")
	b = putU16(b, uint16(len(m.Replies)))
	for _, p := range m.Replies {
		b = p.append(b)
	}
	return b
}

// RelayP2a asks a relay to propagate a P2a inside its group and aggregate
// the P2bs. Threshold is the partial-response count g_i after which the
// relay may reply early (§4.2); 0 means wait for the whole group (or the
// relay timeout). Timeout is the relay's collection deadline.
type RelayP2a struct {
	P2a       P2a
	Peers     []ids.ID
	Threshold uint16
	Timeout   time.Duration
}

// Type implements Msg.
func (RelayP2a) Type() Type { return TRelayP2a }

// Size implements Msg.
func (m RelayP2a) Size() int { return m.P2a.Size() + szIDs(m.Peers) + szU16 + szU64 }

func (m RelayP2a) append(b []byte) []byte {
	b = m.P2a.append(b)
	b = putIDs(b, m.Peers)
	b = putU16(b, m.Threshold)
	b = putU64(b, uint64(m.Timeout))
	return b
}

// AggP2b aggregates a relay group's P2b votes for one slot. Acks lists the
// group members (including the relay itself) that accepted; Partial marks a
// timeout- or threshold-truncated aggregation.
type AggP2b struct {
	Ballot  ids.Ballot
	Relay   ids.ID
	Slot    uint64
	Acks    []ids.ID
	Partial bool
}

// Type implements Msg.
func (AggP2b) Type() Type { return TAggP2b }

// Size implements Msg.
func (m AggP2b) Size() int { return szBallot + szID + szU64 + szIDs(m.Acks) + szBool }

func (m AggP2b) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	b = putU32(b, uint32(m.Relay))
	b = putU64(b, m.Slot)
	b = putIDs(b, m.Acks)
	b = putBool(b, m.Partial)
	return b
}

// RelayP3 propagates an explicit commit through a relay; no response flows
// back (commit is fan-out only, per the paper's Figure 4).
type RelayP3 struct {
	P3    P3
	Peers []ids.ID
}

// Type implements Msg.
func (RelayP3) Type() Type { return TRelayP3 }

// Size implements Msg.
func (m RelayP3) Size() int { return m.P3.Size() + szIDs(m.Peers) }

func (m RelayP3) append(b []byte) []byte {
	b = m.P3.append(b)
	return putIDs(b, m.Peers)
}

// ---------------------------------------------------------------- epaxos --

// InstRef names an EPaxos instance: the owning replica and its slot in that
// replica's instance row.
type InstRef struct {
	Replica ids.ID
	Slot    uint64
}

const szInstRef = szID + szU64

func putInstRef(b []byte, i InstRef) []byte {
	b = putU32(b, uint32(i.Replica))
	return putU64(b, i.Slot)
}

func (r *reader) instRef() InstRef { return InstRef{Replica: r.id(), Slot: r.u64()} }

func putInstRefs(b []byte, v []InstRef) []byte {
	checkCount(len(v), "instance-ref list")
	b = putU16(b, uint16(len(v)))
	for _, i := range v {
		b = putInstRef(b, i)
	}
	return b
}

func szInstRefs(v []InstRef) int { return szU16 + szInstRef*len(v) }

func (r *reader) instRefs() []InstRef {
	n := int(r.u16())
	if r.err != nil || r.off+szInstRef*n > len(r.b) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := carve(r, &r.s.refs, n)
	for i := range v {
		v[i] = r.instRef()
	}
	return v
}

// PreAccept opens an EPaxos instance with the command leader's initial
// attributes (sequence number and dependency set).
type PreAccept struct {
	Ballot ids.Ballot
	Inst   InstRef
	Cmd    kvstore.Command
	Seq    uint64
	Deps   []InstRef
}

// Type implements Msg.
func (PreAccept) Type() Type { return TPreAccept }

// Size implements Msg.
func (m PreAccept) Size() int {
	return szBallot + szInstRef + szCmd(m.Cmd) + szU64 + szInstRefs(m.Deps)
}

func (m PreAccept) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	b = putInstRef(b, m.Inst)
	b = putCmd(b, m.Cmd)
	b = putU64(b, m.Seq)
	return putInstRefs(b, m.Deps)
}

// PreAcceptReply returns a replica's (possibly updated) attributes for an
// instance. Changed reports whether the replica extended seq/deps, which
// forces the slow path.
type PreAcceptReply struct {
	Inst    InstRef
	From    ids.ID
	OK      bool
	Ballot  ids.Ballot
	Seq     uint64
	Deps    []InstRef
	Changed bool
}

// Type implements Msg.
func (PreAcceptReply) Type() Type { return TPreAcceptReply }

// Size implements Msg.
func (m PreAcceptReply) Size() int {
	return szInstRef + szID + szBool + szBallot + szU64 + szInstRefs(m.Deps) + szBool
}

func (m PreAcceptReply) append(b []byte) []byte {
	b = putInstRef(b, m.Inst)
	b = putU32(b, uint32(m.From))
	b = putBool(b, m.OK)
	b = putU64(b, uint64(m.Ballot))
	b = putU64(b, m.Seq)
	b = putInstRefs(b, m.Deps)
	return putBool(b, m.Changed)
}

// Accept runs the EPaxos slow path, fixing the final attributes.
type Accept struct {
	Ballot ids.Ballot
	Inst   InstRef
	Cmd    kvstore.Command
	Seq    uint64
	Deps   []InstRef
}

// Type implements Msg.
func (Accept) Type() Type { return TAccept }

// Size implements Msg.
func (m Accept) Size() int {
	return szBallot + szInstRef + szCmd(m.Cmd) + szU64 + szInstRefs(m.Deps)
}

func (m Accept) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	b = putInstRef(b, m.Inst)
	b = putCmd(b, m.Cmd)
	b = putU64(b, m.Seq)
	return putInstRefs(b, m.Deps)
}

// AcceptReply acknowledges an Accept.
type AcceptReply struct {
	Inst   InstRef
	From   ids.ID
	OK     bool
	Ballot ids.Ballot
}

// Type implements Msg.
func (AcceptReply) Type() Type { return TAcceptReply }

// Size implements Msg.
func (AcceptReply) Size() int { return szInstRef + szID + szBool + szBallot }

func (m AcceptReply) append(b []byte) []byte {
	b = putInstRef(b, m.Inst)
	b = putU32(b, uint32(m.From))
	b = putBool(b, m.OK)
	return putU64(b, uint64(m.Ballot))
}

// Commit finalizes an EPaxos instance with its committed attributes.
type Commit struct {
	Inst InstRef
	Cmd  kvstore.Command
	Seq  uint64
	Deps []InstRef
}

// Type implements Msg.
func (Commit) Type() Type { return TCommit }

// Size implements Msg.
func (m Commit) Size() int { return szInstRef + szCmd(m.Cmd) + szU64 + szInstRefs(m.Deps) }

func (m Commit) append(b []byte) []byte {
	b = putInstRef(b, m.Inst)
	b = putCmd(b, m.Cmd)
	b = putU64(b, m.Seq)
	return putInstRefs(b, m.Deps)
}

// Instance status values carried in PrepareReply: how far the replying
// replica's copy of the instance has progressed. The epaxos package maps
// them to its internal state machine; executed instances report committed
// (execution is local bookkeeping, not protocol state).
const (
	InstNone uint8 = iota
	InstPreAccepted
	InstAccepted
	InstCommitted
)

// Prepare opens Explicit Prepare recovery for an EPaxos instance whose
// command leader is suspected dead: the sender bids to finish the instance
// at Ballot, which must exceed every ballot the instance has seen.
type Prepare struct {
	Ballot ids.Ballot
	Inst   InstRef
}

// Type implements Msg.
func (Prepare) Type() Type { return TPrepare }

// Size implements Msg.
func (Prepare) Size() int { return szBallot + szInstRef }

func (m Prepare) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	return putInstRef(b, m.Inst)
}

// PrepareReply reports a replica's knowledge of an instance to a recovery
// leader. With OK true, Ballot echoes the Prepare ballot and Status/VBallot/
// Cmd/Seq/Deps describe the replica's copy (VBallot is the ballot the copy
// was pre-accepted or accepted at). With OK false, Ballot carries the higher
// ballot that blocked the bid.
type PrepareReply struct {
	Inst    InstRef
	From    ids.ID
	OK      bool
	Ballot  ids.Ballot
	Status  uint8
	VBallot ids.Ballot
	Cmd     kvstore.Command
	Seq     uint64
	Deps    []InstRef
}

// Type implements Msg.
func (PrepareReply) Type() Type { return TPrepareReply }

// Size implements Msg.
func (m PrepareReply) Size() int {
	return szInstRef + szID + szBool + szBallot + 1 + szBallot +
		szCmd(m.Cmd) + szU64 + szInstRefs(m.Deps)
}

func (m PrepareReply) append(b []byte) []byte {
	b = putInstRef(b, m.Inst)
	b = putU32(b, uint32(m.From))
	b = putBool(b, m.OK)
	b = putU64(b, uint64(m.Ballot))
	b = append(b, m.Status)
	b = putU64(b, uint64(m.VBallot))
	b = putCmd(b, m.Cmd)
	b = putU64(b, m.Seq)
	return putInstRefs(b, m.Deps)
}

// ------------------------------------------------------------------- pqr --

// QReadReq asks a replica for its local version of a key (Paxos Quorum
// Reads, §4.3). RID correlates the reply with the read round.
type QReadReq struct {
	Key uint64
	RID uint64
}

// Type implements Msg.
func (QReadReq) Type() Type { return TQReadReq }

// Size implements Msg.
func (QReadReq) Size() int { return szU64 + szU64 }

func (m QReadReq) append(b []byte) []byte {
	b = putU64(b, m.Key)
	return putU64(b, m.RID)
}

// QReadReply reports a replica's local value and write-version for a key.
type QReadReply struct {
	Key     uint64
	RID     uint64
	From    ids.ID
	Version uint64
	Exists  bool
	Value   []byte
}

// Type implements Msg.
func (QReadReply) Type() Type { return TQReadReply }

// Size implements Msg.
func (m QReadReply) Size() int {
	return szU64 + szU64 + szID + szU64 + szBool + szBytes(m.Value)
}

func (m QReadReply) append(b []byte) []byte {
	b = putU64(b, m.Key)
	b = putU64(b, m.RID)
	b = putU32(b, uint32(m.From))
	b = putU64(b, m.Version)
	b = putBool(b, m.Exists)
	return putBytes(b, m.Value)
}

// -------------------------------------------------------------------- fd --

// Heartbeat announces liveness (and the leader's commit watermark) for the
// failure detector.
type Heartbeat struct {
	Ballot ids.Ballot
	From   ids.ID
	Commit uint64
}

// Type implements Msg.
func (Heartbeat) Type() Type { return THeartbeat }

// Size implements Msg.
func (Heartbeat) Size() int { return szBallot + szID + szU64 }

func (m Heartbeat) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	b = putU32(b, uint32(m.From))
	return putU64(b, m.Commit)
}

// ---------------------------------------------------------------- decode --

func init() {
	decoders[TRequest] = func(r *reader) Msg {
		return Request{Cmd: r.cmd()}
	}
	decoders[TReply] = func(r *reader) Msg {
		return Reply{
			ClientID: r.u64(), Seq: r.u64(), OK: r.boolean(), Exists: r.boolean(),
			Value: r.bytes(), Leader: r.id(), Slot: r.u64(),
		}
	}
	decoders[TP1a] = func(r *reader) Msg {
		return P1a{Ballot: r.ballot(), From: r.u64()}
	}
	decoders[TP1b] = func(r *reader) Msg { return r.p1b() }
	decoders[TP2a] = func(r *reader) Msg {
		return P2a{Ballot: r.ballot(), Slot: r.u64(), Cmds: r.cmds(), Commit: r.u64()}
	}
	decoders[TP2b] = func(r *reader) Msg {
		return P2b{Ballot: r.ballot(), From: r.id(), Slot: r.u64()}
	}
	decoders[TP3] = func(r *reader) Msg {
		return P3{Ballot: r.ballot(), Slot: r.u64(), Cmds: r.cmds()}
	}
	decoders[TRelayP1a] = func(r *reader) Msg {
		return RelayP1a{P1a: P1a{Ballot: r.ballot(), From: r.u64()}, Peers: r.idSlice()}
	}
	decoders[TAggP1b] = func(r *reader) Msg {
		return AggP1b{Ballot: r.ballot(), Relay: r.id(), Replies: r.p1bs()}
	}
	decoders[TRelayP2a] = func(r *reader) Msg {
		return RelayP2a{
			P2a:       P2a{Ballot: r.ballot(), Slot: r.u64(), Cmds: r.cmds(), Commit: r.u64()},
			Peers:     r.idSlice(),
			Threshold: r.u16(),
			Timeout:   time.Duration(r.u64()),
		}
	}
	decoders[TAggP2b] = func(r *reader) Msg {
		return AggP2b{
			Ballot: r.ballot(), Relay: r.id(), Slot: r.u64(),
			Acks: r.idSlice(), Partial: r.boolean(),
		}
	}
	decoders[TRelayP3] = func(r *reader) Msg {
		return RelayP3{
			P3:    P3{Ballot: r.ballot(), Slot: r.u64(), Cmds: r.cmds()},
			Peers: r.idSlice(),
		}
	}
	decoders[TPreAccept] = func(r *reader) Msg {
		return PreAccept{
			Ballot: r.ballot(), Inst: r.instRef(), Cmd: r.cmd(),
			Seq: r.u64(), Deps: r.instRefs(),
		}
	}
	decoders[TPreAcceptReply] = func(r *reader) Msg {
		return PreAcceptReply{
			Inst: r.instRef(), From: r.id(), OK: r.boolean(), Ballot: r.ballot(),
			Seq: r.u64(), Deps: r.instRefs(), Changed: r.boolean(),
		}
	}
	decoders[TAccept] = func(r *reader) Msg {
		return Accept{
			Ballot: r.ballot(), Inst: r.instRef(), Cmd: r.cmd(),
			Seq: r.u64(), Deps: r.instRefs(),
		}
	}
	decoders[TAcceptReply] = func(r *reader) Msg {
		return AcceptReply{
			Inst: r.instRef(), From: r.id(), OK: r.boolean(), Ballot: r.ballot(),
		}
	}
	decoders[TCommit] = func(r *reader) Msg {
		return Commit{Inst: r.instRef(), Cmd: r.cmd(), Seq: r.u64(), Deps: r.instRefs()}
	}
	decoders[TPrepare] = func(r *reader) Msg {
		return Prepare{Ballot: r.ballot(), Inst: r.instRef()}
	}
	decoders[TPrepareReply] = func(r *reader) Msg {
		return PrepareReply{
			Inst: r.instRef(), From: r.id(), OK: r.boolean(), Ballot: r.ballot(),
			Status: r.u8(), VBallot: r.ballot(), Cmd: r.cmd(), Seq: r.u64(),
			Deps: r.instRefs(),
		}
	}
	decoders[TQReadReq] = func(r *reader) Msg {
		return QReadReq{Key: r.u64(), RID: r.u64()}
	}
	decoders[TQReadReply] = func(r *reader) Msg {
		return QReadReply{
			Key: r.u64(), RID: r.u64(), From: r.id(), Version: r.u64(),
			Exists: r.boolean(), Value: r.bytes(),
		}
	}
	decoders[THeartbeat] = func(r *reader) Msg {
		return Heartbeat{Ballot: r.ballot(), From: r.id(), Commit: r.u64()}
	}
}

// --------------------------------------------------------------- catchup --

// CatchupReq asks the leader to re-announce committed slots in
// [From, To): a follower sends it when commit watermarks reveal slots it
// cannot commit locally (missing or accepted under an older ballot).
type CatchupReq struct {
	From uint64
	To   uint64
}

// Type implements Msg.
func (CatchupReq) Type() Type { return TCatchupReq }

// Size implements Msg.
func (CatchupReq) Size() int { return szU64 + szU64 }

func (m CatchupReq) append(b []byte) []byte {
	b = putU64(b, m.From)
	return putU64(b, m.To)
}

// CatchupReply carries the committed entries a follower asked for.
type CatchupReply struct {
	Ballot  ids.Ballot
	Entries []SlotEntry
}

// Type implements Msg.
func (CatchupReply) Type() Type { return TCatchupReply }

// Size implements Msg.
func (m CatchupReply) Size() int {
	n := szBallot + szU16
	for _, e := range m.Entries {
		n += szSlotEntry(e)
	}
	return n
}

func (m CatchupReply) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	checkCount(len(m.Entries), "CatchupReply entry list")
	b = putU16(b, uint16(len(m.Entries)))
	for _, e := range m.Entries {
		b = putSlotEntry(b, e)
	}
	return b
}

func init() {
	decoders[TCatchupReq] = func(r *reader) Msg {
		return CatchupReq{From: r.u64(), To: r.u64()}
	}
	decoders[TCatchupReply] = func(r *reader) Msg {
		return CatchupReply{Ballot: r.ballot(), Entries: r.slotEntries()}
	}
}

// HeartbeatAck confirms a heartbeat back to the leader; a majority of
// recent acks lets the leader hold a read lease (§4.3 leader reads).
type HeartbeatAck struct {
	Ballot ids.Ballot
	From   ids.ID
}

// Type implements Msg.
func (HeartbeatAck) Type() Type { return THeartbeatAck }

// Size implements Msg.
func (HeartbeatAck) Size() int { return szBallot + szID }

func (m HeartbeatAck) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	return putU32(b, uint32(m.From))
}

func init() {
	decoders[THeartbeatAck] = func(r *reader) Msg {
		return HeartbeatAck{Ballot: r.ballot(), From: r.id()}
	}
}

// -------------------------------------------------------------- snapshot --

// SnapInstall ships a state-machine snapshot to a follower whose catch-up
// request fell below the sender's log compaction floor: the full store and
// session table as of Floor (the first slot the snapshot does NOT cover),
// serialized by the protocol layer. Ballot is the sender's current ballot.
// The receiver installs the snapshot, persists it, and resumes ordinary
// catch-up for slots at or above Floor.
type SnapInstall struct {
	Ballot ids.Ballot
	Floor  uint64
	Data   []byte
}

// Type implements Msg.
func (SnapInstall) Type() Type { return TSnapInstall }

// Size implements Msg.
func (m SnapInstall) Size() int { return szBallot + szU64 + szBytes(m.Data) }

func (m SnapInstall) append(b []byte) []byte {
	b = putU64(b, uint64(m.Ballot))
	b = putU64(b, m.Floor)
	return putBytes(b, m.Data)
}

func init() {
	decoders[TSnapInstall] = func(r *reader) Msg {
		return SnapInstall{Ballot: r.ballot(), Floor: r.u64(), Data: r.bytes()}
	}
}

// -------------------------------------------------------------- sharding --

// Sharded is the multi-group routing envelope: it tags any protocol message
// with the consensus group (shard) it belongs to, so S independent replica
// instances can multiplex over one node's endpoint and event loop. The
// inner message is encoded exactly as it would be on its own — tag byte
// included — so every registered decoder works unchanged beneath the
// envelope. Envelopes do not nest.
type Sharded struct {
	Shard uint16
	Inner Msg
}

// Type implements Msg.
func (Sharded) Type() Type { return TSharded }

// Size implements Msg.
func (m Sharded) Size() int { return szU16 + 1 + m.Inner.Size() }

func (m Sharded) append(b []byte) []byte {
	if m.Inner.Type() == TSharded {
		panic("wire: nested Sharded envelope")
	}
	b = putU16(b, m.Shard)
	return Encode(b, m.Inner)
}

func init() {
	decoders[TSharded] = func(r *reader) Msg {
		shard := r.u16()
		t := Type(r.u8())
		if r.err != nil {
			return Sharded{}
		}
		if t == 0 || t >= maxType || t == TSharded {
			r.err = fmt.Errorf("bad inner type %d in Sharded envelope", uint8(t))
			return Sharded{}
		}
		return Sharded{Shard: shard, Inner: decoders[t](r)}
	}
}
