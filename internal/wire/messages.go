package wire

import (
	"fmt"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
)

// Each type's code method is its wire layout: the fields in order, each
// through the coder primitive that fixes its encoding. Size, append and the
// decoder of every type run that walk (see the end of the file).

// ---------------------------------------------------------------- client --

// Request carries one client command to a replica.
type Request struct {
	Cmd kvstore.Command
}

func (m *Request) code(c *coder) {
	c.cmd(&m.Cmd)
}

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

func (m *Reply) code(c *coder) {
	c.u64(&m.ClientID)
	c.u64(&m.Seq)
	c.boolean(&m.OK)
	c.boolean(&m.Exists)
	c.bytes(&m.Value)
	c.id(&m.Leader)
	c.u64(&m.Slot)
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

func (m *Busy) code(c *coder) {
	c.u64(&m.ClientID)
	c.u64(&m.Seq)
	c.id(&m.Leader)
	c.duration(&m.RetryAfter)
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

func (m *P1a) code(c *coder) {
	c.ballot(&m.Ballot)
	c.u64(&m.From)
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

func (m *SlotEntry) code(c *coder) {
	c.u64(&m.Slot)
	c.ballot(&m.Ballot)
	c.boolean(&m.Committed)
	c.cmds(&m.Cmds)
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

func (m *P1b) code(c *coder) {
	c.ballot(&m.Ballot)
	c.id(&m.From)
	c.u64(&m.Floor)
	c.entries(&m.Entries)
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

func (m *P2a) code(c *coder) {
	c.ballot(&m.Ballot)
	c.u64(&m.Slot)
	c.cmds(&m.Cmds)
	c.u64(&m.Commit)
}

// P2b acknowledges (or, with a higher Ballot than sent, rejects) a P2a.
type P2b struct {
	Ballot ids.Ballot
	From   ids.ID
	Slot   uint64
}

func (m *P2b) code(c *coder) {
	c.ballot(&m.Ballot)
	c.id(&m.From)
	c.u64(&m.Slot)
}

// P3 is an explicit phase-3 commit announcement, used when there is no
// follow-up P2a to piggyback on. It carries the slot's full command batch.
type P3 struct {
	Ballot ids.Ballot
	Slot   uint64
	Cmds   []kvstore.Command
}

func (m *P3) code(c *coder) {
	c.ballot(&m.Ballot)
	c.u64(&m.Slot)
	c.cmds(&m.Cmds)
}

// -------------------------------------------------------------- pigpaxos --

// RelayP1a asks a relay node to propagate a phase-1 bid to Peers (the rest
// of its relay group) and aggregate their P1b responses.
type RelayP1a struct {
	P1a   P1a
	Peers []ids.ID
}

func (m *RelayP1a) code(c *coder) {
	m.P1a.code(c)
	c.ids(&m.Peers)
}

// AggP1b aggregates a relay group's phase-1 promises into one message.
type AggP1b struct {
	Ballot  ids.Ballot
	Relay   ids.ID
	Replies []P1b
}

func (m *AggP1b) code(c *coder) {
	c.ballot(&m.Ballot)
	c.id(&m.Relay)
	c.p1bs(&m.Replies)
}

// RelayP2a asks a relay to propagate a P2a inside its group and aggregate
// the P2bs until the whole group answered or Timeout, the relay's collection
// deadline, passed. Threshold (§4.2's partial-response count) is written as
// 0 and ignored; it stays so the frame's layout, and every size the
// simulator charges for it, is unchanged.
type RelayP2a struct {
	P2a       P2a
	Peers     []ids.ID
	Threshold uint16
	Timeout   time.Duration
}

func (m *RelayP2a) code(c *coder) {
	m.P2a.code(c)
	c.ids(&m.Peers)
	c.u16(&m.Threshold)
	c.duration(&m.Timeout)
}

// AggP2b aggregates a relay group's P2b votes for one slot. Acks lists the
// group members (including the relay itself) that accepted; Partial marks
// one that does not speak for the whole group: cut short by the relay
// timeout, a rejection, or the relay's own vote sent alone.
type AggP2b struct {
	Ballot  ids.Ballot
	Relay   ids.ID
	Slot    uint64
	Acks    []ids.ID
	Partial bool
}

func (m *AggP2b) code(c *coder) {
	c.ballot(&m.Ballot)
	c.id(&m.Relay)
	c.u64(&m.Slot)
	c.ids(&m.Acks)
	c.boolean(&m.Partial)
}

// RelayP3 propagates an explicit commit through a relay; no response flows
// back (commit is fan-out only, per the paper's Figure 4).
type RelayP3 struct {
	P3    P3
	Peers []ids.ID
}

func (m *RelayP3) code(c *coder) {
	m.P3.code(c)
	c.ids(&m.Peers)
}

// ---------------------------------------------------------------- epaxos --

// InstRef names an EPaxos instance: the owning replica and its slot in that
// replica's instance row.
type InstRef struct {
	Replica ids.ID
	Slot    uint64
}

func (m *InstRef) code(c *coder) {
	c.id(&m.Replica)
	c.u64(&m.Slot)
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

func (m *PreAccept) code(c *coder) {
	c.ballot(&m.Ballot)
	m.Inst.code(c)
	c.cmd(&m.Cmd)
	c.u64(&m.Seq)
	c.refs(&m.Deps)
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

func (m *PreAcceptReply) code(c *coder) {
	m.Inst.code(c)
	c.id(&m.From)
	c.boolean(&m.OK)
	c.ballot(&m.Ballot)
	c.u64(&m.Seq)
	c.refs(&m.Deps)
	c.boolean(&m.Changed)
}

// Accept runs the EPaxos slow path, fixing the final attributes.
type Accept struct {
	Ballot ids.Ballot
	Inst   InstRef
	Cmd    kvstore.Command
	Seq    uint64
	Deps   []InstRef
}

func (m *Accept) code(c *coder) {
	c.ballot(&m.Ballot)
	m.Inst.code(c)
	c.cmd(&m.Cmd)
	c.u64(&m.Seq)
	c.refs(&m.Deps)
}

// AcceptReply acknowledges an Accept.
type AcceptReply struct {
	Inst   InstRef
	From   ids.ID
	OK     bool
	Ballot ids.Ballot
}

func (m *AcceptReply) code(c *coder) {
	m.Inst.code(c)
	c.id(&m.From)
	c.boolean(&m.OK)
	c.ballot(&m.Ballot)
}

// Commit finalizes an EPaxos instance with its committed attributes.
type Commit struct {
	Inst InstRef
	Cmd  kvstore.Command
	Seq  uint64
	Deps []InstRef
}

func (m *Commit) code(c *coder) {
	m.Inst.code(c)
	c.cmd(&m.Cmd)
	c.u64(&m.Seq)
	c.refs(&m.Deps)
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

func (m *Prepare) code(c *coder) {
	c.ballot(&m.Ballot)
	m.Inst.code(c)
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

func (m *PrepareReply) code(c *coder) {
	m.Inst.code(c)
	c.id(&m.From)
	c.boolean(&m.OK)
	c.ballot(&m.Ballot)
	c.u8(&m.Status)
	c.ballot(&m.VBallot)
	c.cmd(&m.Cmd)
	c.u64(&m.Seq)
	c.refs(&m.Deps)
}

// ------------------------------------------------------------------- pqr --

// QReadReq asks a replica for its local version of a key (Paxos Quorum
// Reads, §4.3). RID correlates the reply with the read round.
type QReadReq struct {
	Key uint64
	RID uint64
}

func (m *QReadReq) code(c *coder) {
	c.u64(&m.Key)
	c.u64(&m.RID)
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

func (m *QReadReply) code(c *coder) {
	c.u64(&m.Key)
	c.u64(&m.RID)
	c.id(&m.From)
	c.u64(&m.Version)
	c.boolean(&m.Exists)
	c.bytes(&m.Value)
}

// -------------------------------------------------------------------- fd --

// Heartbeat announces liveness (and the leader's commit watermark) for the
// failure detector.
type Heartbeat struct {
	Ballot ids.Ballot
	From   ids.ID
	Commit uint64
}

func (m *Heartbeat) code(c *coder) {
	c.ballot(&m.Ballot)
	c.id(&m.From)
	c.u64(&m.Commit)
}

// HeartbeatAck confirms a heartbeat back to the leader; a majority of
// recent acks lets the leader hold a read lease (§4.3 leader reads).
type HeartbeatAck struct {
	Ballot ids.Ballot
	From   ids.ID
}

func (m *HeartbeatAck) code(c *coder) {
	c.ballot(&m.Ballot)
	c.id(&m.From)
}

// --------------------------------------------------------------- catchup --

// CatchupReq asks the leader to re-announce committed slots in
// [From, To): a follower sends it when commit watermarks reveal slots it
// cannot commit locally (missing or accepted under an older ballot).
type CatchupReq struct {
	From uint64
	To   uint64
}

func (m *CatchupReq) code(c *coder) {
	c.u64(&m.From)
	c.u64(&m.To)
}

// CatchupReply carries the committed entries a follower asked for.
type CatchupReply struct {
	Ballot  ids.Ballot
	Entries []SlotEntry
}

func (m *CatchupReply) code(c *coder) {
	c.ballot(&m.Ballot)
	c.entries(&m.Entries)
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

func (m *SnapInstall) code(c *coder) {
	c.ballot(&m.Ballot)
	c.u64(&m.Floor)
	c.bytes(&m.Data)
}

// -------------------------------------------------------------- sharding --

// Sharded is the multi-group routing envelope: it tags any protocol message
// with the consensus group (shard) it belongs to, so S independent replica
// instances can multiplex over one node's endpoint and event loop. The
// inner message is encoded exactly as it would be on its own — tag byte
// included — so every decoder works unchanged beneath the envelope.
// Envelopes do not nest.
type Sharded struct {
	Shard uint16
	Inner Msg
}

func (m *Sharded) code(c *coder) {
	c.u16(&m.Shard)
	c.inner(&m.Inner)
}

// inner is a whole message, tag byte included, exactly as Encode writes it,
// so every decoder works unchanged beneath the envelope.
func (c *coder) inner(v *Msg) {
	switch c.mode {
	case decoding:
		var t uint8
		c.u8(&t)
		if c.err != nil {
			return
		}
		if t == 0 || Type(t) >= maxType || Type(t) == TSharded {
			c.err = fmt.Errorf("bad inner type %d in Sharded envelope", t)
			return
		}
		// c is &c.s.c: named through its Scratch, it does not leak to the
		// decoder table's indirect call, which keeps sizing and encoding
		// coders (which never get here) on the stack.
		*v = decoders[t](&c.s.c)
	case encoding:
		if (*v).Type() == TSharded {
			panic("wire: nested Sharded envelope")
		}
		c.b = Encode(c.b, *v)
	default:
		c.n += 1 + (*v).Size()
	}
}

// --------------------------------------------------------------- methods --

// Each message type's Type, and its Size and append, which run its code walk
// on a copy of the message, except for P2a's append (below).
func (Request) Type() Type                      { return TRequest }
func (m Request) Size() int                     { c := sizer(); m.code(&c); return c.n }
func (m Request) append(b []byte) []byte        { c := encoder(b); m.code(&c); return c.b }
func (Reply) Type() Type                        { return TReply }
func (m Reply) Size() int                       { c := sizer(); m.code(&c); return c.n }
func (m Reply) append(b []byte) []byte          { c := encoder(b); m.code(&c); return c.b }
func (Busy) Type() Type                         { return TBusy }
func (m Busy) Size() int                        { c := sizer(); m.code(&c); return c.n }
func (m Busy) append(b []byte) []byte           { c := encoder(b); m.code(&c); return c.b }
func (P1a) Type() Type                          { return TP1a }
func (m P1a) Size() int                         { c := sizer(); m.code(&c); return c.n }
func (m P1a) append(b []byte) []byte            { c := encoder(b); m.code(&c); return c.b }
func (P1b) Type() Type                          { return TP1b }
func (m P1b) Size() int                         { c := sizer(); m.code(&c); return c.n }
func (m P1b) append(b []byte) []byte            { c := encoder(b); m.code(&c); return c.b }
func (P2a) Type() Type                          { return TP2a }
func (m P2a) Size() int                         { c := sizer(); m.code(&c); return c.n }
func (P2b) Type() Type                          { return TP2b }
func (m P2b) Size() int                         { c := sizer(); m.code(&c); return c.n }
func (m P2b) append(b []byte) []byte            { c := encoder(b); m.code(&c); return c.b }
func (P3) Type() Type                           { return TP3 }
func (m P3) Size() int                          { c := sizer(); m.code(&c); return c.n }
func (m P3) append(b []byte) []byte             { c := encoder(b); m.code(&c); return c.b }
func (RelayP1a) Type() Type                     { return TRelayP1a }
func (m RelayP1a) Size() int                    { c := sizer(); m.code(&c); return c.n }
func (m RelayP1a) append(b []byte) []byte       { c := encoder(b); m.code(&c); return c.b }
func (AggP1b) Type() Type                       { return TAggP1b }
func (m AggP1b) Size() int                      { c := sizer(); m.code(&c); return c.n }
func (m AggP1b) append(b []byte) []byte         { c := encoder(b); m.code(&c); return c.b }
func (RelayP2a) Type() Type                     { return TRelayP2a }
func (m RelayP2a) Size() int                    { c := sizer(); m.code(&c); return c.n }
func (m RelayP2a) append(b []byte) []byte       { c := encoder(b); m.code(&c); return c.b }
func (AggP2b) Type() Type                       { return TAggP2b }
func (m AggP2b) Size() int                      { c := sizer(); m.code(&c); return c.n }
func (m AggP2b) append(b []byte) []byte         { c := encoder(b); m.code(&c); return c.b }
func (RelayP3) Type() Type                      { return TRelayP3 }
func (m RelayP3) Size() int                     { c := sizer(); m.code(&c); return c.n }
func (m RelayP3) append(b []byte) []byte        { c := encoder(b); m.code(&c); return c.b }
func (PreAccept) Type() Type                    { return TPreAccept }
func (m PreAccept) Size() int                   { c := sizer(); m.code(&c); return c.n }
func (m PreAccept) append(b []byte) []byte      { c := encoder(b); m.code(&c); return c.b }
func (PreAcceptReply) Type() Type               { return TPreAcceptReply }
func (m PreAcceptReply) Size() int              { c := sizer(); m.code(&c); return c.n }
func (m PreAcceptReply) append(b []byte) []byte { c := encoder(b); m.code(&c); return c.b }
func (Accept) Type() Type                       { return TAccept }
func (m Accept) Size() int                      { c := sizer(); m.code(&c); return c.n }
func (m Accept) append(b []byte) []byte         { c := encoder(b); m.code(&c); return c.b }
func (AcceptReply) Type() Type                  { return TAcceptReply }
func (m AcceptReply) Size() int                 { c := sizer(); m.code(&c); return c.n }
func (m AcceptReply) append(b []byte) []byte    { c := encoder(b); m.code(&c); return c.b }
func (Commit) Type() Type                       { return TCommit }
func (m Commit) Size() int                      { c := sizer(); m.code(&c); return c.n }
func (m Commit) append(b []byte) []byte         { c := encoder(b); m.code(&c); return c.b }
func (Prepare) Type() Type                      { return TPrepare }
func (m Prepare) Size() int                     { c := sizer(); m.code(&c); return c.n }
func (m Prepare) append(b []byte) []byte        { c := encoder(b); m.code(&c); return c.b }
func (PrepareReply) Type() Type                 { return TPrepareReply }
func (m PrepareReply) Size() int                { c := sizer(); m.code(&c); return c.n }
func (m PrepareReply) append(b []byte) []byte   { c := encoder(b); m.code(&c); return c.b }
func (QReadReq) Type() Type                     { return TQReadReq }
func (m QReadReq) Size() int                    { c := sizer(); m.code(&c); return c.n }
func (m QReadReq) append(b []byte) []byte       { c := encoder(b); m.code(&c); return c.b }
func (QReadReply) Type() Type                   { return TQReadReply }
func (m QReadReply) Size() int                  { c := sizer(); m.code(&c); return c.n }
func (m QReadReply) append(b []byte) []byte     { c := encoder(b); m.code(&c); return c.b }
func (Heartbeat) Type() Type                    { return THeartbeat }
func (m Heartbeat) Size() int                   { c := sizer(); m.code(&c); return c.n }
func (m Heartbeat) append(b []byte) []byte      { c := encoder(b); m.code(&c); return c.b }
func (HeartbeatAck) Type() Type                 { return THeartbeatAck }
func (m HeartbeatAck) Size() int                { c := sizer(); m.code(&c); return c.n }
func (m HeartbeatAck) append(b []byte) []byte   { c := encoder(b); m.code(&c); return c.b }
func (CatchupReq) Type() Type                   { return TCatchupReq }
func (m CatchupReq) Size() int                  { c := sizer(); m.code(&c); return c.n }
func (m CatchupReq) append(b []byte) []byte     { c := encoder(b); m.code(&c); return c.b }
func (CatchupReply) Type() Type                 { return TCatchupReply }
func (m CatchupReply) Size() int                { c := sizer(); m.code(&c); return c.n }
func (m CatchupReply) append(b []byte) []byte   { c := encoder(b); m.code(&c); return c.b }
func (SnapInstall) Type() Type                  { return TSnapInstall }
func (m SnapInstall) Size() int                 { c := sizer(); m.code(&c); return c.n }
func (m SnapInstall) append(b []byte) []byte    { c := encoder(b); m.code(&c); return c.b }
func (Sharded) Type() Type                      { return TSharded }
func (m Sharded) Size() int                     { c := sizer(); m.code(&c); return c.n }
func (m Sharded) append(b []byte) []byte        { c := encoder(b); m.code(&c); return c.b }

// -------------------------------------------------------------- hot path --

// P2a, the message a leader sends for every slot, encodes by hand: the
// coder costs several times a hand-written body per field, and the live
// transport encodes every frame. TestP2aAppendMatchesCoder pins it to the
// code walk, so it optimises that layout rather than repeat it.
func (m P2a) append(b []byte) []byte {
	b = le.AppendUint64(b, uint64(m.Ballot))
	b = le.AppendUint64(b, m.Slot)
	checkCount(len(m.Cmds), "command batch")
	b = le.AppendUint16(b, uint16(len(m.Cmds)))
	for i := range m.Cmds {
		c := &m.Cmds[i]
		b = append(b, byte(c.Op))
		b = le.AppendUint64(b, c.Key)
		b = le.AppendUint32(b, uint32(len(c.Value)))
		b = append(b, c.Value...)
		b = le.AppendUint64(b, c.ClientID)
		b = le.AppendUint64(b, c.Seq)
	}
	return le.AppendUint64(b, m.Commit)
}

// Each decoder walks a zero message's code with the decoding coder.
func init() {
	decoders = [maxType]func(*coder) Msg{
		TRequest:        func(c *coder) Msg { var m Request; m.code(c); return m },
		TReply:          func(c *coder) Msg { var m Reply; m.code(c); return m },
		TBusy:           func(c *coder) Msg { var m Busy; m.code(c); return m },
		TP1a:            func(c *coder) Msg { var m P1a; m.code(c); return m },
		TP1b:            func(c *coder) Msg { var m P1b; m.code(c); return m },
		TP2a:            func(c *coder) Msg { var m P2a; m.code(c); return m },
		TP2b:            func(c *coder) Msg { var m P2b; m.code(c); return m },
		TP3:             func(c *coder) Msg { var m P3; m.code(c); return m },
		TRelayP1a:       func(c *coder) Msg { var m RelayP1a; m.code(c); return m },
		TAggP1b:         func(c *coder) Msg { var m AggP1b; m.code(c); return m },
		TRelayP2a:       func(c *coder) Msg { var m RelayP2a; m.code(c); return m },
		TAggP2b:         func(c *coder) Msg { var m AggP2b; m.code(c); return m },
		TRelayP3:        func(c *coder) Msg { var m RelayP3; m.code(c); return m },
		TPreAccept:      func(c *coder) Msg { var m PreAccept; m.code(c); return m },
		TPreAcceptReply: func(c *coder) Msg { var m PreAcceptReply; m.code(c); return m },
		TAccept:         func(c *coder) Msg { var m Accept; m.code(c); return m },
		TAcceptReply:    func(c *coder) Msg { var m AcceptReply; m.code(c); return m },
		TCommit:         func(c *coder) Msg { var m Commit; m.code(c); return m },
		TPrepare:        func(c *coder) Msg { var m Prepare; m.code(c); return m },
		TPrepareReply:   func(c *coder) Msg { var m PrepareReply; m.code(c); return m },
		TQReadReq:       func(c *coder) Msg { var m QReadReq; m.code(c); return m },
		TQReadReply:     func(c *coder) Msg { var m QReadReply; m.code(c); return m },
		THeartbeat:      func(c *coder) Msg { var m Heartbeat; m.code(c); return m },
		THeartbeatAck:   func(c *coder) Msg { var m HeartbeatAck; m.code(c); return m },
		TCatchupReq:     func(c *coder) Msg { var m CatchupReq; m.code(c); return m },
		TCatchupReply:   func(c *coder) Msg { var m CatchupReply; m.code(c); return m },
		TSnapInstall:    func(c *coder) Msg { var m SnapInstall; m.code(c); return m },
		TSharded:        func(c *coder) Msg { var m Sharded; m.code(c); return m },
	}
}
