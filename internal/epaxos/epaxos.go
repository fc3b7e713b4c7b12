// Package epaxos implements Egalitarian Paxos (Moraru et al., SOSP'13), the
// leaderless baseline the paper compares against (§2.3, §5.4). Any replica
// acts as command leader for the requests it receives: it computes the
// command's attributes (a sequence number and per-replica dependencies on
// interfering commands), pre-accepts on a fast quorum, and commits in one
// round trip when all fast-quorum replies agree. Interference (same key,
// at least one write) forces attribute growth and the slow path — an extra
// majority Accept round — and execution must topologically order the
// dependency graph (strongly connected components by sequence number), so a
// small hot key space under high load drains every replica's resources,
// which is exactly the failure mode the paper measures with its 1000-key
// uniform workload.
//
// The instance space is one row per member, each a slots.Window of instances
// over the slots above the row's GC floor — the ring rlog and the Paxos
// proposal table use. Per-instance bookkeeping (driving, committed-pending,
// the recovery clock, execution-graph marks) lives in the cell, and every
// pass walks the rows in ascending member ID and each row in slot order: the
// (replica, slot) order every replica agrees on, so no pass sorts and no
// iteration order leaks into message timing or CPU charges.
//
// The implementation is fault tolerant end to end, so the chaos suite can
// throw the same crash/partition/loss palette at it as at the Paxos family:
//
//   - Per-instance ballots. Every instance starts at its owner's default
//     ballot 0.owner; higher ballots supersede lower ones exactly as in
//     Paxos, and a superseded driver stops counting votes.
//   - Explicit Prepare recovery. A replica whose execution stays blocked on
//     an uncommitted instance past RecoverTimeout takes the instance over:
//     it Prepares a higher ballot at a majority and finishes the instance
//     from what the quorum reports — a commit is re-broadcast, the
//     highest-ballot accepted value is re-accepted, pre-accepted attributes
//     that may have fast-committed are defended, any other pre-accepted
//     command re-runs phase 1 (slow path only), and an instance nobody
//     knows is anchored as a no-op. The fast quorum is the paper's simple
//     variant (every replica but one), which is what makes the counting
//     rule for possibly-fast-committed attributes sound.
//   - Timer-driven retransmits. A sweep timer re-broadcasts the current
//     phase message of every stalled driven instance (masking message
//     loss) and downgrades a stalled fast-path attempt to the slow path
//     once a majority has replied, so crashes of fast-quorum members
//     cannot wedge an instance.
//   - Replicated at-most-once sessions, in the session table the Paxos
//     family shares (internal/sessions). It keeps each client's exact set
//     of executed sequence numbers, not a high-water mark: commands from
//     one client on disjoint keys may execute in either order, and a
//     ≤-rule would skip different commands on different replicas. Client
//     retries that reach a different command leader commit a second
//     instance whose execution is suppressed exactly once everywhere, and
//     the cached reply is re-sent instead.
//   - Commit teach-back. A replica that already committed an instance
//     answers stale PreAccepts/Accepts (a driver that missed the commit)
//     with the Commit itself, and Prepare finds commits that probabilistic
//     loss ate.
//   - Collected instances stay collected. A message about a slot at or
//     below its row's GC floor is dropped: the instance executed here and
//     is gone, so re-opening it would execute the command a second time,
//     and answering a Prepare with "none" would invite a no-op over it.
//
// One Replica, one file per decision, no interfaces between them: epaxos.go
// holds the types, New, OnMessage and the instance space; attributes.go
// computes a command's (seq, deps) from the per-key interference index;
// commit.go drives an instance's rounds (the one place a phase message is
// sent, ballot promotion, the reply tally) through the fast or slow path to
// commit; recovery.go takes an instance over with Explicit Prepare; sweep.go
// is the timer (retransmits, recovery deadlines, row-watermark gossip); and
// execute.go orders, applies and collects committed instances.
package epaxos

import (
	"slices"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node"
	"pigpaxos/internal/quorum"
	"pigpaxos/internal/sessions"
	"pigpaxos/internal/slots"
	"pigpaxos/internal/wire"
)

// Config parameterizes an EPaxos replica.
type Config struct {
	// Cluster is the full membership.
	Cluster config.Cluster
	// ID is this replica's identity.
	ID ids.ID

	// RetryTimeout re-broadcasts a driven instance's current phase message
	// when it stalls (lost pre-accepts or accepts), and downgrades a
	// stalled fast-path attempt to the slow path once a majority has
	// replied (default 80ms).
	RetryTimeout time.Duration
	// RecoverTimeout is how long execution may stay blocked on an
	// uncommitted instance before this replica takes it over with Explicit
	// Prepare (default 250ms).
	RecoverTimeout time.Duration
	// SweepInterval paces the retransmit/recovery sweep timer (default
	// 40ms).
	SweepInterval time.Duration

	// gcEvery triggers instance-space garbage collection after this many
	// local executions (default 4096; tests set it lower).
	gcEvery int
}

// The simulator's CPU charges, and the pace of blocked-execution retries.
const (
	// attrWork is CPU charged for computing/merging attributes per
	// pre-accept (instance bookkeeping is heavier than Paxos's).
	attrWork = 40 * time.Microsecond
	// scanWork is CPU charged per live (unexecuted) instance scanned when
	// computing attributes for a new command: the interference scan over
	// the live working set. Under load the working set grows with the
	// number of in-flight commands, so this cost rises with concurrency —
	// the self-reinforcing "conflict resolution draining the resources of
	// every node" collapse the paper measures (§5.4).
	scanWork = 5 * time.Microsecond
	// depWork is CPU charged per dependency entry scanned or merged when
	// processing attribute-carrying messages. Dependency sets grow toward
	// one entry per instance-space row (N entries) on a hot key space, so
	// this is the conflict-resolution cost the paper blames for EPaxos'
	// collapse ("conflict resolution phase draining the resources of
	// every node", §5.4).
	depWork = 6 * time.Microsecond
	// execVisitWork is CPU charged per dependency-graph node visited
	// during execution attempts — the "conflict resolution" cost that
	// grows with the number of in-flight interfering commands.
	execVisitWork = 2 * time.Microsecond
	// execWork is CPU charged per command applied to the state machine.
	execWork = 5 * time.Microsecond
	// execRetryInterval is how often blocked executions are retried.
	execRetryInterval = time.Millisecond
)

func (c *Config) applyDefaults() {
	if c.gcEvery <= 0 {
		c.gcEvery = 4096
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = 80 * time.Millisecond
	}
	if c.RecoverTimeout <= 0 {
		c.RecoverTimeout = 250 * time.Millisecond
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = 40 * time.Millisecond
	}
}

type status uint8

const (
	statusNone status = iota
	statusPreAccepted
	statusAccepted
	statusCommitted
	statusExecuted
)

// wireStatus maps the internal state to the PrepareReply encoding (executed
// is local bookkeeping; on the wire it is committed).
var wireStatus = [...]uint8{
	statusNone: wire.InstNone, statusPreAccepted: wire.InstPreAccepted, statusAccepted: wire.InstAccepted,
	statusCommitted: wire.InstCommitted, statusExecuted: wire.InstCommitted,
}

// instance is one cell of the two-dimensional EPaxos instance space. A cell
// that is not present holds no instance: at most the recovery clock of a
// dependency this replica has not heard of yet.
type instance struct {
	present bool

	cmd    kvstore.Command
	seq    uint64
	deps   []wire.InstRef
	status status // statusCommitted: committed here, awaiting its dependencies

	// bal is the highest ballot this replica has seen for the instance;
	// vbal the ballot its current (cmd, seq, deps) was (pre-)accepted at.
	bal  ids.Ballot
	vbal ids.Ballot

	// Driver state: drive is nonzero while this replica runs the
	// instance's phases — the original command leader at the instance's
	// default ballot, or a recovery leader at a Prepare ballot — and the
	// sweep retransmits it. While it is nonzero it equals bal: a higher
	// ballot stops the driving (see promote). voters dedups the current
	// round's replies by sender (retransmits and link duplication must not
	// double-count); startRound clears it.
	drive      ids.Ballot
	voters     []ids.ID
	changed    bool
	mergedSeq  uint64
	mergedDeps []wire.InstRef
	client     ids.ID
	hasClient  bool
	opened     time.Duration
	lastSend   time.Duration
	// votesAtSend is len(voters) when the phase message was last sent: the
	// sweep retransmits only when no vote arrived in a whole RetryTimeout —
	// slow-but-progressing quorums (an overloaded cluster) are not loss,
	// and blind periodic retransmission would amplify exactly the overload
	// that slowed them.
	votesAtSend int

	// Recovery state, valid while preparing: replies gathered for the
	// Explicit Prepare quorum (the driver's own snapshot included).
	preparing bool
	prep      []prepInfo

	// block is the recovery clock, running while execution is blocked on
	// this (uncommitted or unknown) instance.
	block blockState

	// Tarjan marks, valid while pass equals the replica's current
	// execution pass: the node's DFS index, its low-link, and whether it
	// is on the component stack.
	pass       uint64
	index, low int
	onStack    bool
}

// row is one member's row of the instance space. The window covers the slots
// above the row's GC floor, Base()−1: every slot at or below it executed here
// and was collected, so a dependency on one is satisfied.
type row struct {
	id  ids.ID
	win slots.Window[instance]
	// exec is the lowest slot that may be unexecuted here; every cell in
	// [Base, exec) is executed. Passes start at it, so they cost the
	// unexecuted range rather than the whole window.
	exec uint64
	// synced is the prefix of the row a watermark already verified
	// committed here, and heard when the owner was last heard from
	// (recovery of a chatty owner's instances waits longer than failover —
	// see sweep).
	synced uint64
	heard  time.Duration
}

func (rw *row) floor() uint64 { return rw.win.Base() - 1 }

// cursor returns the row's lowest slot not executed here, advancing exec
// past the executed ones.
func (rw *row) cursor() uint64 {
	rw.exec = max(rw.exec, rw.win.Base())
	for {
		if in := rw.win.At(rw.exec); in == nil || in.status != statusExecuted {
			return rw.exec
		}
		rw.exec++
	}
}

// Stats counts protocol events.
type Stats struct {
	Requests   uint64
	FastPath   uint64
	SlowPath   uint64
	Commits    uint64
	Executions uint64
	ExecVisits uint64 // dependency-graph nodes visited (conflict work)
	Blocked    uint64 // execution attempts aborted on uncommitted deps
	GCs        uint64 // instance-space garbage collections

	Recoveries  uint64 // Explicit Prepare takeovers started
	Prepares    uint64 // Prepare messages handled
	Retransmits uint64 // phase re-broadcasts on stalled instances
	Duplicates  uint64 // retries the session table caught, at admission or execution
	Noops       uint64 // no-op instances executed
	Teachbacks  uint64 // commits taught back to stale senders
}

// Replica is one EPaxos node.
type Replica struct {
	ctx node.Context
	cfg Config

	peers []ids.ID
	fastQ int // fast-quorum acks needed beyond self
	slowQ int // majority acks needed beyond self

	rows    []row // one per member, in ascending ID order
	nextOwn uint64
	keys    map[uint64]*keyState

	store    *kvstore.Store
	sessions *sessions.Table
	// pendingRef is, per client, the instance this replica opened for the
	// client's latest request: where a retry of it refreshes the route.
	pendingRef map[uint64]wire.InstRef

	retryArmed bool
	// retryWait is the current execution-retry delay: it doubles on every
	// fruitless blocked retry (up to 128× the base) and resets on
	// progress, so a long-blocked dependency graph is not re-walked every
	// millisecond — commits re-trigger execution directly anyway.
	retryWait time.Duration
	// live counts instances created but not yet executed locally — the
	// working set the interference scan walks.
	live int
	// scc is the execution pass's Tarjan scratch, reused across passes.
	scc tarjan

	lastSweep time.Duration

	// Row-watermark gossip (anti-entropy): ownFloor is the own-row commit
	// floor (every own slot at or below it is committed here), advertised
	// periodically. Peers compare the watermark against their copy of this
	// replica's row and recover any instance they missed — the EPaxos
	// equivalent of the Paxos family's heartbeat-watermark catch-up,
	// without which a replica partitioned away during a commit whose key
	// never interferes again would stay behind forever. Advertising the
	// commit floor (not the row height) means marks never point at
	// in-flight instances, so clean runs recover nothing.
	ownFloor      uint64
	lastAdvertise time.Duration
	// commitEwma tracks the observed open-to-commit latency of own
	// instances (EWMA, 1/8 gain). The sweep's retransmit timeout rides on
	// it: under a loaded-but-healthy cluster commit latency stretches far
	// past any fixed timeout, and retransmitting into that queueing would
	// amplify it — the adaptive timeout is the same cure TCP applies.
	commitEwma time.Duration

	execSinceGC int

	stats Stats
}

// New creates an EPaxos replica.
func New(ctx node.Context, cfg Config) *Replica {
	cfg.applyDefaults()
	r := &Replica{
		ctx:        ctx,
		cfg:        cfg,
		peers:      cfg.Cluster.Peers(cfg.ID),
		nextOwn:    1,
		keys:       make(map[uint64]*keyState),
		store:      kvstore.New(),
		sessions:   sessions.New(),
		pendingRef: make(map[uint64]wire.InstRef),
	}
	members := slices.Sorted(slices.Values(cfg.Cluster.Nodes))
	r.rows = make([]row, len(members))
	for i, id := range members {
		r.rows[i].id = id
		r.rows[i].win.Advance(1) // slots start at 1: the floor is 0
	}
	// Simple EPaxos quorums: the slow path needs a majority, the fast path
	// every replica but one. The larger fast quorum is what makes Explicit
	// Prepare's counting rule sound (see decideRecovery): any competing
	// attribute set fits in the one excluded replica, and a commit leaves
	// at least two identical copies visible to every all-non-owner
	// majority — except at n=3, where one non-owner fast-quorum member is
	// too few, so there the fast path needs the whole cluster. A fast
	// quorum that stops forming under crashes is downgraded to the slow
	// path by the sweep. Both are zero only on a single-node cluster.
	n := cfg.Cluster.N()
	r.slowQ = quorum.MajoritySize(n) - 1
	r.fastQ = n - 2
	if n == 3 {
		r.fastQ = 2
	}
	r.fastQ = max(r.fastQ, r.slowQ)
	return r
}

// Start arms the retransmit/recovery sweep (EPaxos has no leader to
// establish). The simulator drops a crashed node's timers, ending the sweep
// chain, so OnMessage re-arms it from the first message delivered after
// recovery.
func (r *Replica) Start() { r.armSweep() }

// ID returns this replica's identity.
func (r *Replica) ID() ids.ID { return r.cfg.ID }

// Store exposes the replicated state machine.
func (r *Replica) Store() *kvstore.Store { return r.store }

// Stats returns a copy of the event counters.
func (r *Replica) Stats() Stats { return r.stats }

// Unexecuted counts instances that have been opened but not executed —
// zero after a fully recovered, converged run (every instance either
// carried its command to execution or was anchored as a no-op).
func (r *Replica) Unexecuted() int {
	n := 0
	for i := range r.rows {
		rw := &r.rows[i]
		for s := rw.cursor(); s < rw.win.End(); s++ {
			if in := rw.win.At(s); in.status > statusNone && in.status < statusExecuted {
				n++
			}
		}
	}
	return n
}

// OnMessage dispatches a delivered message. It implements node.Handler.
func (r *Replica) OnMessage(from ids.ID, m wire.Msg) {
	// A crashed replica's timers are skipped, killing the sweep chain; the
	// first delivered message after recovery resurrects it (a live chain
	// never falls this far behind).
	if r.ctx.Now()-r.lastSweep > 2*r.cfg.SweepInterval {
		r.sweepTick()
	}
	if rw := r.row(from); rw != nil {
		rw.heard = r.ctx.Now()
	}
	switch v := m.(type) {
	case wire.Request:
		r.onRequest(from, v)
	case wire.PreAccept:
		r.onPreAccept(from, v)
	case wire.PreAcceptReply:
		r.onPreAcceptReply(v)
	case wire.Accept:
		r.onAccept(from, v)
	case wire.AcceptReply:
		r.onAcceptReply(v)
	case wire.Commit:
		r.onCommit(v)
	case wire.Prepare:
		r.onPrepare(from, v)
	case wire.PrepareReply:
		r.onPrepareReply(v)
	case wire.Heartbeat:
		r.onRowMark(v)
	}
}

// defaultBallot is the ballot an instance starts at: ballot 0 owned by the
// instance's row owner.
func defaultBallot(ref wire.InstRef) ids.Ballot { return ids.NewBallot(0, ref.Replica) }

// rowIndex returns the index of id's row, or -1 for a non-member.
func (r *Replica) rowIndex(id ids.ID) int {
	for i := range r.rows {
		if r.rows[i].id == id {
			return i
		}
	}
	return -1
}

func (r *Replica) row(id ids.ID) *row {
	if i := r.rowIndex(id); i >= 0 {
		return &r.rows[i]
	}
	return nil
}

// bounded reports whether a message naming ref and deps stays inside the
// instance space this replica can hold: member rows, slots under
// slots.MaxAhead above the row's floor, and in its own row only the slots it
// has opened. Anything else is corrupt or hostile, and is dropped before a
// ring is sized by it or an own slot is taken from under onRequest.
func (r *Replica) bounded(ref wire.InstRef, deps []wire.InstRef) bool {
	return r.holds(ref) && !slices.ContainsFunc(deps, func(d wire.InstRef) bool { return !r.holds(d) })
}

func (r *Replica) holds(ref wire.InstRef) bool {
	switch rw := r.row(ref.Replica); {
	case rw == nil:
		return false
	case rw.id == r.cfg.ID:
		return ref.Slot < r.nextOwn
	default:
		return ref.Slot <= rw.floor() || ref.Slot-rw.floor() < slots.MaxAhead
	}
}

// cell returns ref's cell, covering its slot, or nil when the row does not
// hold the slot: a non-member row, or a slot at or below the floor (collected
// ⇒ executed here; re-opening it would execute the command twice). cell is
// the only caller of Cover, which may move the ring, so no *instance is held
// across a call to it.
func (r *Replica) cell(ref wire.InstRef) *instance {
	rw := r.row(ref.Replica)
	if rw == nil || ref.Slot <= rw.floor() {
		return nil
	}
	if rw.win.Len() == 0 {
		rw.win.Cover(rw.win.Base()) // an empty window would rebase at ref.Slot
	}
	return rw.win.Cover(ref.Slot)
}

// inst returns ref's instance for a message naming it and deps, opening it
// if this replica has not seen it, or nil when the message is out of bounds
// or the slot collected (see bounded and cell).
func (r *Replica) inst(ref wire.InstRef, deps []wire.InstRef) *instance {
	if !r.bounded(ref, deps) {
		return nil
	}
	in := r.cell(ref)
	if in != nil && !in.present {
		in.present = true
		in.bal, in.vbal = defaultBallot(ref), defaultBallot(ref)
		r.live++
	}
	return in
}

func (r *Replica) lookup(ref wire.InstRef) *instance {
	if rw := r.row(ref.Replica); rw != nil {
		if in := rw.win.At(ref.Slot); in != nil && in.present {
			return in
		}
	}
	return nil
}
