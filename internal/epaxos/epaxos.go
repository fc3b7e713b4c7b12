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
package epaxos

import (
	"cmp"
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
	// sweep retransmits it. voters dedups phase replies by sender
	// (retransmits and link duplication must not double-count).
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

// prepInfo is one PrepareReply's knowledge of an instance.
type prepInfo struct {
	from   ids.ID
	status uint8
	vbal   ids.Ballot
	cmd    kvstore.Command
	seq    uint64
	deps   []wire.InstRef
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

// keyState is one key's interference index: per row (by index) the newest
// slot that wrote the key and the newest that touched it at all, and the
// highest sequence numbers of each. Reads order after writes only, writes
// after everything — matching the interference relation.
type keyState struct {
	lastWrite, lastOp      []uint64
	maxSeqWrite, maxSeqAny uint64
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
	n     int
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
		n:          cfg.Cluster.N(),
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
	// path by the sweep.
	r.slowQ = quorum.MajoritySize(r.n) - 1
	r.fastQ = r.n - 2
	if r.n == 3 {
		r.fastQ = 2
	}
	r.fastQ = max(r.fastQ, r.slowQ)
	return r
}

// Start arms the retransmit/recovery sweep. (EPaxos has no leader to
// establish; the method exists for interface symmetry with the other
// protocols, and substrates that never call it still get the sweep lazily
// re-armed from OnMessage.)
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

// scanCost is the interference-scan charge over the live working set,
// capped so a pathological backlog cannot stall virtual time entirely.
func (r *Replica) scanCost() time.Duration { return time.Duration(min(r.live, 2000)) * scanWork }

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

// ----------------------------------------------------------- attributes --

// attributes computes (seq, deps) for cmd as seen by this replica: deps are
// the latest interfering instances per row, seq exceeds every interfering
// sequence number. Deps come out sorted by (replica, slot), one per row, as
// the rows are walked in ID order.
func (r *Replica) attributes(cmd kvstore.Command, except wire.InstRef) (uint64, []wire.InstRef) {
	ks := r.keys[cmd.Key]
	if ks == nil {
		return 1, nil
	}
	last, seq := ks.lastOp, ks.maxSeqAny // writes order after reads too
	if cmd.IsRead() {
		last, seq = ks.lastWrite, ks.maxSeqWrite
	}
	var deps []wire.InstRef
	for i, slot := range last {
		if id := r.rows[i].id; slot != 0 && (id != except.Replica || slot != except.Slot) {
			deps = append(deps, wire.InstRef{Replica: id, Slot: slot})
		}
	}
	return seq + 1, deps
}

// recordInterference registers (ref, cmd, seq) in the conflict indexes.
func (r *Replica) recordInterference(ref wire.InstRef, cmd kvstore.Command, seq uint64) {
	ks := r.keys[cmd.Key]
	if ks == nil {
		n := len(r.rows)
		both := make([]uint64, 2*n)
		ks = &keyState{lastOp: both[:n], lastWrite: both[n:]}
		r.keys[cmd.Key] = ks
	}
	i := r.rowIndex(ref.Replica)
	ks.lastOp[i] = max(ks.lastOp[i], ref.Slot)
	ks.maxSeqAny = max(ks.maxSeqAny, seq)
	if !cmd.IsRead() {
		ks.lastWrite[i] = max(ks.lastWrite[i], ref.Slot)
		ks.maxSeqWrite = max(ks.maxSeqWrite, seq)
	}
}

// capSelfRow enforces the own-row chain invariant on a dependency set: an
// instance's dependency into its own row must point strictly below its own
// slot. Admission-time attributes guarantee this (the owner allocates
// slots in order), but attributes recomputed later — a recovery re-running
// phase 1, or a pre-accept processed after a newer own-row sibling — can
// otherwise point at or past the instance itself, welding the row's
// siblings into a cycle that skips older instances entirely and breaking
// the pairwise connection execution ordering relies on.
func (r *Replica) capSelfRow(deps []wire.InstRef, ref wire.InstRef, cmd kvstore.Command) []wire.InstRef {
	for i, d := range deps {
		if d.Replica != ref.Replica || d.Slot < ref.Slot {
			continue
		}
		if s, ok := r.latestBelow(ref, cmd); ok {
			deps[i].Slot = s
		} else {
			deps = append(deps[:i], deps[i+1:]...)
		}
		break // dependency sets hold at most one entry per row
	}
	return deps
}

// latestBelow finds the newest instance in ref's row strictly below
// ref.Slot that interferes with cmd; when everything below is already
// collected, the GC floor itself stands in (it is executed here, and a
// lagging replica treats the edge as a commit to chase).
func (r *Replica) latestBelow(ref wire.InstRef, cmd kvstore.Command) (uint64, bool) {
	rw := r.row(ref.Replica)
	floor := rw.floor()
	for s := min(ref.Slot, rw.win.End()) - 1; s > floor; s-- {
		if in := rw.win.At(s); in.status > statusNone && in.cmd.ConflictsWith(cmd) {
			return s, true
		}
	}
	if floor > 0 && ref.Slot > floor {
		return floor, true
	}
	return 0, false
}

// compareRefs orders instance references by (replica, slot).
func compareRefs(a, b wire.InstRef) int {
	return cmp.Or(cmp.Compare(a.Replica, b.Replica), cmp.Compare(a.Slot, b.Slot))
}

// mergeDeps unions b into a, keeping the newer slot of a row both name.
func mergeDeps(a, b []wire.InstRef) []wire.InstRef {
	for _, d := range b {
		if i := slices.IndexFunc(a, func(e wire.InstRef) bool { return e.Replica == d.Replica }); i < 0 {
			a = append(a, d)
		} else {
			a[i].Slot = max(a[i].Slot, d.Slot)
		}
	}
	return a
}

// depsEqual reports whether a and b hold the same references, in any order.
func depsEqual(a, b []wire.InstRef) bool {
	return len(a) == len(b) && !slices.ContainsFunc(a, func(d wire.InstRef) bool { return !slices.Contains(b, d) })
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
	in.voters = in.voters[:0]
	if in.status < statusCommitted {
		in.noteBlocked(r.ctx.Now())
	}
}

// refused handles a phase refusal carrying ballot b. At or below the
// round this replica drives it is late or duplicated; above, a higher ballot
// owns the instance now, and its driver will finish it (or the recovery
// sweep retakes it later).
func (r *Replica) refused(in *instance, b ids.Ballot) {
	if b > in.drive {
		in.bal = max(in.bal, b)
		r.stopDriving(in)
	}
}

// ---------------------------------------------------------- fast path --

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
	in.cmd = m.Cmd
	in.seq = seq
	in.deps = deps
	in.status = statusPreAccepted
	in.drive = defaultBallot(ref)
	in.vbal = in.drive
	in.client = from
	in.hasClient = true
	in.mergedSeq = seq
	in.mergedDeps = append([]wire.InstRef(nil), deps...)
	in.opened = r.ctx.Now()
	in.lastSend = in.opened
	r.recordInterference(ref, m.Cmd, seq)
	if m.Cmd.ClientID != 0 {
		r.sessions.MarkAdmitted(m.Cmd.ClientID, m.Cmd.Seq)
		r.pendingRef[m.Cmd.ClientID] = ref
	}

	r.ctx.Broadcast(r.peers, wire.PreAccept{Ballot: in.drive, Inst: ref, Cmd: m.Cmd, Seq: seq, Deps: deps})
	if r.fastQ == 0 { // single-node cluster
		r.commitInstance(ref, in, in.seq, in.deps)
	}
}

func (r *Replica) onPreAccept(from ids.ID, m wire.PreAccept) {
	in := r.inst(m.Inst, m.Deps)
	if in == nil {
		return
	}
	if in.status >= statusCommitted {
		// The sender missed our commit (lost message or a stale
		// retransmit): teach it back instead of voting.
		r.stats.Teachbacks++
		r.ctx.Send(from, wire.Commit{Inst: m.Inst, Cmd: in.cmd, Seq: in.seq, Deps: in.deps})
		return
	}
	if m.Ballot < in.bal || (m.Ballot == in.bal && in.status > statusPreAccepted) {
		// Stale ballot, or a reordered retransmit arriving after this
		// replica advanced to Accept at the same ballot: refuse, carrying
		// the ballot that blocked it.
		r.ctx.Send(from, wire.PreAcceptReply{
			Inst: m.Inst, From: r.cfg.ID, OK: false, Ballot: in.bal,
		})
		return
	}
	r.ctx.Work(attrWork + r.scanCost() + time.Duration(len(m.Deps))*depWork)
	if m.Ballot > in.bal {
		in.bal = m.Ballot
		r.stopDriving(in)
	}
	seq, deps := r.attributes(m.Cmd, m.Inst)
	merged := mergeDeps(append([]wire.InstRef(nil), m.Deps...), deps)
	merged = r.capSelfRow(merged, m.Inst, m.Cmd)
	changed := seq > m.Seq || !depsEqual(merged, m.Deps)
	seq = max(seq, m.Seq)
	in.cmd = m.Cmd
	in.seq = seq
	in.deps = merged
	in.status = statusPreAccepted
	in.vbal = m.Ballot
	r.recordInterference(m.Inst, m.Cmd, seq)
	r.ctx.Send(from, wire.PreAcceptReply{
		Inst: m.Inst, From: r.cfg.ID, OK: true, Ballot: m.Ballot,
		Seq: seq, Deps: merged, Changed: changed,
	})
}

func (r *Replica) onPreAcceptReply(m wire.PreAcceptReply) {
	in := r.lookup(m.Inst)
	if in == nil || in.drive.IsZero() || in.preparing || in.status != statusPreAccepted || !r.bounded(m.Inst, m.Deps) {
		return
	}
	if !m.OK {
		r.refused(in, m.Ballot)
		return
	}
	if m.Ballot != in.drive || !in.vote(m.From) {
		return // stale round or duplicate reply
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
			r.commitInstance(m.Inst, in, in.seq, in.deps)
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

// ---------------------------------------------------------- slow path --

// startAccept fixes (cmd, seq, deps) with a majority Accept round at the
// instance's drive ballot.
func (r *Replica) startAccept(ref wire.InstRef, in *instance, seq uint64, deps []wire.InstRef) {
	in.status = statusAccepted
	in.seq = seq
	in.deps = deps
	in.vbal = in.drive
	in.voters = in.voters[:0]
	in.votesAtSend = 0
	in.lastSend = r.ctx.Now()
	r.ctx.Broadcast(r.peers, wire.Accept{Ballot: in.drive, Inst: ref, Cmd: in.cmd, Seq: seq, Deps: deps})
	if r.slowQ == 0 { // single-node cluster
		r.commitInstance(ref, in, seq, deps)
	}
}

func (r *Replica) onAccept(from ids.ID, m wire.Accept) {
	in := r.inst(m.Inst, m.Deps)
	if in == nil {
		return
	}
	if in.status >= statusCommitted {
		r.stats.Teachbacks++
		r.ctx.Send(from, wire.Commit{Inst: m.Inst, Cmd: in.cmd, Seq: in.seq, Deps: in.deps})
		return
	}
	if m.Ballot < in.bal {
		r.ctx.Send(from, wire.AcceptReply{
			Inst: m.Inst, From: r.cfg.ID, OK: false, Ballot: in.bal,
		})
		return
	}
	if m.Ballot > in.bal {
		in.bal = m.Ballot
		r.stopDriving(in)
	}
	in.cmd = m.Cmd
	in.seq = m.Seq
	in.deps = m.Deps
	in.status = statusAccepted
	in.vbal = m.Ballot
	if !m.Cmd.Empty() {
		r.recordInterference(m.Inst, m.Cmd, m.Seq)
	}
	r.ctx.Send(from, wire.AcceptReply{Inst: m.Inst, From: r.cfg.ID, OK: true, Ballot: m.Ballot})
}

func (r *Replica) onAcceptReply(m wire.AcceptReply) {
	in := r.lookup(m.Inst)
	if in == nil || in.drive.IsZero() || in.preparing || in.status != statusAccepted {
		return
	}
	if !m.OK {
		r.refused(in, m.Ballot)
		return
	}
	if m.Ballot != in.drive || !in.vote(m.From) {
		return
	}
	if len(in.voters) >= r.slowQ {
		r.commitInstance(m.Inst, in, in.seq, in.deps)
	}
}

// ------------------------------------------------------------- commit --

// commitInstance commits the instance this replica drives with the given
// attributes, teaches the cluster, and runs execution; in is not valid
// afterwards.
func (r *Replica) commitInstance(ref wire.InstRef, in *instance, seq uint64, deps []wire.InstRef) {
	if in.status >= statusCommitted {
		return
	}
	if ref.Replica == r.cfg.ID && in.opened > 0 {
		sample := r.ctx.Now() - in.opened
		r.commitEwma += (sample - r.commitEwma) / 8
	}
	r.ctx.Broadcast(r.peers, wire.Commit{Inst: ref, Cmd: in.cmd, Seq: seq, Deps: deps})
	r.commit(ref, in, in.cmd, seq, deps)
}

func (r *Replica) onCommit(m wire.Commit) {
	r.ctx.Work(time.Duration(len(m.Deps)) * depWork)
	if in := r.inst(m.Inst, m.Deps); in != nil && in.status < statusCommitted {
		r.commit(m.Inst, in, m.Cmd, m.Seq, m.Deps)
	}
}

// commit records in (ref's instance) committed and runs execution; in is not
// valid afterwards.
func (r *Replica) commit(ref wire.InstRef, in *instance, cmd kvstore.Command, seq uint64, deps []wire.InstRef) {
	in.cmd = cmd
	in.seq = seq
	in.deps = deps
	in.status = statusCommitted
	r.stopDriving(in)
	in.block = blockState{}
	r.stats.Commits++
	if !cmd.Empty() {
		r.recordInterference(ref, cmd, seq)
	}
	r.tryExecuteAll()
}

// ----------------------------------------------------------- recovery --

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
	in.voters = in.voters[:0]
	in.votesAtSend = 0
	// This replica's own knowledge is the first reply.
	in.prep = append(in.prep[:0], prepInfo{
		from: r.cfg.ID, status: wireStatus[in.status], vbal: in.vbal,
		cmd: in.cmd, seq: in.seq,
		deps: append([]wire.InstRef(nil), in.deps...),
	})
	in.lastSend = r.ctx.Now()
	r.ctx.Broadcast(r.peers, wire.Prepare{Ballot: b, Inst: ref})
	if r.slowQ == 0 { // single-node cluster
		r.decideRecovery(ref, in)
	}
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
		r.ctx.Send(from, wire.PrepareReply{
			Inst: m.Inst, From: r.cfg.ID, OK: false, Ballot: in.bal,
		})
		return
	}
	if m.Ballot > in.bal {
		// Promise the higher ballot; if this replica was driving the
		// instance, it stops — late replies to its old phases no longer
		// count, so it cannot commit behind the recovery's back.
		in.bal = m.Ballot
		r.stopDriving(in)
	}
	r.ctx.Send(from, wire.PrepareReply{
		Inst: m.Inst, From: r.cfg.ID, OK: true, Ballot: m.Ballot,
		Status: wireStatus[in.status], VBallot: in.vbal,
		Cmd: in.cmd, Seq: in.seq, Deps: in.deps,
	})
}

func (r *Replica) onPrepareReply(m wire.PrepareReply) {
	in := r.lookup(m.Inst)
	if in == nil || !in.preparing || !r.bounded(m.Inst, m.Deps) {
		return
	}
	if !m.OK {
		r.refused(in, m.Ballot)
		return
	}
	if m.Ballot != in.drive || !in.vote(m.From) {
		return
	}
	if m.Status == wire.InstCommitted {
		// Someone has the commit: adopt it and teach everyone
		// (commitInstance re-broadcasts).
		in.cmd = m.Cmd
		in.preparing = false
		r.commitInstance(m.Inst, in, m.Seq, m.Deps)
		return
	}
	in.prep = append(in.prep, prepInfo{
		from: m.From, status: m.Status, vbal: m.VBallot,
		cmd: m.Cmd, seq: m.Seq, deps: m.Deps,
	})
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
	in.voters = in.voters[:0]
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
	var owner *prepInfo
	var anyPre *prepInfo
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
	in.cmd = cmd
	seq, deps := r.attributes(cmd, ref)
	seq = max(seq, seq0)
	deps = mergeDeps(deps, deps0)
	deps = r.capSelfRow(deps, ref, cmd)
	slices.SortFunc(deps, compareRefs)
	in.seq = seq
	in.deps = deps
	in.status = statusPreAccepted
	in.vbal = in.drive
	in.changed = true // never the fast path at a recovery ballot
	in.mergedSeq = seq
	in.mergedDeps = append(in.mergedDeps[:0], deps...)
	in.voters = in.voters[:0]
	in.votesAtSend = 0
	in.lastSend = r.ctx.Now()
	r.recordInterference(ref, cmd, seq)
	r.ctx.Broadcast(r.peers, wire.PreAccept{
		Ballot: in.drive, Inst: ref, Cmd: cmd, Seq: seq, Deps: deps,
	})
	if r.slowQ == 0 { // single-node cluster
		r.commitInstance(ref, in, seq, deps)
	}
}

// -------------------------------------------------------------- sweep --

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
	retryAfter := r.cfg.RetryTimeout
	if adaptive := 3 * r.commitEwma; adaptive > retryAfter {
		retryAfter = adaptive
	}
	for i := range r.rows {
		rw := &r.rows[i]
		for slot := rw.cursor(); slot < rw.win.End(); slot++ {
			in := rw.win.At(slot)
			if in == nil || in.drive.IsZero() || in.status >= statusCommitted {
				continue
			}
			r.retransmit(wire.InstRef{Replica: rw.id, Slot: slot}, in, now, retryAfter)
		}
	}
	for i := range r.rows {
		rw := &r.rows[i]
		for slot := rw.cursor(); slot < rw.win.End(); slot++ {
			in := rw.win.At(slot)
			if in == nil || !in.block.on {
				continue
			}
			if in.status >= statusCommitted {
				in.block = blockState{}
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
	in.lastSend = now
	in.votesAtSend = len(in.voters)
	switch {
	case in.preparing:
		r.ctx.Broadcast(r.peers, wire.Prepare{Ballot: in.drive, Inst: ref})
	case in.status == statusPreAccepted:
		if ref.Replica == r.cfg.ID && in.drive == defaultBallot(ref) &&
			len(in.voters) >= r.slowQ {
			// A majority replied but the fast quorum is not forming
			// (crashed peers): downgrade to the slow path instead of
			// stalling.
			r.stats.SlowPath++
			r.startAccept(ref, in, in.mergedSeq, in.mergedDeps)
			return
		}
		r.ctx.Broadcast(r.peers, wire.PreAccept{
			Ballot: in.drive, Inst: ref, Cmd: in.cmd, Seq: in.seq, Deps: in.deps,
		})
	case in.status == statusAccepted:
		r.ctx.Broadcast(r.peers, wire.Accept{
			Ballot: in.drive, Inst: ref, Cmd: in.cmd, Seq: in.seq, Deps: in.deps,
		})
	}
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

// ---------------------------------------------------------- execution --

// tryExecuteAll attempts to execute every committed instance awaiting its
// dependencies, walking the rows' unexecuted ranges in (replica, slot)
// order. An instance executes once its dependency closure is committed; the
// closure's strongly connected components execute in topological order,
// components internally ordered by (seq, instance id) — the EPaxos
// execution algorithm. Instances whose closure contains uncommitted
// dependencies stay committed-pending and are retried on the next commit or
// retry tick.
func (r *Replica) tryExecuteAll() {
	for i := range r.rows {
		rw := &r.rows[i]
		for slot := rw.cursor(); slot < rw.win.End(); slot++ {
			if in := rw.win.At(slot); in == nil || in.status != statusCommitted {
				continue // executed by an earlier closure this pass, or not committed
			}
			if !r.executeClosure(wire.InstRef{Replica: rw.id, Slot: slot}) {
				r.armRetry()
			}
		}
	}
}

func (r *Replica) armRetry() {
	if r.retryArmed {
		return
	}
	r.retryArmed = true
	if r.retryWait < execRetryInterval {
		r.retryWait = execRetryInterval
	}
	wait := r.retryWait
	if r.retryWait < 128*execRetryInterval {
		r.retryWait *= 2
	}
	r.ctx.After(wait, func() {
		r.retryArmed = false
		r.tryExecuteAll()
	})
}

// tarjan is the scratch of one Tarjan SCC pass restricted to committed
// instances; the per-node marks live in the instances. Uncommitted
// instances do not abort the traversal: they are collected as blockers (and
// treated as sinks) so one failed execution attempt surfaces every missing
// dependency at once; the components are only executed when no blocker was
// found.
type tarjan struct {
	pass     uint64 // stamps the instances this pass indexed
	next     int
	stack    []wire.InstRef
	comps    []wire.InstRef // the components, back to back, in completion order
	ends     []int          // comps[ends[i-1]:ends[i]] is component i
	blockers []wire.InstRef // may repeat: noteBlocked is idempotent
}

// executeClosure runs Tarjan's SCC over the committed dependency graph
// reachable from root and executes finished components. It returns false
// if uncommitted dependencies block the closure — noting every blocker it
// can reach for the recovery sweep, so a deep chain of missing instances
// is recovered in parallel rather than one discovery per timeout.
func (r *Replica) executeClosure(root wire.InstRef) bool {
	t := &r.scc
	t.pass++
	t.next = 0
	t.stack, t.comps, t.ends, t.blockers = t.stack[:0], t.comps[:0], t.ends[:0], t.blockers[:0]
	r.strongConnect(root)
	if len(t.blockers) > 0 {
		r.stats.Blocked++
		for _, b := range t.blockers {
			// The blocker may be unknown here: its cell carries the clock
			// either way.
			if c := r.cell(b); c != nil {
				c.noteBlocked(r.ctx.Now())
			}
		}
		return false
	}
	start := 0
	for _, end := range t.ends {
		comp := t.comps[start:end]
		start = end
		// Within a component, (seq, replica, slot) order: the deterministic
		// tie-break every replica applies identically.
		slices.SortFunc(comp, func(a, b wire.InstRef) int {
			return cmp.Or(cmp.Compare(r.lookup(a).seq, r.lookup(b).seq), compareRefs(a, b))
		})
		for _, ref := range comp {
			if in := r.lookup(ref); in.status != statusExecuted {
				r.execute(ref, in)
			}
		}
	}
	return true
}

// execute applies in (ref's instance) and answers its client; GC may then
// collect it, so in is not valid afterwards.
func (r *Replica) execute(ref wire.InstRef, in *instance) {
	r.retryWait = 0
	in.status = statusExecuted
	in.block = blockState{}
	r.live--
	r.stats.Executions++
	r.ctx.Work(execWork)
	r.apply(ref, in)
	r.execSinceGC++
	if r.execSinceGC >= r.cfg.gcEvery {
		r.execSinceGC = 0
		r.gc()
	}
}

func (r *Replica) apply(ref wire.InstRef, in *instance) {
	if in.cmd.Empty() {
		// No-op anchored by recovery: nothing to apply, nobody to answer.
		r.stats.Noops++
		in.hasClient = false
		return
	}
	cached, fresh := r.sessions.Execute(in.cmd.ClientID, in.cmd.Seq)
	if !fresh {
		// A duplicate instance of an already-executed command (client
		// retry through another command leader): at-most-once suppresses
		// the second apply — identically on every replica, since the
		// execution order of the two interfering instances is the same
		// everywhere. The retry's route is answered from the cache.
		r.stats.Duplicates++
		if in.hasClient {
			in.hasClient = false
			if cached != nil {
				r.ctx.Send(in.client, *cached)
			}
		}
		return
	}
	res := r.store.Apply(in.cmd)
	rep := wire.Reply{
		ClientID: in.cmd.ClientID,
		Seq:      in.cmd.Seq,
		OK:       true,
		Exists:   res.Exists,
		Value:    res.Value,
		Leader:   r.cfg.ID,
		Slot:     ref.Slot,
	}
	if cached != nil {
		*cached = rep
	}
	if in.hasClient {
		in.hasClient = false
		r.ctx.Send(in.client, rep)
	}
}

func (r *Replica) strongConnect(v wire.InstRef) {
	t := &r.scc
	in := r.lookup(v)
	if in == nil {
		if rw := r.row(v.Replica); rw != nil && v.Slot <= rw.floor() {
			return // collected ⇒ executed long ago: a sink
		}
		t.blockers = append(t.blockers, v) // unknown dependency blocks execution
		return
	}
	if in.status < statusCommitted {
		t.blockers = append(t.blockers, v) // uncommitted dependency blocks execution
		return
	}
	r.stats.ExecVisits++
	r.ctx.Work(execVisitWork)
	if in.status == statusExecuted {
		return // executed nodes are sinks; no edges out matter
	}
	in.pass = t.pass
	in.index = t.next
	in.low = t.next
	t.next++
	t.stack = append(t.stack, v)
	in.onStack = true

	// in stays valid through the recursion: the traversal only looks
	// cells up, so the rings do not move.
	for _, w := range in.deps {
		win := r.lookup(w)
		switch {
		case win != nil && win.status == statusExecuted:
		case win == nil || win.pass != t.pass:
			r.strongConnect(w)
			if win != nil && win.pass == t.pass && win.low < in.low {
				in.low = win.low
			}
		case win.onStack && win.index < in.low:
			in.low = win.index
		}
	}

	if in.low == in.index {
		for {
			n := len(t.stack) - 1
			w := t.stack[n]
			t.stack = t.stack[:n]
			r.lookup(w).onStack = false
			t.comps = append(t.comps, w)
			if w == v {
				break
			}
		}
		t.ends = append(t.ends, len(t.comps))
	}
}

// gc collects every row's executed prefix: the window slides up to the
// row's lowest unexecuted slot, raising the floor below which dependency
// checks treat slots as executed. A hole stops it (some older instance is
// still live). The store borrowed the collected commands' values; they are
// returned to it here (see kvstore).
func (r *Replica) gc() {
	for i := range r.rows {
		rw := &r.rows[i]
		cur := rw.cursor()
		r.store.Return(func(yield func(kvstore.Command) bool) {
			for s := rw.win.Base(); s < cur; s++ {
				if !yield(rw.win.At(s).cmd) { // every cell below cur executed
					return
				}
			}
		})
		rw.win.Advance(cur)
	}
	r.stats.GCs++
}
