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
package epaxos

import (
	"sort"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node"
	"pigpaxos/internal/quorum"
	"pigpaxos/internal/sessions"
	"pigpaxos/internal/wire"
)

// Config parameterizes an EPaxos replica.
type Config struct {
	// Cluster is the full membership.
	Cluster config.Cluster
	// ID is this replica's identity.
	ID ids.ID
	// Thrifty sends PreAccepts only to a fast quorum instead of all peers.
	Thrifty bool
	// GCEvery triggers instance-space garbage collection after this many
	// local executions (default 4096; 0 keeps the default — use a
	// negative value to disable GC).
	GCEvery int

	// RetryTimeout re-broadcasts a driven instance's current phase message
	// when it stalls (lost pre-accepts or accepts), and downgrades a
	// stalled fast-path attempt to the slow path once a majority has
	// replied (default 80ms; negative disables retransmits).
	RetryTimeout time.Duration
	// RecoverTimeout is how long execution may stay blocked on an
	// uncommitted instance before this replica takes it over with Explicit
	// Prepare (default 250ms; negative disables recovery).
	RecoverTimeout time.Duration
	// SweepInterval paces the retransmit/recovery sweep timer (default
	// 40ms; negative disables the sweep — and with it retransmits and
	// recovery).
	SweepInterval time.Duration
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
	if c.GCEvery == 0 {
		c.GCEvery = 4096
	}
	if c.RetryTimeout == 0 {
		c.RetryTimeout = 80 * time.Millisecond
	}
	if c.RecoverTimeout == 0 {
		c.RecoverTimeout = 250 * time.Millisecond
	}
	if c.SweepInterval == 0 {
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
func wireStatus(s status) uint8 {
	switch s {
	case statusPreAccepted:
		return wire.InstPreAccepted
	case statusAccepted:
		return wire.InstAccepted
	case statusCommitted, statusExecuted:
		return wire.InstCommitted
	default:
		return wire.InstNone
	}
}

// instance is one cell of the two-dimensional EPaxos instance space.
type instance struct {
	cmd    kvstore.Command
	seq    uint64
	deps   []wire.InstRef
	status status

	// bal is the highest ballot this replica has seen for the instance;
	// vbal the ballot its current (cmd, seq, deps) was (pre-)accepted at.
	bal  ids.Ballot
	vbal ids.Ballot

	// Driver state: drive is nonzero while this replica runs the
	// instance's phases — the original command leader at the instance's
	// default ballot, or a recovery leader at a Prepare ballot. voters
	// dedups phase replies by sender (retransmits and link duplication
	// must not double-count).
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

	rows    map[ids.ID]map[uint64]*instance
	nextOwn uint64

	// Interference tracking: for each key, the latest write and latest
	// operation per instance-space row, for dependency computation.
	lastWrite map[uint64]map[ids.ID]uint64
	lastOp    map[uint64]map[ids.ID]uint64
	// maxSeqWrite tracks the highest write seq per key; maxSeqAny the
	// highest seq of any op. Reads order after writes only, writes after
	// everything — matching the interference relation.
	maxSeqWrite map[uint64]uint64
	maxSeqAny   map[uint64]uint64

	store    *kvstore.Store
	sessions *sessions.Table
	// pendingRef is, per client, the instance this replica opened for the
	// client's latest request: where a retry of it refreshes the route.
	pendingRef map[uint64]wire.InstRef

	// Committed-but-unexecuted instances awaiting their dependencies.
	pendingExec map[wire.InstRef]bool
	retryArmed  bool
	// retryWait is the current execution-retry delay: it doubles on every
	// fruitless blocked retry (up to 128× the base) and resets on
	// progress, so a long-blocked dependency graph is not re-walked every
	// millisecond — commits re-trigger execution directly anyway.
	retryWait time.Duration
	// live counts instances created but not yet executed locally — the
	// working set the interference scan walks.
	live int

	// driving holds the instances this replica currently drives (sweep
	// targets for retransmission); blocked maps an uncommitted instance to
	// its recovery clock (sweep targets for recovery).
	driving   map[wire.InstRef]bool
	blocked   map[wire.InstRef]blockState
	lastSweep time.Duration

	// Row-watermark gossip (anti-entropy): ownFloor is the own-row commit
	// floor (every own slot at or below it is committed here), advertised
	// periodically. Peers compare the watermark against their copy of this
	// replica's row and recover any instance they missed — the EPaxos
	// equivalent of the Paxos family's heartbeat-watermark catch-up,
	// without which a replica partitioned away during a commit whose key
	// never interferes again would stay behind forever. Advertising the
	// commit floor (not the row height) means marks never point at
	// in-flight instances, so clean runs recover nothing. rowSynced
	// remembers, per peer row, the prefix already verified committed, and
	// heard when each peer was last heard from (recovery of a chatty
	// peer's instances waits longer than failover — see sweep).
	ownFloor      uint64
	lastAdvertise time.Duration
	// commitEwma tracks the observed open-to-commit latency of own
	// instances (EWMA, 1/8 gain). The sweep's retransmit timeout rides on
	// it: under a loaded-but-healthy cluster commit latency stretches far
	// past any fixed timeout, and retransmitting into that queueing would
	// amplify it — the adaptive timeout is the same cure TCP applies.
	commitEwma time.Duration
	rowSynced  map[ids.ID]uint64
	heard      map[ids.ID]time.Duration

	// gcFloor[row] is the highest slot such that every instance of the
	// row at or below it has been executed and garbage-collected; a
	// dependency at or below the floor is known-executed.
	gcFloor     map[ids.ID]uint64
	execSinceGC int

	stats Stats
}

// New creates an EPaxos replica.
func New(ctx node.Context, cfg Config) *Replica {
	cfg.applyDefaults()
	r := &Replica{
		ctx:         ctx,
		cfg:         cfg,
		peers:       cfg.Cluster.Peers(cfg.ID),
		n:           cfg.Cluster.N(),
		rows:        make(map[ids.ID]map[uint64]*instance),
		nextOwn:     1,
		lastWrite:   make(map[uint64]map[ids.ID]uint64),
		lastOp:      make(map[uint64]map[ids.ID]uint64),
		maxSeqWrite: make(map[uint64]uint64),
		maxSeqAny:   make(map[uint64]uint64),
		store:       kvstore.New(),
		sessions:    sessions.New(),
		pendingRef:  make(map[uint64]wire.InstRef),
		pendingExec: make(map[wire.InstRef]bool),
		driving:     make(map[wire.InstRef]bool),
		blocked:     make(map[wire.InstRef]blockState),
		rowSynced:   make(map[ids.ID]uint64),
		heard:       make(map[ids.ID]time.Duration),
		gcFloor:     make(map[ids.ID]uint64),
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
	if r.fastQ < r.slowQ {
		r.fastQ = r.slowQ
	}
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
	for _, row := range r.rows {
		for _, in := range row {
			if in.status > statusNone && in.status < statusExecuted {
				n++
			}
		}
	}
	return n
}

// defaultBallot is the ballot an instance starts at: ballot 0 owned by the
// instance's row owner.
func defaultBallot(ref wire.InstRef) ids.Ballot { return ids.NewBallot(0, ref.Replica) }

func (r *Replica) inst(ref wire.InstRef) *instance {
	row, ok := r.rows[ref.Replica]
	if !ok {
		row = make(map[uint64]*instance)
		r.rows[ref.Replica] = row
	}
	in, ok := row[ref.Slot]
	if !ok {
		in = &instance{bal: defaultBallot(ref), vbal: defaultBallot(ref)}
		row[ref.Slot] = in
		r.live++
	}
	return in
}

// scanCost is the interference-scan charge over the live working set,
// capped so a pathological backlog cannot stall virtual time entirely.
func (r *Replica) scanCost() time.Duration {
	n := r.live
	if n > 2000 {
		n = 2000
	}
	return time.Duration(n) * scanWork
}

func (r *Replica) lookup(ref wire.InstRef) *instance {
	if row, ok := r.rows[ref.Replica]; ok {
		return row[ref.Slot]
	}
	return nil
}

// OnMessage dispatches a delivered message. It implements node.Handler.
func (r *Replica) OnMessage(from ids.ID, m wire.Msg) {
	// A crashed replica's timers are skipped, killing the sweep chain; the
	// first delivered message after recovery resurrects it (a live chain
	// never falls this far behind).
	if iv := r.cfg.SweepInterval; iv > 0 && r.ctx.Now()-r.lastSweep > 2*iv {
		r.sweepTick()
	}
	r.heard[from] = r.ctx.Now()
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
		r.onRowMark(from, v)
	}
}

// onRowMark processes a peer's row watermark (carried in a Heartbeat: From
// is the row owner, Commit its own-row commit floor — every advertised
// slot is committed at the owner). Slots at or below the watermark that
// this replica has not committed start the recovery clock: Explicit
// Prepare will fetch them from the quorum. rowSynced caps the rescan at
// the already-verified prefix, so steady-state marks cost nothing.
func (r *Replica) onRowMark(from ids.ID, m wire.Heartbeat) {
	if m.From == r.cfg.ID || m.From.IsZero() {
		return
	}
	base := r.rowSynced[m.From]
	if fl := r.gcFloor[m.From]; fl > base {
		base = fl
	}
	if m.Commit <= base {
		return
	}
	row := r.rows[m.From]
	synced := base
	contig := true
	for slot := base + 1; slot <= m.Commit; slot++ {
		if in := row[slot]; in != nil && in.status >= statusCommitted {
			if contig {
				synced = slot
			}
			continue
		}
		contig = false
		r.noteCommittedElsewhere(wire.InstRef{Replica: m.From, Slot: slot})
	}
	r.rowSynced[m.From] = synced
}

// ----------------------------------------------------------- attributes --

// attributes computes (seq, deps) for cmd as seen by this replica: deps are
// the latest interfering instances per row, seq exceeds every interfering
// sequence number. Deps are sorted by (replica, slot): the interference
// indexes are Go maps, and leaking their iteration order into messages (and
// from there into dependency-graph traversal order and per-dep CPU charges)
// made equal seeds produce different numbers.
func (r *Replica) attributes(cmd kvstore.Command, except wire.InstRef) (uint64, []wire.InstRef) {
	var deps []wire.InstRef
	source := r.lastWrite[cmd.Key]
	if !cmd.IsRead() {
		source = r.lastOp[cmd.Key] // writes order after reads too
	}
	for rep, slot := range source {
		if rep == except.Replica && slot == except.Slot {
			continue
		}
		deps = append(deps, wire.InstRef{Replica: rep, Slot: slot})
	}
	sortRefs(deps)
	if cmd.IsRead() {
		return r.maxSeqWrite[cmd.Key] + 1, deps
	}
	return r.maxSeqAny[cmd.Key] + 1, deps
}

// sortRefs orders instance references by (replica, slot), in place.
func sortRefs(refs []wire.InstRef) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Replica != refs[j].Replica {
			return refs[i].Replica < refs[j].Replica
		}
		return refs[i].Slot < refs[j].Slot
	})
}

// recordInterference registers (ref, cmd, seq) in the conflict indexes.
func (r *Replica) recordInterference(ref wire.InstRef, cmd kvstore.Command, seq uint64) {
	ops := r.lastOp[cmd.Key]
	if ops == nil {
		ops = make(map[ids.ID]uint64)
		r.lastOp[cmd.Key] = ops
	}
	if ref.Slot > ops[ref.Replica] {
		ops[ref.Replica] = ref.Slot
	}
	if !cmd.IsRead() {
		w := r.lastWrite[cmd.Key]
		if w == nil {
			w = make(map[ids.ID]uint64)
			r.lastWrite[cmd.Key] = w
		}
		if ref.Slot > w[ref.Replica] {
			w[ref.Replica] = ref.Slot
		}
	}
	if seq > r.maxSeqAny[cmd.Key] {
		r.maxSeqAny[cmd.Key] = seq
	}
	if !cmd.IsRead() && seq > r.maxSeqWrite[cmd.Key] {
		r.maxSeqWrite[cmd.Key] = seq
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
	row := r.rows[ref.Replica]
	floor := r.gcFloor[ref.Replica]
	for s := ref.Slot - 1; s > floor; s-- {
		if in, ok := row[s]; ok && in.status > statusNone && in.cmd.ConflictsWith(cmd) {
			return s, true
		}
	}
	if floor > 0 && ref.Slot > floor {
		return floor, true
	}
	return 0, false
}

// mergeDeps unions b into a.
func mergeDeps(a, b []wire.InstRef) []wire.InstRef {
	for _, d := range b {
		found := false
		for i, e := range a {
			if e.Replica == d.Replica {
				found = true
				if d.Slot > e.Slot {
					a[i].Slot = d.Slot
				}
				break
			}
		}
		if !found {
			a = append(a, d)
		}
	}
	return a
}

func depsEqual(a, b []wire.InstRef) bool {
	if len(a) != len(b) {
		return false
	}
	for _, d := range a {
		ok := false
		for _, e := range b {
			if e == d {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// vote records a distinct phase reply from id; it reports false for a
// duplicate (retransmitted or link-duplicated replies must not be counted
// twice toward a quorum).
func (in *instance) vote(id ids.ID) bool {
	for _, v := range in.voters {
		if v == id {
			return false
		}
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
func (r *Replica) stopDriving(ref wire.InstRef, in *instance) {
	if in.drive.IsZero() {
		return
	}
	in.drive = 0
	in.preparing = false
	in.prep = nil
	in.voters = in.voters[:0]
	delete(r.driving, ref)
	if in.status < statusCommitted {
		r.noteBlocked(ref)
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
	r.stats.Requests++
	r.ctx.Work(attrWork + r.scanCost())
	ref := wire.InstRef{Replica: r.cfg.ID, Slot: r.nextOwn}
	r.nextOwn++
	seq, deps := r.attributes(m.Cmd, ref)
	in := r.inst(ref)
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
	r.driving[ref] = true

	targets := r.peers
	if r.cfg.Thrifty && r.fastQ < len(targets) {
		targets = targets[:r.fastQ]
	}
	pa := wire.PreAccept{Ballot: in.drive, Inst: ref, Cmd: m.Cmd, Seq: seq, Deps: deps}
	r.ctx.Broadcast(targets, pa)
	if r.fastQ == 0 { // single-node cluster
		r.commitInstance(ref, in, in.seq, in.deps)
	}
}

func (r *Replica) onPreAccept(from ids.ID, m wire.PreAccept) {
	in := r.inst(m.Inst)
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
		r.stopDriving(m.Inst, in)
	}
	seq, deps := r.attributes(m.Cmd, m.Inst)
	changed := false
	if seq > m.Seq {
		changed = true
	} else {
		seq = m.Seq
	}
	merged := mergeDeps(append([]wire.InstRef(nil), m.Deps...), deps)
	merged = r.capSelfRow(merged, m.Inst, m.Cmd)
	if !depsEqual(merged, m.Deps) {
		changed = true
	}
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
	if in == nil || in.drive.IsZero() || in.preparing || in.status != statusPreAccepted {
		return
	}
	if !m.OK {
		if m.Ballot <= in.drive {
			return // a late or duplicated refusal of a superseded round
		}
		// A higher ballot owns this instance now; its driver will finish
		// it (or our recovery sweep will retake it later).
		if m.Ballot > in.bal {
			in.bal = m.Ballot
		}
		r.stopDriving(m.Inst, in)
		return
	}
	if m.Ballot != in.drive || !in.vote(m.From) {
		return // stale round or duplicate reply
	}
	r.ctx.Work(attrWork + time.Duration(len(m.Deps))*depWork)
	if m.Changed {
		in.changed = true
	}
	if m.Seq > in.mergedSeq {
		in.mergedSeq = m.Seq
	}
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
	acc := wire.Accept{
		Ballot: in.drive, Inst: ref,
		Cmd: in.cmd, Seq: seq, Deps: deps,
	}
	r.ctx.Broadcast(r.peers, acc)
	if r.slowQ == 0 { // single-node cluster
		r.commitInstance(ref, in, seq, deps)
	}
}

func (r *Replica) onAccept(from ids.ID, m wire.Accept) {
	in := r.inst(m.Inst)
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
		r.stopDriving(m.Inst, in)
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
		if m.Ballot <= in.drive {
			return // a late or duplicated refusal of a superseded round
		}
		if m.Ballot > in.bal {
			in.bal = m.Ballot
		}
		r.stopDriving(m.Inst, in)
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

func (r *Replica) commitInstance(ref wire.InstRef, in *instance, seq uint64, deps []wire.InstRef) {
	if in.status >= statusCommitted {
		return
	}
	if ref.Replica == r.cfg.ID && in.opened > 0 {
		sample := r.ctx.Now() - in.opened
		r.commitEwma += (sample - r.commitEwma) / 8
	}
	in.seq = seq
	in.deps = deps
	in.status = statusCommitted
	r.stopDriving(ref, in)
	delete(r.blocked, ref)
	if !in.cmd.Empty() {
		r.recordInterference(ref, in.cmd, seq)
	}
	r.stats.Commits++
	cm := wire.Commit{Inst: ref, Cmd: in.cmd, Seq: seq, Deps: deps}
	r.ctx.Broadcast(r.peers, cm)
	r.pendingExec[ref] = true
	r.tryExecuteAll()
}

func (r *Replica) onCommit(m wire.Commit) {
	r.ctx.Work(time.Duration(len(m.Deps)) * depWork)
	in := r.inst(m.Inst)
	if in.status >= statusCommitted {
		return
	}
	in.cmd = m.Cmd
	in.seq = m.Seq
	in.deps = m.Deps
	in.status = statusCommitted
	r.stopDriving(m.Inst, in)
	delete(r.blocked, m.Inst)
	r.stats.Commits++
	if !m.Cmd.Empty() {
		r.recordInterference(m.Inst, m.Cmd, m.Seq)
	}
	r.pendingExec[m.Inst] = true
	r.tryExecuteAll()
}

// ----------------------------------------------------------- recovery --

// startRecovery takes over an instance whose driver is suspected dead: bid
// a ballot above everything seen and gather a majority's knowledge.
func (r *Replica) startRecovery(ref wire.InstRef) {
	in := r.inst(ref)
	if in.status >= statusCommitted || in.preparing {
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
		from: r.cfg.ID, status: wireStatus(in.status), vbal: in.vbal,
		cmd: in.cmd, seq: in.seq,
		deps: append([]wire.InstRef(nil), in.deps...),
	})
	r.driving[ref] = true
	in.lastSend = r.ctx.Now()
	r.ctx.Broadcast(r.peers, wire.Prepare{Ballot: b, Inst: ref})
	if r.slowQ == 0 { // single-node cluster
		r.decideRecovery(ref, in)
	}
}

func (r *Replica) onPrepare(from ids.ID, m wire.Prepare) {
	r.stats.Prepares++
	in := r.inst(m.Inst)
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
		r.stopDriving(m.Inst, in)
	}
	r.ctx.Send(from, wire.PrepareReply{
		Inst: m.Inst, From: r.cfg.ID, OK: true, Ballot: m.Ballot,
		Status: wireStatus(in.status), VBallot: in.vbal,
		Cmd: in.cmd, Seq: in.seq, Deps: in.deps,
	})
}

func (r *Replica) onPrepareReply(m wire.PrepareReply) {
	in := r.lookup(m.Inst)
	if in == nil || !in.preparing {
		return
	}
	if !m.OK {
		if m.Ballot <= in.drive {
			return // a late or duplicated refusal of a superseded round
		}
		if m.Ballot > in.bal {
			in.bal = m.Ballot
		}
		r.stopDriving(m.Inst, in)
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
	if seq0 > seq {
		seq = seq0
	}
	deps = mergeDeps(deps, deps0)
	deps = r.capSelfRow(deps, ref, cmd)
	sortRefs(deps)
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
	if r.cfg.SweepInterval <= 0 {
		return
	}
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
// (masking crashed command leaders and lost commits). Both scans iterate in
// sorted order — map order must not leak into message timing.
func (r *Replica) sweep() {
	now := r.ctx.Now()
	if r.cfg.RetryTimeout > 0 && len(r.driving) > 0 {
		// Adaptive stall threshold: at least RetryTimeout, but well above
		// the commit latency the cluster is currently delivering, so a
		// loaded-but-healthy quorum is never mistaken for loss.
		retryAfter := r.cfg.RetryTimeout
		if adaptive := 3 * r.commitEwma; adaptive > retryAfter {
			retryAfter = adaptive
		}
		refs := make([]wire.InstRef, 0, len(r.driving))
		for ref := range r.driving {
			refs = append(refs, ref)
		}
		sortRefs(refs)
		for _, ref := range refs {
			in := r.lookup(ref)
			if in == nil || in.drive.IsZero() || in.status >= statusCommitted {
				delete(r.driving, ref)
				continue
			}
			if now-in.lastSend < retryAfter {
				continue
			}
			if len(in.voters) > in.votesAtSend {
				// Votes arrived since the last send: the quorum is slow,
				// not lossy. Push the clock instead of retransmitting —
				// blind retransmission under overload amplifies the very
				// queueing that slowed the votes.
				in.votesAtSend = len(in.voters)
				in.lastSend = now
				continue
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
					// A majority replied but the fast quorum is not
					// forming (crashed peers): downgrade to the slow
					// path instead of stalling.
					r.stats.SlowPath++
					r.startAccept(ref, in, in.mergedSeq, in.mergedDeps)
					continue
				}
				// Retransmit to every peer, thrifty or not: the original
				// targets may be the crashed ones.
				r.ctx.Broadcast(r.peers, wire.PreAccept{
					Ballot: in.drive, Inst: ref, Cmd: in.cmd, Seq: in.seq, Deps: in.deps,
				})
			case in.status == statusAccepted:
				r.ctx.Broadcast(r.peers, wire.Accept{
					Ballot: in.drive, Inst: ref, Cmd: in.cmd, Seq: in.seq, Deps: in.deps,
				})
			}
		}
	}
	if r.cfg.RecoverTimeout > 0 && len(r.blocked) > 0 {
		refs := make([]wire.InstRef, 0, len(r.blocked))
		for ref := range r.blocked {
			refs = append(refs, ref)
		}
		sortRefs(refs)
		for _, ref := range refs {
			in := r.lookup(ref)
			if (in != nil && in.status >= statusCommitted) || ref.Slot <= r.gcFloor[ref.Replica] {
				delete(r.blocked, ref)
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
			bs := r.blocked[ref]
			wait := r.cfg.RecoverTimeout
			switch {
			case bs.committedElsewhere || ref.Replica == r.cfg.ID:
			case now-r.heard[ref.Replica] < r.cfg.RecoverTimeout:
				wait = 4 * r.cfg.RecoverTimeout
			case r.recoveryDelegate(ref.Replica, now) != r.cfg.ID:
				wait = 4 * r.cfg.RecoverTimeout
			}
			if now-bs.since < wait {
				continue
			}
			// Re-stamp so a superseded or stalled recovery retries with a
			// fresh (higher) ballot after another full timeout.
			bs.since = now
			r.blocked[ref] = bs
			r.startRecovery(ref)
		}
	}
	// Row-watermark gossip: periodically advertise the own-row commit
	// floor. Pure periodic re-sends are the anti-entropy loop's liveness —
	// a replica partitioned away through any number of marks catches up on
	// the first one it receives after healing — and the marks double as
	// liveness heartbeats: the first one delivered to a freshly recovered
	// replica resurrects its sweep chain (see OnMessage).
	if r.cfg.RecoverTimeout > 0 && now-r.lastAdvertise >= r.cfg.RecoverTimeout {
		row := r.rows[r.cfg.ID]
		if fl := r.gcFloor[r.cfg.ID]; fl > r.ownFloor {
			r.ownFloor = fl
		}
		for {
			in, ok := row[r.ownFloor+1]
			if !ok || in.status < statusCommitted {
				break
			}
			r.ownFloor++
		}
		r.lastAdvertise = now
		r.ctx.Broadcast(r.peers, wire.Heartbeat{From: r.cfg.ID, Commit: r.ownFloor})
	}
}

// blockState is one entry of the recovery clock: when the instance first
// blocked, and whether a row watermark proved it committed at its owner
// (in which case recovery is a plain fetch with no takeover race, and the
// chatty-owner grace period does not apply).
type blockState struct {
	since              time.Duration
	committedElsewhere bool
}

// noteBlocked records that execution is blocked on ref, starting the
// recovery clock if it was not already running.
func (r *Replica) noteBlocked(ref wire.InstRef) {
	if ref == (wire.InstRef{}) {
		return
	}
	if _, ok := r.blocked[ref]; !ok {
		r.blocked[ref] = blockState{since: r.ctx.Now()}
	}
}

// recoveryDelegate is the replica expected to run Explicit Prepare for a
// dead owner's instances: the lowest-ID replica this replica believes
// alive (heard within two timeouts, or itself), the owner excluded. Views
// of liveness coincide closely enough that at most one or two replicas
// elect themselves, instead of the whole cluster superseding one another.
func (r *Replica) recoveryDelegate(owner ids.ID, now time.Duration) ids.ID {
	best := r.cfg.ID
	for _, id := range r.peers {
		if id == owner || id >= best {
			continue
		}
		if now-r.heard[id] < 2*r.cfg.RecoverTimeout {
			best = id
		}
	}
	return best
}

// noteCommittedElsewhere starts (or upgrades) the recovery clock for an
// instance a row watermark proved committed at its owner.
func (r *Replica) noteCommittedElsewhere(ref wire.InstRef) {
	bs, ok := r.blocked[ref]
	if !ok {
		bs = blockState{since: r.ctx.Now()}
	}
	bs.committedElsewhere = true
	r.blocked[ref] = bs
}

// ---------------------------------------------------------- execution --

// tryExecuteAll attempts to execute every pending committed instance. An
// instance executes once its dependency closure is committed; the closure's
// strongly connected components execute in topological order, components
// internally ordered by (seq, instance id) — the EPaxos execution algorithm.
// Instances whose closure contains uncommitted dependencies stay pending and
// are retried on the next commit or retry tick.
func (r *Replica) tryExecuteAll() {
	// Snapshot and sort the pending set: map iteration order would vary the
	// execution attempt order (and with it ExecVisit CPU charges) between
	// equal-seed runs.
	refs := make([]wire.InstRef, 0, len(r.pendingExec))
	for ref := range r.pendingExec {
		refs = append(refs, ref)
	}
	sortRefs(refs)
	for _, ref := range refs {
		if !r.pendingExec[ref] {
			continue // executed as part of an earlier closure this sweep
		}
		in := r.lookup(ref)
		if in == nil || in.status != statusCommitted {
			delete(r.pendingExec, ref)
			continue
		}
		if !r.executeClosure(ref) {
			r.armRetry()
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

// executeClosure runs Tarjan's SCC over the committed dependency graph
// reachable from root and executes finished components. It returns false
// if uncommitted dependencies block the closure — noting every blocker it
// can reach for the recovery sweep, so a deep chain of missing instances
// is recovered in parallel rather than one discovery per timeout.
func (r *Replica) executeClosure(root wire.InstRef) bool {
	t := &tarjan{r: r, index: make(map[wire.InstRef]int), low: make(map[wire.InstRef]int), onStack: make(map[wire.InstRef]bool)}
	t.strongConnect(root)
	if len(t.blockers) > 0 {
		r.stats.Blocked++
		for _, b := range t.blockers {
			r.noteBlocked(b)
		}
		return false
	}
	for _, comp := range t.components {
		sortComponent(comp, r)
		for _, ref := range comp {
			in := r.lookup(ref)
			if in.status == statusExecuted {
				continue
			}
			r.execute(ref, in)
		}
	}
	return true
}

func (r *Replica) execute(ref wire.InstRef, in *instance) {
	r.retryWait = 0
	in.status = statusExecuted
	r.live--
	r.stats.Executions++
	r.ctx.Work(execWork)
	delete(r.pendingExec, ref)
	delete(r.blocked, ref)
	r.execSinceGC++
	if r.cfg.GCEvery > 0 && r.execSinceGC >= r.cfg.GCEvery {
		r.execSinceGC = 0
		r.gc()
	}
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

// tarjan is an iterative-enough Tarjan SCC restricted to committed
// instances. Uncommitted instances do not abort the traversal: they are
// collected as blockers (and treated as sinks) so one failed execution
// attempt surfaces every missing dependency at once; the components are
// only executed when no blocker was found.
type tarjan struct {
	r          *Replica
	index      map[wire.InstRef]int
	low        map[wire.InstRef]int
	stack      []wire.InstRef
	onStack    map[wire.InstRef]bool
	next       int
	components [][]wire.InstRef
	blockers   []wire.InstRef
	blockedSet map[wire.InstRef]bool
}

func (t *tarjan) addBlocker(v wire.InstRef) {
	if t.blockedSet == nil {
		t.blockedSet = make(map[wire.InstRef]bool)
	}
	if !t.blockedSet[v] {
		t.blockedSet[v] = true
		t.blockers = append(t.blockers, v)
	}
}

func (t *tarjan) strongConnect(v wire.InstRef) {
	in := t.r.lookup(v)
	if in == nil {
		if v.Slot <= t.r.gcFloor[v.Replica] {
			return // collected ⇒ executed long ago: a sink
		}
		t.addBlocker(v) // unknown dependency blocks execution
		return
	}
	if in.status < statusCommitted {
		t.addBlocker(v) // uncommitted dependency blocks execution
		return
	}
	t.r.stats.ExecVisits++
	t.r.ctx.Work(execVisitWork)
	if in.status == statusExecuted {
		return // executed nodes are sinks; no edges out matter
	}
	t.index[v] = t.next
	t.low[v] = t.next
	t.next++
	t.stack = append(t.stack, v)
	t.onStack[v] = true

	for _, w := range in.deps {
		win := t.r.lookup(w)
		if win != nil && win.status == statusExecuted {
			continue
		}
		if _, seen := t.index[w]; !seen {
			t.strongConnect(w)
			if lw, ok := t.low[w]; ok && lw < t.low[v] {
				t.low[v] = lw
			}
		} else if t.onStack[w] {
			if t.index[w] < t.low[v] {
				t.low[v] = t.index[w]
			}
		}
	}

	if t.low[v] == t.index[v] {
		var comp []wire.InstRef
		for {
			n := len(t.stack) - 1
			w := t.stack[n]
			t.stack = t.stack[:n]
			t.onStack[w] = false
			comp = append(comp, w)
			if w == v {
				break
			}
		}
		t.components = append(t.components, comp)
	}
}

// gc removes executed prefixes of every instance row, advancing the row's
// floor so later dependency checks treat collected slots as executed. Only
// contiguous executed prefixes are collected (a hole means some older
// instance is still live).
func (r *Replica) gc() {
	for rep, row := range r.rows {
		floor := r.gcFloor[rep]
		for {
			in, ok := row[floor+1]
			if !ok || in.status != statusExecuted {
				break
			}
			delete(row, floor+1)
			floor++
		}
		r.gcFloor[rep] = floor
	}
	r.stats.GCs++
}

// sortComponent orders an SCC by (seq, replica, slot) — the deterministic
// tie-break every replica applies identically.
func sortComponent(comp []wire.InstRef, r *Replica) {
	for i := 1; i < len(comp); i++ {
		for j := i; j > 0; j-- {
			a, b := r.lookup(comp[j-1]), r.lookup(comp[j])
			if less(b, comp[j], a, comp[j-1]) {
				comp[j-1], comp[j] = comp[j], comp[j-1]
			} else {
				break
			}
		}
	}
}

func less(a *instance, ar wire.InstRef, b *instance, br wire.InstRef) bool {
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	if ar.Replica != br.Replica {
		return ar.Replica < br.Replica
	}
	return ar.Slot < br.Slot
}
