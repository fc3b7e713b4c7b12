// Package paxos implements Multi-Paxos with a stable leader, the baseline
// protocol of the paper (Figure 2): phase-1 establishes leadership once,
// phase-2 runs per consensus instance, and phase-3 commits are piggybacked
// onto subsequent phase-2 traffic (or onto heartbeats when idle).
//
// The communication plane is abstracted behind Disseminator, which is the
// only part PigPaxos replaces — mirroring the paper's observation that its
// implementation "required almost no changes to the core Paxos code, and
// focused only on the message passing layer" (§5.1). The decision logic
// (ballots, quorums, log, execution) is identical under both planes.
//
// The leader additionally supports command batching with a bounded
// pipelining window (MaxBatchSize / BatchDelay / MaxInFlight): up to
// MaxBatchSize client commands share one log slot, amortizing the fan-out
// round — the per-message leader cost the paper identifies as the
// bottleneck — over the whole batch. Defaults keep the paper's unbatched
// one-command-per-slot behaviour.
package paxos

import (
	"math"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node"
	"pigpaxos/internal/quorum"
	"pigpaxos/internal/rlog"
	"pigpaxos/internal/sessions"
	"pigpaxos/internal/slots"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
)

// Disseminator abstracts leader fan-out: how a message reaches every
// follower. The direct implementation sends N−1 unicasts; PigPaxos routes
// through relay groups. Fan-in (votes back to the leader) arrives as
// ordinary messages and needs no abstraction here.
type Disseminator interface {
	// FanOut delivers m to every follower.
	FanOut(m wire.Msg)
}

// Direct is the classical Paxos communication plane: unicast to every peer.
// With Thrifty set it unicasts phase-2 messages only to enough followers to
// form a majority (the thrifty optimization discussed in §2.2, at the cost of
// stalling when a contacted node is slow or crashed).
type Direct struct {
	Ctx     node.Context
	Peers   []ids.ID
	Thrifty bool
}

// FanOut implements Disseminator. The broadcast lets live transports
// encode m once for the whole fan-out; the simulator still charges the
// paper's per-recipient CPU cost.
func (d *Direct) FanOut(m wire.Msg) {
	peers := d.Peers
	if _, ok := m.(wire.P2a); ok && d.Thrifty {
		// Contact a majority less one: the self-vote completes it.
		peers = peers[:quorum.MajoritySize(len(peers)+1)-1]
	}
	d.Ctx.Broadcast(peers, m)
}

// Config parameterizes a replica.
type Config struct {
	// Cluster is the full membership and topology.
	Cluster config.Cluster
	// ID is this replica's identity.
	ID ids.ID
	// InitialLeader, when equal to ID, makes this replica bid for
	// leadership immediately at Start (the experiments run with a
	// pre-established stable leader, as in the paper).
	InitialLeader ids.ID
	// Thrifty enables the thrifty phase-2 optimization on the direct
	// plane (ablation).
	Thrifty bool
	// HeartbeatInterval is how often an idle leader announces liveness
	// and its commit watermark. Zero disables heartbeats.
	HeartbeatInterval time.Duration
	// ElectionTimeout is the base follower patience before bidding for
	// leadership (randomized ×[1,2)). Zero disables elections, leaving
	// leadership wherever InitialLeader put it.
	ElectionTimeout time.Duration
	// RetryTimeout, when positive, makes the leader fan a slot's P2a out
	// again, for as long as it leads, every time the slot goes this long
	// without committing — needed for liveness on lossy networks. Under
	// PigPaxos the fan-out draws fresh relays, which makes this the paper's
	// Figure 5b; pigpaxos.New derives a value from its relay timeout when
	// this is zero.
	RetryTimeout time.Duration
	// CompactEvery triggers log compaction after this many local
	// executions, discarding executed entries older than CompactRetain
	// slots below the execution cursor (0 disables compaction).
	CompactEvery int
	// CompactRetain is how many executed slots to keep for catch-up
	// service (default 8192).
	CompactRetain int
	// ReadMode selects how GET commands are served (§4.3's three options).
	ReadMode ReadMode
	// MaxBatchSize caps how many client commands the leader packs into one
	// log slot (default 1 — the paper's unbatched behaviour). Larger
	// batches amortize the 2(N−1)+2 (or 2r+2) message round and the
	// per-slot leaderWork over MaxBatchSize commands.
	MaxBatchSize int
	// BatchDelay holds an under-full batch open this long waiting for more
	// commands before proposing it. Zero never waits: under-full batches
	// flush immediately, so batches only form while the pipelining window
	// is full (group-commit dynamics).
	BatchDelay time.Duration
	// MaxInFlight bounds the number of uncommitted slots the leader keeps
	// in flight (the pipelining window). Zero is unbounded — every batch
	// proposes immediately, as in the seed. A small window creates the
	// backpressure that lets batches accumulate under load.
	MaxInFlight int
	// MaxPending bounds the leader's ingress queue — the batch accumulator
	// (and, symmetrically, the campaign-time request buffer). At the bound
	// new commands are rejected with a wire.Busy carrying a retry-after
	// hint instead of queueing without bound. Zero derives
	// 4×MaxInFlight×MaxBatchSize when MaxInFlight is bounded — a few full
	// pipelines' worth, deep enough that group commit never starves while
	// shed clients sit in backoff, shallow enough that queueing delay stays
	// within a handful of pipeline drains — and leaves ingress unbounded
	// otherwise (the seed behaviour); negative forces unbounded even with
	// a window.
	MaxPending int
	// OverloadLatency, when positive, sheds new commands with Busy while
	// the leader's propose→commit latency EWMA exceeds it. Queue depth is
	// a lagging overload signal; commit latency is the leading one.
	OverloadLatency time.Duration
	// QueueTTL, when positive, drops queued commands that waited longer
	// than this at flush time instead of replicating work whose client has
	// already timed out. A retry of a dropped command finds it nowhere and
	// is re-admitted.
	QueueTTL time.Duration
	// Storage, when non-nil, makes the replica durable: promises and
	// accepts are journaled and flushed before the corresponding protocol
	// reply leaves (sync-before-vote: the vote waits for the flush, the event
	// loop does not — see durability.go), commits are journaled lazily, and a
	// crash-restart rebuilds the replica from snapshot + WAL tail. Nil (the
	// default) keeps the volatile seed behaviour bit-for-bit.
	Storage wal.Storage
	// SnapshotEvery, with Storage set, checkpoints the state machine after
	// this many locally executed commands and compacts the log and journal
	// to the snapshot floor. Zero disables snapshots (the WAL grows without
	// bound and restart replays it in full).
	SnapshotEvery int
}

// ReadMode selects a read path (paper §4.3).
type ReadMode int

const (
	// ReadLog serializes reads through the replicated log (the paper's
	// default): a full consensus round per read, always linearizable.
	ReadLog ReadMode = iota
	// ReadLease serves reads from the leader's local state while it holds
	// a majority-acknowledged heartbeat lease: linearizable, one round
	// trip, no log traffic.
	ReadLease
	// ReadAny serves reads from whichever replica receives them. Fast but
	// only eventually consistent — provided for comparison; the
	// linearizability checker rejects histories produced this way under
	// contention.
	ReadAny
)

// The simulator's CPU charges and the catch-up page size.
const (
	// leaderWork is CPU charged per proposed slot at the leader (decision
	// making, tallying, reply preparation). Batching amortizes it over the
	// slot's whole command batch; with MaxBatchSize 1 it is charged per
	// command, as in the paper's model.
	leaderWork = 20 * time.Microsecond
	// execWork is CPU charged per command executed at any replica.
	execWork = 5 * time.Microsecond
	// catchupBatch caps the entries in one CatchupReply.
	catchupBatch = 128
)

// leaseDuration is how long a majority of heartbeat acks entitles the leader
// to serve local reads under ReadLease. Followers refuse to campaign within
// their promise window, so a partitioned old leader's lease always expires
// before a new leader can commit writes.
func (c *Config) leaseDuration() time.Duration { return 4 * c.HeartbeatInterval }

func (c *Config) applyDefaults() {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 20 * time.Millisecond
	}
	if c.CompactRetain == 0 {
		c.CompactRetain = 8192
	}
	if c.MaxBatchSize <= 0 {
		c.MaxBatchSize = 1
	}
	if c.MaxBatchSize > math.MaxUint16 {
		// The wire format carries batch counts as uint16.
		c.MaxBatchSize = math.MaxUint16
	}
	if c.MaxPending == 0 && c.MaxInFlight > 0 {
		c.MaxPending = 4 * c.MaxInFlight * c.MaxBatchSize
	}
	if c.MaxPending < 0 {
		c.MaxPending = 0
	}
	if c.ReadMode == ReadLease && c.ElectionTimeout > 0 && c.ElectionTimeout < 2*c.leaseDuration() {
		// A follower must never campaign inside a window it promised to
		// the leader.
		c.ElectionTimeout = 2 * c.leaseDuration()
	}
}

// route remembers which client to answer once a slot executes.
type route struct {
	client   ids.ID
	clientID uint64
	seq      uint64
}

// proposal is the leader's volatile state for one slot, from the moment the
// slot is handed a batch until it executes. The tally and its timestamp live
// while the slot is voting (proposed under the current ballot, not yet
// committed); the routes outlive a lost ballot, so a re-elected leader still
// answers the clients whose commands it re-proposes.
type proposal struct {
	votes      quorum.Tally  // phase-2 votes, self-vote included
	voting     bool          // tally open: occupies the pipelining window
	proposedAt time.Duration // feeds the propose→commit latency EWMA
	routes     []route       // aligned with the slot's batch
}

// Stats counts protocol events for experiments and tests.
type Stats struct {
	Requests     uint64 // client requests received while leader
	Redirects    uint64 // requests redirected to the leader
	Commits      uint64 // slots committed locally
	Executions   uint64 // commands applied to the state machine
	Elections    uint64 // phase-1 rounds started by this node
	Duplicates   uint64 // retries the session table caught, at admission or execution
	Catchups     uint64 // catch-up requests sent
	Retransmits  uint64 // P2a re-broadcasts on lossy networks
	Compactions  uint64 // log compaction sweeps
	LeaseReads   uint64 // reads served from the leader's lease
	LocalReads   uint64 // reads served unsafely by ReadAny
	Batches      uint64 // slots proposed by this node as leader
	BatchedCmds  uint64 // client commands packed into those slots
	WALSyncs     uint64 // journal flushes started (one fsync each)
	Snapshots    uint64 // state-machine checkpoints saved locally
	SnapSends    uint64 // snapshots shipped to laggards (SnapInstall)
	SnapRestores uint64 // snapshots installed from a peer or at boot
	SnapRejects  uint64 // peer snapshots dropped because the blob did not parse

	Busy           uint64 // client requests shed with wire.Busy (overload)
	DroppedExpired uint64 // queued commands dropped at flush after QueueTTL
	MaxQueueDepth  uint64 // high-water mark of the ingress queue
}

// MeanBatchSize reports commands per proposed slot (1.0 when unbatched).
func (s Stats) MeanBatchSize() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchedCmds) / float64(s.Batches)
}

// Replica is one Multi-Paxos node. It is single-threaded: the substrate
// serializes all OnMessage and timer callbacks.
type Replica struct {
	ctx  node.Context
	cfg  Config
	diss Disseminator

	ballot   ids.Ballot // highest ballot seen
	active   bool       // leader with completed phase-1
	majority int        // the quorum size of both phases

	log   *rlog.Log
	store *kvstore.Store

	// Leader state.
	p1q         *quorum.Threshold
	promised    bool   // our promise to our own campaign ballot is durable
	p1MaxFloor  uint64 // highest compaction floor reported in phase-1
	p1FloorFrom ids.ID // promiser that reported p1MaxFloor
	buffered    []pendingRequest
	announced   uint64 // commit watermark last disseminated
	sessions    *sessions.Table

	// In-flight slots are dense between the execution cursor and the
	// proposal cursor, so their state is a ring indexed by slot, and their
	// retransmit timeouts share one armed timer.
	inflight slots.Window[proposal]
	voting   int // cells with an open tally
	self     int // this replica's index in cfg.Cluster.Nodes
	retx     *slots.Timers[struct{}]

	// Batch accumulator: commands admitted by the leader but not yet
	// proposed into a slot.
	pending    cmdQueue
	batchTimer node.Timer
	batchDue   bool // BatchDelay expired; flush even under-full

	// Overload state: the propose→commit latency EWMA (gain 1/8), fed by
	// each voting slot's proposedAt as it commits.
	commitEWMA time.Duration

	// Follower state.
	lastLeaderContact time.Duration
	electionTimer     node.Timer
	campaignRetry     node.Timer
	catchupInFlight   bool
	execSinceCompact  int
	// heardBallot's leader has announced every slot below heardCommit
	// committed (the highest watermark seen under that ballot).
	heardBallot ids.Ballot
	heardCommit uint64

	// Durability state (nil/zero when running volatile).
	st            wal.Storage
	execSinceSnap int
	journalBallot ids.Ballot // highest ballot a journaled record carries
	flush         flusher
	// What parked votes do when their flush is over, bound once.
	voteDurable, selfVoteDurable, promiseDurable, selfPromiseDurable Release

	// Lease state: followers promise not to campaign until
	// leasePromiseUntil; the leader holds ack timestamps and serves local
	// reads while a majority acked within leaseDuration.
	leasePromiseUntil time.Duration
	ackTimes          map[ids.ID]time.Duration

	stats Stats
}

type pendingRequest struct {
	from ids.ID
	req  wire.Request
}

// pendingCmd is one command waiting in the leader's batch accumulator.
type pendingCmd struct {
	from     ids.ID
	cmd      kvstore.Command
	enqueued time.Duration // admission time, for the QueueTTL expiry check
}

// cmdQueue is the batch accumulator's FIFO. Taking from the front moves a
// head index instead of reslicing the array away from under append, which
// would then regrow it forever; the live commands slide back to the front
// when the array is full and mostly dead.
type cmdQueue struct {
	buf  []pendingCmd
	head int
}

func (q *cmdQueue) len() int { return len(q.buf) - q.head }

// items is the queue's content, oldest first; it is good until the next push.
func (q *cmdQueue) items() []pendingCmd { return q.buf[q.head:] }

func (q *cmdQueue) push(c pendingCmd) {
	if len(q.buf) == cap(q.buf) && q.head >= q.len() {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, c)
}

// drop removes the n oldest commands.
func (q *cmdQueue) drop(n int) {
	clear(q.buf[q.head : q.head+n]) // let go of the commands' values
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// New creates a replica. If diss is nil a Direct plane over the cluster's
// peers is used.
func New(ctx node.Context, cfg Config, diss Disseminator) *Replica {
	cfg.applyDefaults()
	r := &Replica{
		ctx:      ctx,
		cfg:      cfg,
		diss:     diss,
		majority: quorum.MajoritySize(cfg.Cluster.N()),
		log:      rlog.New(),
		store:    kvstore.New(),
		sessions: sessions.New(),
		ackTimes: make(map[ids.ID]time.Duration),
	}
	r.self = r.memberIndex(cfg.ID)
	r.retx = slots.NewTimers(ctx, r.retransmit)
	r.initFlusher()
	if r.diss == nil {
		r.diss = &Direct{Ctx: ctx, Peers: cfg.Cluster.Peers(cfg.ID), Thrifty: cfg.Thrifty}
	}
	if cfg.Storage != nil {
		r.st = cfg.Storage
		r.recoverFromStorage()
	}
	return r
}

// Start launches the replica: the designated initial leader bids
// immediately; everyone else arms its election timer (when enabled).
func (r *Replica) Start() {
	if r.cfg.InitialLeader == r.cfg.ID {
		r.campaign()
		return
	}
	r.armElectionTimer()
}

// ID returns the replica's node ID.
func (r *Replica) ID() ids.ID { return r.cfg.ID }

// Ballot returns the highest ballot this replica has seen.
func (r *Replica) Ballot() ids.Ballot { return r.ballot }

// IsLeader reports whether the replica is an active leader.
func (r *Replica) IsLeader() bool { return r.active }

// Leader returns the node this replica believes leads (the ballot owner).
func (r *Replica) Leader() ids.ID { return r.ballot.ID() }

// Store exposes the replicated state machine.
func (r *Replica) Store() *kvstore.Store { return r.store }

// Log exposes the replicated log (tests, and the relay's bound on the slots
// it tracks).
func (r *Replica) Log() *rlog.Log { return r.log }

// Stats returns a copy of the event counters.
func (r *Replica) Stats() Stats { return r.stats }

// QueueDepth is the current leader ingress queue occupancy (batch
// accumulator plus campaign-time buffer).
func (r *Replica) QueueDepth() int { return r.pending.len() + len(r.buffered) }

// CommitLatencyEWMA is the smoothed propose→commit latency driving the
// overload detector (zero until the first commit).
func (r *Replica) CommitLatencyEWMA() time.Duration { return r.commitEWMA }

// OnMessage dispatches a delivered message. It implements node.Handler.
func (r *Replica) OnMessage(from ids.ID, m wire.Msg) {
	switch v := m.(type) {
	case wire.Request:
		r.OnRequest(from, v)
	case wire.P1a:
		r.OnP1a(from, v)
	case wire.P1b:
		r.OnP1b(v)
	case wire.P2a:
		r.OnP2a(from, v)
	case wire.P2b:
		r.OnP2b(v)
	case wire.P3:
		r.OnP3(v)
	case wire.Heartbeat:
		r.OnHeartbeat(v)
	case wire.CatchupReq:
		r.OnCatchupReq(from, v)
	case wire.CatchupReply:
		r.OnCatchupReply(v)
	case wire.SnapInstall:
		r.OnSnapInstall(v)
	case wire.HeartbeatAck:
		r.OnHeartbeatAck(v)
	}
}

// ------------------------------------------------------------- elections --

// abortProposals discards in-flight phase-2 state (vote tallies and
// retransmit timers) once this node's proposals can no longer commit under
// its ballot — on losing leadership or opening a fresh campaign. Stale
// entries would otherwise count against the pipelining window forever,
// shrinking or wedging it after re-election.
func (r *Replica) abortProposals() {
	r.retx.Clear()
	for s := r.inflight.Base(); s < r.inflight.End(); s++ {
		r.inflight.At(s).voting = false
	}
	r.voting = 0
}

// memberIndex returns id's position in the membership list (what a Tally
// counts by), or -1 for a non-member.
func (r *Replica) memberIndex(id ids.ID) int {
	for i, m := range r.cfg.Cluster.Nodes {
		if m == id {
			return i
		}
	}
	return -1
}

// Campaign makes the replica bid for leadership now, regardless of its
// failure detector's opinion of the current leader. Operators (and the chaos
// injector's LeaderPlacementFlip) use it to move the leader into a chosen
// region; the bid carries a higher ballot, so the incumbent steps down on
// first contact. A no-op on a node that already leads.
func (r *Replica) Campaign() {
	if r.active {
		return
	}
	r.campaign()
}

func (r *Replica) campaign() {
	r.stats.Elections++
	r.abortProposals()
	r.ballot = r.ballot.Next(r.cfg.ID)
	r.active = false
	r.journalPromise()
	r.p1q = quorum.NewThreshold(r.cfg.Cluster.N(), r.majority)
	r.p1MaxFloor, r.p1FloorFrom = 0, 0
	r.promised = false
	// The bid reveals nothing that must survive a crash, so it leaves at
	// once. The promise to ourselves does: without it this node does not win
	// (see selfPromise), so no value is ever proposed under a ballot a restart
	// could forget and hand out again.
	r.diss.FanOut(wire.P1a{Ballot: r.ballot, From: r.log.ExecuteCursor()})
	r.WhenDurable(r.selfPromiseDurable, 0, r.ballot, r.cfg.ID)
	if !r.active { // a single-node cluster has won already
		r.armCampaignRetry()
	}
}

// selfPromise counts a campaigner's own promise once it is durable.
func (r *Replica) selfPromise(_ uint64, b ids.Ballot, _ ids.ID) {
	if r.ballot != b || r.active || r.p1q == nil {
		return // the campaign it belonged to is over
	}
	r.promised = true
	r.p1q.ACK(r.cfg.ID)
	if r.p1q.Satisfied() {
		r.becomeLeader(nil)
	}
}

// armCampaignRetry re-bids after a delay if phase-1 stalls (lost messages,
// peers not yet listening — a live-deployment bootstrap concern the
// simulator never hits). The retry aborts if another node took over.
func (r *Replica) armCampaignRetry() {
	if r.campaignRetry != nil {
		r.campaignRetry.Stop()
	}
	retry := r.cfg.ElectionTimeout
	if retry <= 0 {
		retry = 150 * time.Millisecond
	}
	r.campaignRetry = r.ctx.After(retry, func() {
		if r.active || r.ballot.ID() != r.cfg.ID {
			return
		}
		r.campaign()
	})
}

func (r *Replica) armElectionTimer() {
	if r.cfg.ElectionTimeout <= 0 {
		return
	}
	if r.electionTimer != nil {
		r.electionTimer.Stop()
	}
	d := r.cfg.ElectionTimeout + time.Duration(r.ctx.Rand().Int63n(int64(r.cfg.ElectionTimeout)))
	r.electionTimer = r.ctx.After(d, func() {
		if r.active {
			return
		}
		if r.ctx.Now() < r.leasePromiseUntil {
			// Promised the current leader a read lease; do not contest.
			r.armElectionTimer()
			return
		}
		if r.ctx.Now()-r.lastLeaderContact >= r.cfg.ElectionTimeout {
			r.campaign()
		}
		r.armElectionTimer()
	})
}

// PromiseP1a applies a phase-1 bid locally — adopting its ballot if higher
// and journaling the promise — and reports whether the bid was promised
// (false: it is below our ballot, and the answer is a NACK). The answer,
// P1bFor, reveals the ballot either way and may leave only WhenDurable.
// Exposed for relay aggregation.
func (r *Replica) PromiseP1a(m wire.P1a) bool {
	if m.Ballot > r.ballot {
		r.stepDown(m.Ballot)
		r.lastLeaderContact = r.ctx.Now()
	}
	r.journalPromise()
	return m.Ballot == r.ballot
}

// P1bFor builds this replica's phase-1 answer for a campaigner whose
// execution cursor is low: a promise if the replica's ballot is still the
// campaigner's, a NACK carrying the higher ballot otherwise.
func (r *Replica) P1bFor(low uint64) wire.P1b {
	reply := wire.P1b{Ballot: r.ballot, From: r.cfg.ID, Floor: r.log.FirstSlot()}
	// Report every known entry from the campaigner's cursor up — committed
	// ones included, flagged, so a lagging winner installs them as commits
	// instead of proposing no-op fillers over anchored slots (which would
	// make one (ballot, slot) pair carry two values, breaking the
	// same-ballot watermark commit rule).
	if low < 1 {
		low = 1
	}
	for slot := low; slot < r.log.PeekNextSlot() && len(reply.Entries) < math.MaxUint16; slot++ {
		e := r.log.Get(slot)
		if e == nil {
			continue // gap, or compacted (an extreme lagger re-asks via catch-up)
		}
		reply.Entries = append(reply.Entries, wire.SlotEntry{
			Slot: slot, Ballot: e.Ballot, Committed: e.Committed, Cmds: e.Commands,
		})
	}
	return reply
}

// OnP1a handles a direct phase-1 bid: apply locally, answer the bidder once
// the promise is durable.
func (r *Replica) OnP1a(from ids.ID, m wire.P1a) {
	r.PromiseP1a(m)
	r.WhenDurable(r.promiseDurable, m.From, m.Ballot, from)
}

func (r *Replica) sendP1b(low uint64, _ ids.Ballot, to ids.ID) {
	r.ctx.Send(to, r.P1bFor(low))
}

// OnP1b tallies phase-1 promises at a campaigning node.
func (r *Replica) OnP1b(m wire.P1b) {
	if m.Ballot > r.ballot {
		// Someone promised a higher ballot: our campaign lost.
		r.stepDown(m.Ballot)
		r.armElectionTimer()
		return
	}
	if m.Ballot < r.ballot || r.active || r.p1q == nil {
		return // stale or already elected
	}
	r.p1q.ACK(m.From)
	if m.Floor > r.p1MaxFloor {
		r.p1MaxFloor, r.p1FloorFrom = m.Floor, m.From
	}
	r.recoverEntries(m.Entries)
	if r.promised && r.p1q.Satisfied() {
		r.becomeLeader(nil)
	}
}

// recoverEntries installs phase-1 knowledge: committed entries are
// authoritative and land as commits; uncommitted ones accumulate the
// highest-ballot value seen per slot.
func (r *Replica) recoverEntries(entries []wire.SlotEntry) {
	for _, e := range entries {
		if e.Committed {
			r.log.Commit(e.Slot, e.Ballot, e.Cmds)
			r.stats.Commits++
			continue
		}
		cur := r.log.Get(e.Slot)
		if cur == nil || (!cur.Committed && e.Ballot > cur.Ballot) {
			r.log.Accept(e.Slot, e.Ballot, e.Cmds)
		}
	}
}

func (r *Replica) becomeLeader(_ []wire.SlotEntry) {
	r.active = true
	r.p1q = nil
	// Apply commits learned during phase-1 before proposing, so the
	// re-propose loop below starts past everything already anchored.
	r.execute()
	// Re-propose every accepted-but-uncommitted slot under our ballot,
	// filling log gaps with no-ops, so earlier instances anchor before new
	// commands enter. Their commands count as admitted here: a retry of one
	// re-attaches to its slot instead of opening a second.
	low := r.log.ExecuteCursor()
	if r.p1MaxFloor > low {
		// A promiser's compaction floor is above our cursor: every slot
		// below it was committed, executed and checkpointed somewhere, but
		// nobody can report those slots any more. Their silence is NOT
		// license to fill with no-ops — skip past the floor and pull the
		// checkpoint holder's snapshot instead.
		r.catchupToFloor(r.p1FloorFrom, r.p1MaxFloor)
		low = r.p1MaxFloor
	}
	high := r.log.PeekNextSlot()
	for slot := low; slot < high; slot++ {
		e := r.log.Get(slot)
		if e != nil && e.Committed {
			continue
		}
		var cmds []kvstore.Command
		if e != nil {
			cmds = e.Commands
		}
		for _, c := range cmds {
			r.sessions.MarkAdmitted(c.ClientID, c.Seq)
		}
		r.propose(slot, cmds)
	}
	// Serve requests buffered during the campaign.
	buf := r.buffered
	r.buffered = nil
	for _, p := range buf {
		r.OnRequest(p.from, p.req)
	}
	r.scheduleHeartbeat()
}

func (r *Replica) scheduleHeartbeat() {
	if r.cfg.HeartbeatInterval <= 0 {
		return
	}
	r.ctx.After(r.cfg.HeartbeatInterval, func() {
		if !r.active {
			return
		}
		r.diss.FanOut(wire.Heartbeat{Ballot: r.ballot, From: r.cfg.ID, Commit: r.commitWatermark()})
		r.announced = r.commitWatermark()
		r.scheduleHeartbeat()
	})
}

// ---------------------------------------------------------------- client --

// OnRequest handles a client command: the leader proposes it, everyone else
// redirects the client to the leader it knows.
func (r *Replica) OnRequest(from ids.ID, m wire.Request) {
	if m.Cmd.IsRead() && r.cfg.ReadMode == ReadAny {
		// Serve locally, consistency be damned (§4.3's "reading from any
		// replica... compromises the consistency guarantee").
		r.stats.LocalReads++
		r.ctx.Work(execWork)
		v, ok := r.store.Get(m.Cmd.Key)
		r.ctx.Send(from, wire.Reply{
			ClientID: m.Cmd.ClientID, Seq: m.Cmd.Seq, OK: true,
			Exists: ok, Value: v, Leader: r.cfg.ID,
		})
		return
	}
	if !r.active {
		if r.cfg.InitialLeader == r.cfg.ID || (r.p1q != nil && r.ballot.ID() == r.cfg.ID) {
			// Mid-campaign: buffer until elected — bounded like the live
			// ingress queue, so a slow election cannot hoard memory.
			if r.cfg.MaxPending > 0 && len(r.buffered) >= r.cfg.MaxPending {
				r.rejectBusy(from, m.Cmd)
				return
			}
			r.buffered = append(r.buffered, pendingRequest{from: from, req: m})
			r.noteQueueDepth()
			return
		}
		r.stats.Redirects++
		r.ctx.Send(from, wire.Reply{
			ClientID: m.Cmd.ClientID,
			Seq:      m.Cmd.Seq,
			OK:       false,
			Leader:   r.ballot.ID(),
		})
		return
	}
	// At-most-once: a retried command that already executed is answered
	// from the session cache; one still in flight gets its reply route
	// refreshed (its reply goes out when it executes).
	switch v, cached := r.sessions.Admit(m.Cmd.ClientID, m.Cmd.Seq); {
	case v == sessions.Executed || v == sessions.Stale:
		r.stats.Duplicates++
		if cached != nil {
			r.ctx.Send(from, *cached)
		}
		return
	case v == sessions.Pending && r.reroute(from, m.Cmd):
		r.stats.Duplicates++
		return
	}
	if m.Cmd.IsRead() && r.cfg.ReadMode == ReadLease && r.leaseValid() {
		// Lease read: serve locally. The leader's store reflects every
		// committed write, and the lease guarantees no other leader can have
		// committed newer ones. It bypasses the log, so the session table —
		// which every replica rebuilds from the log — does not record it; a
		// retry is served afresh.
		r.stats.LeaseReads++
		r.ctx.Work(execWork)
		v, ok := r.store.Get(m.Cmd.Key)
		r.ctx.Send(from, wire.Reply{
			ClientID: m.Cmd.ClientID, Seq: m.Cmd.Seq, OK: true,
			Exists: ok, Value: v, Leader: r.cfg.ID,
		})
		return
	}
	// Admission control: shed before the session table records the command,
	// so a retry of it is Fresh.
	if r.overloaded() {
		r.rejectBusy(from, m.Cmd)
		return
	}
	r.sessions.MarkAdmitted(m.Cmd.ClientID, m.Cmd.Seq)
	r.stats.Requests++
	r.pending.push(pendingCmd{from: from, cmd: m.Cmd, enqueued: r.ctx.Now()})
	r.noteQueueDepth()
	r.flushBatches()
}

// overloaded reports whether the leader must shed the next command: the
// ingress queue is at MaxPending, or the commit-latency EWMA crossed the
// configured overload threshold.
func (r *Replica) overloaded() bool {
	if r.cfg.MaxPending > 0 && r.pending.len() >= r.cfg.MaxPending {
		return true
	}
	return r.cfg.OverloadLatency > 0 && r.commitEWMA > r.cfg.OverloadLatency
}

// rejectBusy sheds one command with a wire.Busy. The client should stay on
// this leader and retry the same sequence number after RetryAfter.
func (r *Replica) rejectBusy(from ids.ID, cmd kvstore.Command) {
	r.stats.Busy++
	r.ctx.Send(from, wire.Busy{
		ClientID: cmd.ClientID, Seq: cmd.Seq, Leader: r.cfg.ID,
		RetryAfter: r.retryAfterHint(),
	})
}

// retryAfterHint suggests how long a shed client should back off: one
// smoothed commit latency (the time for the queue to make real progress),
// floored at 1ms and capped at 100ms so a latency spike cannot park the
// client fleet indefinitely.
func (r *Replica) retryAfterHint() time.Duration {
	d := r.commitEWMA
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// noteQueueDepth tracks the ingress-queue high-water mark.
func (r *Replica) noteQueueDepth() {
	if d := uint64(r.QueueDepth()); d > r.stats.MaxQueueDepth {
		r.stats.MaxQueueDepth = d
	}
}

// reroute points the reply of a command admitted here and not yet executed
// at from, in case the client moved, and reports whether it found the
// command: in the batch accumulator, or in an unexecuted slot — one this
// leader proposed, or one becomeLeader re-proposed after the route was
// dropped on a step-down, where the route is re-attached (re-admitting would
// commit the command in two slots). A command found nowhere was discarded
// before reaching a slot, and the caller re-admits it.
func (r *Replica) reroute(from ids.ID, cmd kvstore.Command) bool {
	for i, p := range r.pending.items() {
		if p.cmd.ClientID == cmd.ClientID && p.cmd.Seq == cmd.Seq {
			r.pending.items()[i].from = from
			return true
		}
	}
	for slot := r.log.ExecuteCursor(); slot < r.log.PeekNextSlot(); slot++ {
		e := r.log.Get(slot)
		if e == nil || e.Executed {
			continue
		}
		for idx, c := range e.Commands {
			if c.ClientID == cmd.ClientID && c.Seq == cmd.Seq {
				p := r.inflight.Cover(slot)
				for len(p.routes) <= idx {
					p.routes = append(p.routes, route{})
				}
				p.routes[idx] = route{client: from, clientID: cmd.ClientID, seq: cmd.Seq}
				return true
			}
		}
	}
	return false
}

// windowOpen reports whether the pipelining window admits another slot. Past
// MaxInFlight, the log itself stops taking slots slots.MaxAhead above the
// execution cursor; proposing into one would leave a hole nothing fills.
func (r *Replica) windowOpen() bool {
	if r.cfg.MaxInFlight > 0 && r.voting >= r.cfg.MaxInFlight {
		return false
	}
	return r.log.PeekNextSlot()-r.log.ExecuteCursor() < slots.MaxAhead
}

// flushBatches proposes pending commands into slots, packing up to
// MaxBatchSize commands per slot, while the pipelining window has room. An
// under-full batch is held open for BatchDelay (when configured); otherwise
// it flushes immediately, so batches form exactly while the window is full
// — classic group commit. Called on request arrival, on commit (the window
// may have opened), and when the batch timer fires.
func (r *Replica) flushBatches() {
	r.dropExpired()
	for r.active && r.pending.len() > 0 && r.windowOpen() {
		if r.pending.len() < r.cfg.MaxBatchSize && r.cfg.BatchDelay > 0 && !r.batchDue {
			if r.batchTimer == nil {
				r.batchTimer = r.ctx.After(r.cfg.BatchDelay, func() {
					r.batchTimer = nil
					r.batchDue = true
					r.flushBatches()
				})
			}
			return
		}
		take := min(r.pending.len(), r.cfg.MaxBatchSize)
		cmds := make([]kvstore.Command, take)
		rts := make([]route, take)
		for i, p := range r.pending.items()[:take] {
			cmds[i] = p.cmd
			rts[i] = route{client: p.from, clientID: p.cmd.ClientID, seq: p.cmd.Seq}
		}
		r.dropPending(take)
		slot := r.log.NextSlot()
		r.inflight.Cover(slot).routes = rts
		r.stats.Batches++
		r.stats.BatchedCmds += uint64(take)
		r.ctx.Work(leaderWork)
		r.propose(slot, cmds)
	}
}

// dropExpired discards queued commands that waited longer than QueueTTL:
// their clients have already timed out, so proposing them would replicate
// dead work. The queue is FIFO, so expired commands form a prefix. No reply
// is sent — the client is gone — and the dropped sequence number stays
// re-admittable via the session table's truly-gone retry path.
func (r *Replica) dropExpired() {
	if r.cfg.QueueTTL <= 0 {
		return
	}
	cutoff := r.ctx.Now() - r.cfg.QueueTTL
	n := 0
	for _, p := range r.pending.items() {
		if p.enqueued >= cutoff {
			break
		}
		n++
	}
	if n == 0 {
		return
	}
	r.stats.DroppedExpired += uint64(n)
	r.dropPending(n)
}

// dropPending removes the n oldest queued commands; an emptied queue has no
// under-full batch left to hold open.
func (r *Replica) dropPending(n int) {
	r.pending.drop(n)
	if r.pending.len() > 0 {
		return
	}
	r.batchDue = false
	if r.batchTimer != nil {
		r.batchTimer.Stop()
		r.batchTimer = nil
	}
}

// leaseValid reports whether a majority of the cluster (counting this
// leader) acknowledged a heartbeat within the lease window.
func (r *Replica) leaseValid() bool {
	if !r.active {
		return false
	}
	now := r.ctx.Now()
	fresh := 1 // self
	for _, at := range r.ackTimes {
		if now-at < r.cfg.leaseDuration() {
			fresh++
		}
	}
	return fresh >= quorum.MajoritySize(r.cfg.Cluster.N())
}

// OnHeartbeatAck records a follower's lease acknowledgment.
func (r *Replica) OnHeartbeatAck(m wire.HeartbeatAck) {
	if m.Ballot != r.ballot || !r.active {
		return
	}
	r.ackTimes[m.From] = r.ctx.Now()
}

// propose runs phase-2 for (slot, cmds) under the current ballot.
func (r *Replica) propose(slot uint64, cmds []kvstore.Command) {
	r.log.Accept(slot, r.ballot, cmds)
	r.noteJournaled(r.ballot)
	p := r.inflight.Cover(slot)
	if !p.voting {
		p.voting = true
		r.voting++
	}
	p.votes = quorum.Tally{}
	p.proposedAt = r.ctx.Now()
	m := wire.P2a{Ballot: r.ballot, Slot: slot, Cmds: cmds, Commit: r.commitWatermark()}
	r.announced = m.Commit
	r.diss.FanOut(m)
	// The leader's self-vote counts toward the quorum, so its own accept must
	// be as durable as a follower's: the vote waits for the flush while the
	// followers already work on theirs. One flush covers every slot proposed
	// since the last (group commit).
	r.WhenDurable(r.selfVoteDurable, slot, r.ballot, r.cfg.ID)
	if p := r.inflight.At(slot); p != nil && p.voting { // not so on a single-node cluster
		r.armRetransmit(slot)
	}
}

// selfVote counts the leader's own accept of slot under b once it is
// durable — unless the proposal it belonged to is gone: the leader stepped
// down or was re-elected under another ballot, or the slot's tally closed.
func (r *Replica) selfVote(slot uint64, b ids.Ballot, _ ids.ID) {
	if !r.active || r.ballot != b {
		return
	}
	p := r.inflight.At(slot)
	if p == nil || !p.voting {
		return
	}
	p.votes.Add(r.self)
	if p.votes.Count() >= r.majority {
		r.commit(slot)
	}
}

// armRetransmit re-broadcasts a slot's P2a if it stalls (lossy networks).
func (r *Replica) armRetransmit(slot uint64) {
	if r.cfg.RetryTimeout > 0 {
		r.retx.Arm(slot, r.cfg.RetryTimeout, struct{}{})
	}
}

// retransmit is the retx expiry: the slot went RetryTimeout without
// committing.
func (r *Replica) retransmit(slot uint64, _ struct{}) {
	e := r.log.Get(slot)
	if e == nil || e.Committed || !r.active {
		return
	}
	r.stats.Retransmits++
	m := wire.P2a{Ballot: r.ballot, Slot: slot, Cmds: e.Commands, Commit: r.commitWatermark()}
	r.diss.FanOut(m)
	r.armRetransmit(slot)
}

// commitWatermark is the slot below which everything is committed locally —
// the leader executes contiguously, so its execution cursor is the boundary.
func (r *Replica) commitWatermark() uint64 { return r.log.ExecuteCursor() }

// ----------------------------------------------------------------- phase2 --

// AcceptP2a applies a phase-2 request locally and returns the vote (a P2b
// whose Ballot exceeds m.Ballot signals rejection). ok reports whether the
// proposal was actually accepted into the log: false with an equal-ballot
// vote means the slot already committed a different batch — the caller must
// NOT count the vote, and the anchored value has been sent back to the
// proposer (a lagging re-elected leader anchoring gaps with no-ops would
// otherwise quorum-commit over an acknowledged batch). An accepted proposal's
// vote may leave only WhenDurable; a rejection reveals nothing and may leave
// at once. Exposed for relays.
func (r *Replica) AcceptP2a(m wire.P2a) (vote wire.P2b, ok bool) {
	if m.Ballot >= r.ballot {
		if m.Ballot > r.ballot {
			r.stepDown(m.Ballot)
		}
		r.lastLeaderContact = r.ctx.Now()
		ok = r.log.Accept(m.Slot, m.Ballot, m.Cmds)
		if !ok {
			// In this branch a refusal can only mean the slot committed a
			// different batch (m.Ballot ≥ r.ballot ≥ any accepted ballot).
			// Teach the proposer the anchored value instead of voting.
			if e := r.log.Get(m.Slot); e != nil && e.Committed {
				r.ctx.Send(m.Ballot.ID(), wire.P3{Ballot: r.ballot, Slot: m.Slot, Cmds: e.Commands})
			} else if m.Slot < r.log.FirstSlot() && !(m.Ballot == r.heardBallot && m.Slot < r.heardCommit) {
				// The slot was committed, executed and compacted away: the
				// proposer is behind our checkpoint floor, so the single-slot
				// teach-back no longer exists — ship the whole snapshot. Not
				// so when this ballot's leader has itself announced the slot
				// committed: then the proposer is not behind, the message is
				// an old duplicate, and it is dropped.
				r.stats.SnapSends++
				r.ctx.Send(m.Ballot.ID(), wire.SnapInstall{
					Ballot: r.ballot, Floor: r.log.ExecuteCursor(), Data: r.encodeSnapshot(),
				})
			}
		}
		if ok {
			r.noteJournaled(m.Ballot)
		}
		r.applyWatermark(m.Commit, m.Ballot)
	}
	return wire.P2b{Ballot: r.ballot, From: r.cfg.ID, Slot: m.Slot}, ok
}

// OnP2a handles a direct phase-2 request: accept locally, vote back. A
// refused proposal gets no vote (the teach-back P3 stands in for it);
// higher-ballot NACKs still flow so a stale leader steps down.
func (r *Replica) OnP2a(from ids.ID, m wire.P2a) {
	vote, ok := r.AcceptP2a(m)
	if ok {
		// Sync-before-vote: the accept (journaled by the log) must be durable
		// before the P2b leaves. Commits folded in by the watermark ride along
		// in the same flush.
		r.WhenDurable(r.voteDurable, m.Slot, m.Ballot, from)
	} else if vote.Ballot > m.Ballot {
		r.ctx.Send(from, vote)
	}
}

// sendP2b is an accept vote leaving, its accept durable. The ballot is the
// accepted proposal's even if the replica has promised a higher one since.
func (r *Replica) sendP2b(slot uint64, b ids.Ballot, to ids.ID) {
	r.ctx.Send(to, wire.P2b{Ballot: b, From: r.cfg.ID, Slot: slot})
}

// OnP2b tallies phase-2 votes at the leader.
func (r *Replica) OnP2b(m wire.P2b) {
	if m.Ballot > r.ballot {
		// Rejection: a higher ballot exists, stop leading.
		r.stepDown(m.Ballot)
		r.armElectionTimer()
		return
	}
	p := r.inflight.At(m.Slot)
	if p == nil || !p.voting || m.Ballot < r.ballot {
		return // already committed or stale vote
	}
	p.votes.Add(r.memberIndex(m.From))
	if p.votes.Count() >= r.majority {
		r.commit(m.Slot)
	}
}

// closeTally ends slot's vote (it committed, or was taught an anchored
// batch) and reports whether one was open.
func (r *Replica) closeTally(slot uint64) (*proposal, bool) {
	p := r.inflight.At(slot)
	if p == nil || !p.voting {
		return p, false
	}
	p.voting = false
	r.voting--
	r.retx.Cancel(slot)
	return p, true
}

func (r *Replica) commit(slot uint64) {
	if p, open := r.closeTally(slot); open {
		// TCP-style smoothing (gain 1/8) of the propose→commit latency;
		// OnRequest sheds with Busy while this exceeds OverloadLatency.
		sample := r.ctx.Now() - p.proposedAt
		if r.commitEWMA == 0 {
			r.commitEWMA = sample
		} else {
			r.commitEWMA += (sample - r.commitEWMA) / 8
		}
	}
	e := r.log.Get(slot)
	if e == nil || e.Committed {
		return
	}
	r.log.Commit(slot, r.ballot, e.Commands)
	r.stats.Commits++
	r.execute()
	// A committed slot frees pipeline window capacity: flush what queued.
	r.flushBatches()
}

// execute applies all contiguous committed batches and answers clients for
// commands this node proposed (route lists are position-aligned with each
// slot's batch).
func (r *Replica) execute() {
	r.log.ExecuteReady(r.store, r.apply)
	// Executed slots are done with their in-flight state. A tally still open
	// on one (the slot committed by a path other than its own quorum) stops
	// counting against the window with it.
	cur := r.log.ExecuteCursor()
	for s := r.inflight.Base(); s < min(cur, r.inflight.End()); s++ {
		if r.inflight.At(s).voting {
			r.voting--
		}
	}
	r.inflight.Advance(cur)
	r.maybeCompact()
	r.maybeSnapshot()
}

// apply executes the command at idx in slot's batch unless the session table
// says it executed already — every replica decides that identically, so a
// retry that reached the log twice is skipped everywhere — and answers its
// client if this node proposed it; a skipped one from the cache.
func (r *Replica) apply(slot uint64, idx int, cmd kvstore.Command) bool {
	var to ids.ID
	if p := r.inflight.At(slot); p != nil && idx < len(p.routes) {
		// A route recorded for another batch (an abandoned proposal) must
		// never carry this command's reply.
		if rt := p.routes[idx]; rt.clientID == cmd.ClientID && rt.seq == cmd.Seq {
			to = rt.client
		}
	}
	cached, fresh := r.sessions.Execute(cmd.ClientID, cmd.Seq)
	if !fresh {
		r.stats.Duplicates++
		if cached != nil && !to.IsZero() {
			r.ctx.Send(to, *cached)
		}
		return false
	}
	res := r.store.Apply(cmd)
	r.stats.Executions++
	r.execSinceCompact++
	r.execSinceSnap++
	r.ctx.Work(execWork)
	rep := wire.Reply{
		ClientID: cmd.ClientID,
		Seq:      cmd.Seq,
		OK:       true,
		Exists:   res.Exists,
		Value:    res.Value,
		Leader:   r.cfg.ID,
		Slot:     slot,
	}
	if cached != nil {
		*cached = rep
	}
	if !to.IsZero() {
		r.ctx.Send(to, rep)
	}
	return true
}

// applyWatermark commits every slot below w that this replica accepted
// under the same ballot as the watermark's sender — those values are
// necessarily the anchored ones. Entries from older ballots (or missing
// entirely, e.g. lost messages) are unsafe to commit blindly; if any keep
// the execution cursor below the watermark, the follower asks the leader to
// re-announce them (catch-up).
func (r *Replica) applyWatermark(w uint64, b ids.Ballot) {
	if b != r.heardBallot {
		r.heardBallot, r.heardCommit = b, 0
	}
	r.heardCommit = max(r.heardCommit, w)
	// Nothing exists at or above the proposal cursor, whatever w claims.
	for slot := r.log.ExecuteCursor(); slot < min(w, r.log.PeekNextSlot()); slot++ {
		e := r.log.Get(slot)
		if e == nil || e.Committed || e.Ballot != b {
			continue
		}
		r.log.Commit(slot, b, e.Commands)
		r.stats.Commits++
	}
	r.execute()
	if r.log.ExecuteCursor() < w && !r.catchupInFlight {
		r.catchupInFlight = true
		r.stats.Catchups++
		from := r.log.ExecuteCursor()
		r.ctx.Send(b.ID(), wire.CatchupReq{From: from, To: w})
		// Clear the in-flight guard even if the reply is lost.
		r.ctx.After(100*time.Millisecond, func() { r.catchupInFlight = false })
	}
}

// OnCatchupReq re-announces committed entries a lagging follower asked for.
// A request below the compaction floor cannot be served slot-by-slot — the
// entries are gone — so the follower gets a snapshot of live state instead
// (floor = our execution cursor), replacing full-log replay with
// snapshot-based catch-up.
func (r *Replica) OnCatchupReq(from ids.ID, m wire.CatchupReq) {
	if m.From < r.log.FirstSlot() {
		r.stats.SnapSends++
		r.ctx.Send(from, wire.SnapInstall{
			Ballot: r.ballot, Floor: r.log.ExecuteCursor(), Data: r.encodeSnapshot(),
		})
		return
	}
	to := m.To
	if hi := r.log.ExecuteCursor(); to > hi {
		to = hi
	}
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
	r.catchupInFlight = false
	for _, e := range m.Entries {
		r.log.Commit(e.Slot, e.Ballot, e.Cmds)
		r.stats.Commits++
	}
	r.execute()
}

// catchupToFloor pulls state from the promiser whose compaction floor is
// above this new leader's execution cursor, retrying until the snapshot
// lands (the request is From < the holder's floor, so the holder answers
// with SnapInstall). Followers cure lag through the watermark path; an
// active leader announces watermarks instead of receiving them, so it must
// drive its own catch-up.
func (r *Replica) catchupToFloor(target ids.ID, floor uint64) {
	if !r.active || r.log.ExecuteCursor() >= floor {
		return
	}
	r.stats.Catchups++
	r.ctx.Send(target, wire.CatchupReq{From: r.log.ExecuteCursor(), To: floor})
	r.ctx.After(150*time.Millisecond, func() { r.catchupToFloor(target, floor) })
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
	r.log.CompactTo(cur - uint64(r.cfg.CompactRetain))
	r.stats.Compactions++
}

// OnP3 handles an explicit commit announcement. An active leader receiving
// one for a slot it is still proposing into has been taught the anchored
// batch by a follower (see AcceptP2a): it abandons its doomed proposal and
// re-announces the anchored value so followers that accepted the doomed
// batch are overwritten. This path is defense-in-depth — phase-1 recovery
// reports committed slots, so a proposal into an anchored slot requires a
// leader lagging beyond a promiser's compaction horizon. (The re-announce
// is best-effort ordered against watermark carriers; the relay plane does
// not guarantee FIFO across paths.)
func (r *Replica) OnP3(m wire.P3) {
	if m.Ballot >= r.ballot {
		if m.Ballot > r.ballot {
			// A newer leader exists: step down before anything else, or the
			// flushBatches below would propose under its ballot.
			r.stepDown(m.Ballot)
		}
		r.lastLeaderContact = r.ctx.Now()
	}
	if p, proposing := r.closeTally(m.Slot); proposing {
		r.reclaimDoomed(p, m.Slot, m.Cmds)
		if r.active {
			r.diss.FanOut(wire.P3{Ballot: r.ballot, Slot: m.Slot, Cmds: m.Cmds})
		}
	}
	r.log.Commit(m.Slot, m.Ballot, m.Cmds)
	r.stats.Commits++
	r.execute()
	r.flushBatches()
}

// reclaimDoomed salvages the commands of an abandoned proposal: everything
// not in the anchored batch goes back into the batch accumulator for a
// fresh slot, so those clients are served instead of waiting forever. The
// slot's routes are dropped — the anchored batch was not proposed by us.
func (r *Replica) reclaimDoomed(p *proposal, slot uint64, anchored []kvstore.Command) {
	e := r.log.Get(slot)
	rts := p.routes
	p.routes = nil
	if e == nil || e.Committed {
		return
	}
	inAnchored := func(c kvstore.Command) bool {
		for _, a := range anchored {
			if a.ClientID == c.ClientID && a.Seq == c.Seq {
				return true
			}
		}
		return false
	}
	for i, c := range e.Commands {
		if i >= len(rts) || rts[i].client.IsZero() || inAnchored(c) {
			continue
		}
		r.pending.push(pendingCmd{from: rts[i].client, cmd: c, enqueued: r.ctx.Now()})
	}
}

// OnHeartbeat refreshes the failure detector and applies the leader's
// commit watermark.
func (r *Replica) OnHeartbeat(m wire.Heartbeat) {
	if m.Ballot < r.ballot {
		return
	}
	if m.Ballot > r.ballot {
		r.stepDown(m.Ballot)
	}
	r.lastLeaderContact = r.ctx.Now()
	if r.cfg.ReadMode == ReadLease && m.Ballot.ID() != r.cfg.ID {
		// Promise the leader its lease window and confirm.
		r.leasePromiseUntil = r.ctx.Now() + r.cfg.leaseDuration()
		r.ctx.Send(m.Ballot.ID(), wire.HeartbeatAck{Ballot: m.Ballot, From: r.cfg.ID})
	}
	r.applyWatermark(m.Commit, m.Ballot)
}

// stepDown adopts b, a higher ballot than ours seen in a peer's message: this
// replica stops leading (or campaigning), and every buffered and in-flight
// client request is answered with a redirect to b's owner instead of being
// resurrected stale on a later re-election. The ballot is adopted first so
// the redirects name that owner; there is nobody to name when the ballot is
// one this node issued in an earlier life.
func (r *Replica) stepDown(b ids.Ballot) {
	r.ballot = b
	r.active = false
	if b.ID() == r.cfg.ID {
		return
	}
	r.abortProposals()
	leader := b.ID()
	// Redirect in ascending slot order, then drop every slot's in-flight
	// state: the tallies closed above, and the routes are now answered.
	for s := r.inflight.Base(); s < r.inflight.End(); s++ {
		for _, rt := range r.inflight.At(s).routes {
			if rt.client.IsZero() {
				continue // placeholder in a re-attached route list
			}
			r.ctx.Send(rt.client, wire.Reply{
				ClientID: rt.clientID, Seq: rt.seq, OK: false, Leader: leader,
			})
		}
	}
	r.inflight.Advance(r.inflight.End())
	for _, p := range r.pending.items() {
		r.ctx.Send(p.from, wire.Reply{
			ClientID: p.cmd.ClientID, Seq: p.cmd.Seq, OK: false, Leader: leader,
		})
	}
	r.dropPending(r.pending.len())
	for _, p := range r.buffered {
		r.ctx.Send(p.from, wire.Reply{
			ClientID: p.req.Cmd.ClientID, Seq: p.req.Cmd.Seq, OK: false, Leader: leader,
		})
	}
	r.buffered = nil
}
