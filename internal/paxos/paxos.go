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
//
// One Replica, one file per decision it makes. paxos.go: which client
// command enters the log (redirects, local reads, admission — the policy is
// internal/admission's — and batching into slots). election.go: who leads
// (the election timer, phase 1, heartbeats, stepping down). replicate.go:
// what a slot holds (phase 2, commit, retransmit, the commit watermark,
// execution and the reply). lease.go: when the leader may read without the
// log. catchup.go: how a lagging replica learns what it missed, and log
// compaction. durability.go: when a vote may leave, and restart.
// snapshot.go: the snapshot blob's layout.
package paxos

import (
	"math"
	"slices"
	"time"

	"pigpaxos/internal/admission"
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
// ordinary messages and needs no abstraction here, and heartbeats do not
// use it: the core picks their recipients and sends them direct.
type Disseminator interface {
	// FanOut delivers m — a P1a, P2a or P3 — to every follower.
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
	// HeartbeatInterval is how often the leader announces liveness and its
	// commit watermark. An idle leader (no tally open) and a ReadLease
	// leader, whose lease rides on the acks, tell every follower. While
	// rounds are in flight, replication is the heartbeat: a follower whose
	// vote shows it heard a round sent within the last quarter interval is
	// skipped. A follower the leader reaches so hears from it at least every
	// 1.25 intervals plus the one-way delay. Zero disables heartbeats.
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
)

// The simulator's CPU charges.
const (
	// leaderWork is CPU charged per proposed slot at the leader (decision
	// making, tallying, reply preparation). Batching amortizes it over the
	// slot's whole command batch; with MaxBatchSize 1 it is charged per
	// command, as in the paper's model.
	leaderWork = 20 * time.Microsecond
	// execWork is CPU charged per command executed at any replica.
	execWork = 5 * time.Microsecond
)

func (c *Config) applyDefaults() {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 20 * time.Millisecond
	}
	if c.CompactRetain == 0 {
		c.CompactRetain = 8192
	}
	// The wire format carries batch counts as uint16.
	c.MaxBatchSize = min(max(c.MaxBatchSize, 1), math.MaxUint16)
	if c.MaxPending == 0 && c.MaxInFlight > 0 {
		c.MaxPending = 4 * c.MaxInFlight * c.MaxBatchSize
	}
	c.MaxPending = max(c.MaxPending, 0)
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

	log      *rlog.Log
	store    *kvstore.Store
	sessions *sessions.Table

	// Election state.
	p1q               *quorum.Threshold
	promised          bool   // our promise to our own campaign ballot is durable
	p1MaxFloor        uint64 // highest compaction floor reported in phase-1
	p1FloorFrom       ids.ID // promiser that reported p1MaxFloor
	lastLeaderContact time.Duration
	electionTimer     node.Timer
	campaignRetry     node.Timer

	// In-flight slots are dense between the execution cursor and the
	// proposal cursor, so their state is a ring indexed by slot, and their
	// retransmit timeouts share one armed timer.
	inflight slots.Window[proposal]
	voting   int // cells with an open tally
	self     int // this replica's index in cfg.Cluster.Nodes, what a Tally counts by
	retx     *slots.Timers[struct{}]

	// Heartbeat state: every follower in cluster order, and per member
	// index the send time of the newest round it voted for under this
	// leadership (heartbeatTargets).
	peers   []ids.ID
	votedAt []time.Duration

	// Commands admitted (or held through a campaign) but not yet proposed,
	// and the batch being held open for more.
	ingress    admission.Queue
	batchTimer node.Timer
	batchDue   bool // BatchDelay expired; flush even under-full

	// Follower state.
	catchupDue       time.Duration // no CatchupReq before then, unless answered
	execSinceCompact int
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
		ingress:  admission.New(cfg.MaxPending, cfg.QueueTTL, cfg.OverloadLatency),
		st:       cfg.Storage,
		ackTimes: make(map[ids.ID]time.Duration),
		peers:    cfg.Cluster.Peers(cfg.ID),
		votedAt:  make([]time.Duration, len(cfg.Cluster.Nodes)),
	}
	r.self = slices.Index(cfg.Cluster.Nodes, cfg.ID)
	r.retx = slots.NewTimers(ctx, r.retransmit)
	r.initFlusher()
	if r.diss == nil {
		r.diss = &Direct{Ctx: ctx, Peers: r.peers, Thrifty: cfg.Thrifty}
	}
	if r.st != nil {
		r.recoverFromStorage()
	}
	return r
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
func (r *Replica) Stats() Stats {
	s := r.stats
	s.MaxQueueDepth = r.ingress.HighWater()
	return s
}

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

// OnRequest handles a client command: the leader proposes it, everyone else
// redirects the client to the leader it knows.
func (r *Replica) OnRequest(from ids.ID, m wire.Request) {
	if !r.active {
		if r.cfg.InitialLeader == r.cfg.ID || r.contending() {
			// Mid-campaign: hold until elected.
			if !r.ingress.Hold(admission.Cmd{From: from, Cmd: m.Cmd}) {
				r.rejectBusy(from, m.Cmd)
			}
			return
		}
		r.stats.Redirects++
		r.redirect(from, m.Cmd.ClientID, m.Cmd.Seq)
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
	if r.ingress.Shed() {
		r.rejectBusy(from, m.Cmd)
		return
	}
	r.sessions.MarkAdmitted(m.Cmd.ClientID, m.Cmd.Seq)
	r.stats.Requests++
	r.ingress.Push(admission.Cmd{From: from, Cmd: m.Cmd, At: r.ctx.Now()})
	r.flushBatches()
}

// redirect refuses a command, naming the leader this replica knows.
func (r *Replica) redirect(to ids.ID, clientID, seq uint64) {
	r.ctx.Send(to, wire.Reply{ClientID: clientID, Seq: seq, Leader: r.ballot.ID()})
}

// rejectBusy sheds one command with a wire.Busy. The client should stay on
// this leader and retry the same sequence number after RetryAfter.
func (r *Replica) rejectBusy(from ids.ID, cmd kvstore.Command) {
	r.stats.Busy++
	r.ctx.Send(from, wire.Busy{
		ClientID: cmd.ClientID, Seq: cmd.Seq, Leader: r.cfg.ID,
		RetryAfter: r.ingress.RetryAfter(),
	})
}

// reroute points the reply of a command admitted here and not yet executed
// at from, in case the client moved, and reports whether it found the
// command: in the batch accumulator, or in an unexecuted slot — one this
// leader proposed, or one becomeLeader re-proposed after the route was
// dropped on a step-down, where the route is re-attached (re-admitting would
// commit the command in two slots). A command found nowhere was discarded
// before reaching a slot, and the caller re-admits it.
func (r *Replica) reroute(from ids.ID, cmd kvstore.Command) bool {
	queued := r.ingress.Items()
	for i, p := range queued {
		if p.Cmd.ClientID == cmd.ClientID && p.Cmd.Seq == cmd.Seq {
			queued[i].From = from
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
// may have opened), and when the batch timer fires. Commands queued past
// QueueTTL are dropped first, unanswered: their clients have timed out, and
// a retry finds them nowhere and is re-admitted.
func (r *Replica) flushBatches() {
	if n := r.ingress.Expired(r.ctx.Now()); n > 0 {
		r.stats.DroppedExpired += uint64(n)
		r.dropPending(n)
	}
	for r.active && r.ingress.Len() > 0 && r.windowOpen() {
		if r.ingress.Len() < r.cfg.MaxBatchSize && r.cfg.BatchDelay > 0 && !r.batchDue {
			if r.batchTimer == nil {
				r.batchTimer = r.ctx.After(r.cfg.BatchDelay, func() {
					r.batchTimer = nil
					r.batchDue = true
					r.flushBatches()
				})
			}
			return
		}
		take := min(r.ingress.Len(), r.cfg.MaxBatchSize)
		cmds := make([]kvstore.Command, take)
		rts := make([]route, take)
		for i, p := range r.ingress.Items()[:take] {
			cmds[i] = p.Cmd
			rts[i] = route{client: p.From, clientID: p.Cmd.ClientID, seq: p.Cmd.Seq}
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

// dropPending removes the n oldest queued commands; an emptied queue has no
// under-full batch left to hold open.
func (r *Replica) dropPending(n int) {
	r.ingress.Drop(n)
	if r.ingress.Len() > 0 {
		return
	}
	r.batchDue = false
	if r.batchTimer != nil {
		r.batchTimer.Stop()
		r.batchTimer = nil
	}
}
