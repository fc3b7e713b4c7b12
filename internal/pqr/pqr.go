// Package pqr implements Paxos Quorum Reads (Charapko et al., HotStorage
// '19), the read-path optimization §4.3 of the PigPaxos paper adopts:
// strongly consistent reads that bypass the leader and need no leases. A
// reader collects per-key versions from a phase-2-quorum of replicas; if a
// majority agrees on the highest version the value is stable and can be
// returned. Disagreement means a write is in flight: the reader "rinses" by
// retrying until the newest observed version appears committed at a
// majority.
//
// The package has two halves: a Reader, which lives on the client and sends
// its version queries straight to every member, and a Responder on each
// replica, which answers them from the replica's store once it has executed
// the writes to the key it had accepted.
package pqr

import (
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node"
	"pigpaxos/internal/quorum"
	"pigpaxos/internal/rlog"
	"pigpaxos/internal/wire"
)

// A read that sees disagreement re-reads after rinseInterval, and fails
// after maxRinses re-reads; each round fails after roundTimeout. A replica
// holding a probe back looks at its log every settlePoll, for as long as a
// round lasts.
const (
	rinseInterval = 2 * time.Millisecond
	maxRinses     = 20
	roundTimeout  = rinseInterval * (maxRinses + 1)
	settlePoll    = time.Millisecond
)

// Result is the outcome of a quorum read.
type Result struct {
	Exists  bool
	Value   []byte
	Version uint64
	Rinses  int // retries performed before the read stabilized
	Failed  bool
}

// read tracks one in-flight quorum read round.
type read struct {
	key      uint64
	replies  map[ids.ID]wire.QReadReply
	rinses   int
	deadline node.Timer
	done     func(Result)
}

// Reader performs quorum reads on a client that knows the membership.
type Reader struct {
	ctx     node.Context
	members []ids.ID
	quorum  int
	next    uint64
	reads   map[uint64]*read

	stats Stats
}

// Stats counts reader events.
type Stats struct {
	Reads  uint64
	Rinses uint64
	Fails  uint64
}

// New creates a Reader that queries members and decides each read on a
// majority of them.
func New(ctx node.Context, members []ids.ID) *Reader {
	return &Reader{
		ctx:     ctx,
		members: members,
		quorum:  quorum.MajoritySize(len(members)),
		reads:   make(map[uint64]*read),
	}
}

// Stats returns a copy of the counters.
func (r *Reader) Stats() Stats { return r.stats }

// Read starts a quorum read of key; done is invoked exactly once with the
// result. Must be called from the owning node's event loop.
func (r *Reader) Read(key uint64, done func(Result)) {
	r.stats.Reads++
	r.start(key, 0, done)
}

func (r *Reader) start(key uint64, rinses int, done func(Result)) {
	r.next++
	rid := r.next
	rd := &read{key: key, replies: make(map[ids.ID]wire.QReadReply), rinses: rinses, done: done}
	r.reads[rid] = rd
	for _, m := range r.members {
		r.ctx.Send(m, wire.QReadReq{Key: key, RID: rid})
	}
	rd.deadline = r.ctx.After(roundTimeout, func() {
		if _, live := r.reads[rid]; live {
			delete(r.reads, rid)
			r.stats.Fails++
			done(Result{Failed: true, Rinses: rd.rinses})
		}
	})
}

// OnReply feeds a QReadReply into the reader. The owner routes messages of
// type wire.QReadReply here.
func (r *Reader) OnReply(m wire.QReadReply) {
	rd, ok := r.reads[m.RID]
	if !ok {
		return
	}
	rd.replies[m.From] = m
	r.tryFinish(m.RID, rd)
}

// tryFinish completes the read if a quorum of replies agrees that the
// highest version is stable (held by a majority). Otherwise, once enough
// replies arrived, it rinses: re-reads after a delay, because the newest
// version may still be propagating.
func (r *Reader) tryFinish(rid uint64, rd *read) {
	if len(rd.replies) < r.quorum {
		return
	}
	var maxV uint64
	for _, rep := range rd.replies {
		if rep.Version > maxV {
			maxV = rep.Version
		}
	}
	holders := 0
	var winner wire.QReadReply
	for _, rep := range rd.replies {
		if rep.Version == maxV {
			holders++
			winner = rep
		}
	}
	if holders >= r.quorum || maxV == 0 {
		r.finish(rid, rd, Result{
			Exists: winner.Exists, Value: winner.Value,
			Version: maxV, Rinses: rd.rinses,
		})
		return
	}
	// Unstable: the newest version is not yet at a quorum. Rinse.
	if rd.rinses >= maxRinses {
		r.stats.Fails++
		r.finish(rid, rd, Result{Failed: true, Rinses: rd.rinses})
		return
	}
	r.stats.Rinses++
	done := rd.done
	key := rd.key
	rinses := rd.rinses + 1
	r.drop(rid, rd)
	r.ctx.After(rinseInterval, func() {
		r.start(key, rinses, done)
	})
}

func (r *Reader) finish(rid uint64, rd *read, res Result) {
	r.drop(rid, rd)
	rd.done(res)
}

func (r *Reader) drop(rid uint64, rd *read) {
	if rd.deadline != nil {
		rd.deadline.Stop()
	}
	delete(r.reads, rid)
}

// Responder stands in front of a replica's handler and answers QReadReq
// with the key's local version and value once the replica has executed
// every write to the key it had accepted when the probe arrived. A write
// acknowledged before a read began is accepted at a majority, so a member of
// any read quorum waits for it; without the wait, followers that have not
// heard it commit outvote the leader with the version before it.
type Responder struct {
	ctx   node.Context
	store *kvstore.Store
	log   *rlog.Log // nil: nothing to wait for (EPaxos keeps no slot log)
	inner node.Handler
}

// NewResponder puts a Responder over a replica's store and log in front of
// its handler.
func NewResponder(ctx node.Context, store *kvstore.Store, log *rlog.Log, inner node.Handler) *Responder {
	return &Responder{ctx: ctx, store: store, log: log, inner: inner}
}

// OnMessage implements node.Handler. A QReadReq still waiting when the
// reader's round would have ended goes unanswered; every other message goes
// to the replica.
func (s *Responder) OnMessage(from ids.ID, msg wire.Msg) {
	m, ok := msg.(wire.QReadReq)
	if !ok {
		s.inner.OnMessage(from, msg)
		return
	}
	var slot uint64 // 0: no write pending
	if s.log != nil {
		slot = s.log.PendingWrite(m.Key)
	}
	giveUp := s.ctx.Now() + roundTimeout
	var answer func()
	answer = func() {
		if slot > 0 && slot >= s.log.ExecuteCursor() {
			if s.ctx.Now() < giveUp {
				s.ctx.After(settlePoll, answer)
			}
			return
		}
		v, ok := s.store.Get(m.Key)
		s.ctx.Send(from, wire.QReadReply{
			Key: m.Key, RID: m.RID, From: s.ctx.ID(),
			Version: s.store.Version(m.Key), Exists: ok, Value: v,
		})
	}
	answer()
}
