// Package client is the one client of a consensus group: an at-most-once
// session that acts on the world only through a node.Context, so — like the
// replicas — it runs unchanged on the simulator (netsim.Endpoint) and on
// real sockets (transport.TCPNode). The simulator's closed-loop and
// open-loop clients, loadgen's workers and cluster.SyncClient — which the
// public pigpaxos.Client wraps — are each a pacing policy over a Session:
// when to Issue, and what to record when an operation ends.
//
// A transport behind node.Context does not report connection errors, so a
// dead target is known by its silence alone.
package client

import (
	"slices"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wire"
)

// maxHops is how many redirects one operation follows in a sweep period
// before a further one counts as a refusal: two nodes pointing at each other
// must not bounce it forever, and the next period starts a new chain.
const maxHops = 8

// Op is one operation in flight, as the session's callbacks see it.
type Op struct {
	Cmd kvstore.Command
	// At is when the caller says the operation arrived: Timeout counts from
	// here, and so does the caller's latency.
	At time.Duration
	// Busy counts the admission rejections (wire.Busy) it has met so far.
	Busy int

	hops   int           // redirects followed since the last sweep
	sent   time.Duration // last transmission: what the sweep measures silence from
	live   bool
	parked bool // sent back by a Busy: waiting out its backoff, then for room at the leader
}

// Session is an at-most-once client session against one consensus group.
// Set the exported fields, then call Issue and OnMessage from the context's
// callbacks only. Every issued operation ends in exactly one of Done,
// Abandoned and Refused.
type Session struct {
	Ctx      node.Context
	ClientID uint64
	// Targets is the group, in rotation order; Target is where requests go
	// now. The session moves Target on redirects and away from a silent
	// node; a caller may move it between operations.
	Targets []ids.ID
	Target  ids.ID
	// Window bounds the operations in flight: Issue refuses beyond it, or
	// beyond the smaller window a Busy leaves at the leader (see cwnd).
	Window int
	// Timeout abandons an operation this long after its arrival. Zero never
	// abandons: the simulator's closed-loop clients retry until the run ends.
	Timeout time.Duration
	// Retry is the sweep period: operations silent for that long are sent
	// again, and a target that answered nothing during a whole period is
	// left for the next. Zero never sweeps: the simulator's clients whose
	// cluster does not fail.
	Retry time.Duration

	// Done receives an acknowledged operation and its reply.
	Done func(Op, wire.Reply)
	// Abandoned receives an operation that outlived Timeout.
	Abandoned func(Op)
	// Refused, when set, receives an operation a node turned down while
	// naming no leader the session could follow (none, one outside
	// Targets, or one past maxHops). Left nil, such an operation stays
	// pending for the sweep to retry.
	Refused func(Op, wire.Reply)

	// Redirects counts redirects followed, Resends transmissions after an
	// operation's first.
	Redirects, Resends uint64

	seq     uint64 // of the newest operation, which is the last of ops
	ops     []Op   // consecutive sequence numbers; finished ones are not live
	pending int
	// parked counts the pending operations a Busy sent back; the rest are at
	// the leader or on their way. cwnd bounds those, as TCP's congestion
	// window bounds the segments in flight (0: Window): a Busy sets it to
	// what the leader still holds of the session — all the room it has —
	// though never below a sixteenth of Window, so rejections of operations
	// alone at the leader cannot stall a session; each window's worth of
	// acknowledgements adds one back. Issue, and a parked operation's retry
	// once its backoff is over, wait for room in that window. Past the
	// saturation knee a session so keeps about its share at the leader and
	// refuses the rest at Issue, where an open-loop caller counts it shed,
	// instead of keeping its whole Window circling the leader as retries
	// whose rejection costs the leader the time it would commit with.
	parked, cwnd, acks int
	heard              bool // Target answered since the last sweep or retarget
	sweep              node.Timer
}

// Full reports whether Issue would refuse.
func (s *Session) Full() bool {
	return s.pending >= s.Window || s.pending-s.parked >= s.window()
}

// window bounds the operations at the leader.
func (s *Session) window() int {
	if s.cwnd > 0 {
		return s.cwnd
	}
	return s.Window
}

// Issue starts cmd, which arrived at the given time, stamping the session's
// ID and next sequence number on it. It reports false, and consumes no
// sequence number, when the window is full. The session keeps cmd.Value and
// may send it again until the operation ends, and a transport that passes
// messages by reference hands it to the replicas as it is, whose logs hold it
// and whose state machines borrow it until the log drops it (see kvstore):
// the caller must not modify it afterwards.
func (s *Session) Issue(cmd kvstore.Command, at time.Duration) bool {
	if s.Full() {
		return false
	}
	s.seq++
	cmd.ClientID, cmd.Seq = s.ClientID, s.seq
	s.ops = append(s.ops, Op{Cmd: cmd, At: at, live: true})
	s.pending++
	now := s.Ctx.Now()
	s.send(&s.ops[len(s.ops)-1], now)
	if s.Timeout > 0 {
		seq := s.seq
		s.Ctx.After(s.Timeout-(now-at), func() {
			if op := s.find(seq); op != nil {
				s.Abandoned(s.finish(op))
			}
		})
	}
	if s.sweep == nil {
		s.listen()
	}
	return true
}

// Issued returns how many operations the session has issued.
func (s *Session) Issued() uint64 { return s.seq }

// OnMessage implements node.Handler: acknowledgements, redirects and Busy
// backpressure for this session's operations. Anything else is ignored.
func (s *Session) OnMessage(_ ids.ID, m wire.Msg) {
	switch v := m.(type) {
	case wire.Busy:
		op := s.find(v.Seq)
		if op == nil || v.ClientID != s.ClientID {
			return // already over, or not ours
		}
		s.heard = true
		op.Busy++
		if !op.parked {
			op.parked = true
			s.parked++
		}
		s.cwnd, s.acks = max(1, s.Window/16, s.pending-s.parked), 0
		seq, wait := v.Seq, s.backoff(v.RetryAfter, op.Busy)
		var retry func()
		retry = func() {
			switch op := s.find(seq); {
			case op == nil || !op.parked:
				// Over, or a retarget sent it already.
			case s.pending-s.parked >= s.window():
				s.Ctx.After(wait, retry) // no room at the leader yet
			default:
				s.resend(op, s.Ctx.Now())
			}
		}
		s.Ctx.After(wait, retry)
	case wire.Reply:
		op := s.find(v.Seq)
		if op == nil || v.ClientID != s.ClientID {
			return
		}
		switch {
		case v.OK:
			s.heard = true
			if s.acks++; s.cwnd > 0 && s.acks >= s.cwnd {
				s.cwnd, s.acks = s.cwnd+1, 0
				if s.cwnd >= s.Window {
					s.cwnd = 0
				}
			}
			s.Done(s.finish(op), v)
		case slices.Contains(s.Targets, v.Leader) && op.hops < maxHops:
			op.hops++
			if v.Leader == s.Target {
				// A node the session has already left, pointing where it
				// went: this operation's send there may have been lost.
				s.resend(op, s.Ctx.Now())
				return
			}
			s.Redirects++
			s.retarget(v.Leader)
		default:
			s.heard = true
			if s.Refused != nil {
				s.Refused(s.finish(op), v)
			}
		}
	}
}

// Addressee returns the client ID a reply names — how a node that carries
// several sessions finds the one to hand it to — or 0 for any other message.
func Addressee(m wire.Msg) uint64 {
	switch v := m.(type) {
	case wire.Reply:
		return v.ClientID
	case wire.Busy:
		return v.ClientID
	}
	return 0
}

// find returns the live operation with sequence number seq, or nil.
func (s *Session) find(seq uint64) *Op {
	i := seq - (s.seq + 1 - uint64(len(s.ops))) // wraps far out of range below ops[0]
	if i >= uint64(len(s.ops)) || !s.ops[i].live {
		return nil
	}
	return &s.ops[i]
}

// finish ends op and returns what it was, for the callback.
func (s *Session) finish(op *Op) Op {
	was := *op
	if op.parked {
		s.parked--
	}
	*op = Op{}
	if s.pending--; s.pending == 0 {
		if s.sweep != nil {
			// Silence is measured while something waits: the next Issue
			// starts a period of its own.
			s.sweep.Stop()
			s.sweep = nil
		}
		s.ops = s.ops[:0] // drained: the next Issue reuses the array
		return was
	}
	for !s.ops[0].live {
		s.ops = s.ops[1:]
	}
	return was
}

func (s *Session) send(op *Op, now time.Duration) {
	if op.parked {
		op.parked = false
		s.parked--
	}
	op.sent = now
	s.Ctx.Send(s.Target, wire.Request{Cmd: op.Cmd})
}

func (s *Session) resend(op *Op, now time.Duration) {
	s.Resends++
	s.send(op, now)
}

// backoff doubles the leader's hint per rejection the operation has met, up
// to one sweep period (a quarter of Timeout without a sweep): the first
// retry honours the hint, and a leader that stays overloaded is not
// livelocked issuing rejections to the retry storm it caused. With neither
// set there is no cap to grow toward, and every retry honours the hint.
func (s *Session) backoff(hint time.Duration, busy int) time.Duration {
	limit := s.Retry
	if limit == 0 {
		limit = s.Timeout / 4
	}
	if hint <= 0 {
		hint = time.Millisecond
	}
	if limit == 0 {
		return hint
	}
	for i := 1; i < busy && hint < limit; i++ {
		hint *= 2
	}
	return min(hint, limit)
}

// retarget moves the session to another node and sends it everything
// pending at once, oldest first. The leader's session table would take the
// backlog in any order and over any time, but a redirect or a silent target
// is the moment the whole backlog is stuck, and one burst moves it fastest.
func (s *Session) retarget(to ids.ID) {
	s.Target = to
	now := s.Ctx.Now()
	for i := range s.ops {
		if s.ops[i].live {
			s.resend(&s.ops[i], now)
		}
	}
	s.listen()
}

// listen gives Target a whole period, from now, to be heard from.
func (s *Session) listen() {
	if s.Retry > 0 {
		if s.sweep != nil {
			s.sweep.Stop()
		}
		s.heard = false
		s.sweep = s.Ctx.After(s.Retry, s.onSweep)
	}
}

// onSweep runs every Retry while anything is pending. Health is the
// session's, not an operation's: one the leader will never answer — it fell
// sessions.Window behind the newest it executed, or it executed and its
// reply is no longer the cached one — must not walk a session off a leader
// that is answering the rest. So the target is left only if operations
// have waited a whole period and it answered nothing at all in that time —
// a refusal during an election is an answer. Otherwise the silent
// operations go again; a parked one is not silent, it waits for room. Either
// way every operation starts a new redirect chain.
func (s *Session) onSweep() {
	s.sweep = nil
	now := s.Ctx.Now()
	for i := range s.ops {
		s.ops[i].hops = 0
	}
	silent := func(op *Op) bool { return op.live && !op.parked && now-op.sent >= s.Retry }
	if !s.heard {
		for i := range s.ops {
			if silent(&s.ops[i]) {
				s.retarget(s.Next())
				return
			}
		}
	}
	for i := range s.ops {
		if silent(&s.ops[i]) {
			s.resend(&s.ops[i], now)
		}
	}
	s.listen()
}

// Next returns the target after the current one in rotation order.
func (s *Session) Next() ids.ID {
	return s.Targets[(slices.Index(s.Targets, s.Target)+1)%len(s.Targets)]
}
