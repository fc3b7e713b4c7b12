package harness

import (
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/linearizability"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/node"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/wire"
)

// session is a client's view of one consensus group: where to send, and
// the at-most-once sequence counter the group's replicas dedup on.
type session struct {
	tag     int      // shard index carried on the envelope and reported to record
	targets []ids.ID // servers to try, preferred first
	cursor  int      // current target; silence advances it, a redirect re-aims it
	seq     uint64
}

// simClient is the simulated closed-loop client: exactly one request in
// flight, the next issued upon each acknowledgement (the paper's client
// model, §5.2). It owns the request/redirect/Busy/silence state machine
// once for every closed-loop role in the harness; a role supplies only what
// to send next (source) and what to do with an acknowledgement (record).
type simClient struct {
	id       uint64
	ep       *netsim.Endpoint
	sessions []session
	router   shard.Router // command key → session; the zero value routes all to sessions[0]
	tagged   bool         // wrap requests in a wire.Sharded envelope
	// spread moves to the next target on every issue rather than only on
	// silence: Run's EPaxos clients pick "a random node for each operation"
	// (§5.4), scenario EPaxos clients keep a home replica. Kept as found so
	// every fixed-seed run stays byte-identical.
	spread bool
	retry  time.Duration // silence before re-sending to the next target (0 = never)
	think  time.Duration // pause between an acknowledgement and the next issue

	// source yields the next command; acked reports whether the previous
	// one was acknowledged (a script advances only then). ok=false ends the
	// client. record consumes an acknowledged operation.
	source func(acked bool) (cmd kvstore.Command, ok bool)
	record func(tag int, cmd kvstore.Command, rep wire.Reply, started, now time.Duration)

	cur     *session
	cmd     kvstore.Command
	started time.Duration
	ops     uint64 // operations issued; pending timers of an older one are inert
	acked   bool
	// rejected counts Busy rejections honored (each retried after the hint).
	rejected int
	// awaiting is true from issue until the op's ack is accepted: faulty
	// links duplicate replies, and during think time the session's seq has
	// not advanced yet — the flag is what makes the second copy inert.
	awaiting bool
	done     bool
	timer    node.Timer
}

func (c *simClient) send(to ids.ID) {
	if c.tagged {
		c.ep.Send(to, wire.Sharded{Shard: uint16(c.cur.tag), Inner: wire.Request{Cmd: c.cmd}})
		return
	}
	c.ep.Send(to, wire.Request{Cmd: c.cmd})
}

func (c *simClient) stopTimer() {
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
}

// armRetry masks crashed servers and lost messages: after retry of silence
// the same command (same ClientID/Seq, so session tables dedup) goes to the
// next target in order.
func (c *simClient) armRetry() {
	if c.retry <= 0 {
		return
	}
	op := c.ops
	c.timer = c.ep.After(c.retry, func() {
		if !c.awaiting || c.ops != op {
			return
		}
		c.cur.cursor++
		c.send(c.cur.targets[c.cur.cursor%len(c.cur.targets)])
		c.armRetry()
	})
}

// next issues the source's next command on the session its key routes to.
func (c *simClient) next() {
	c.stopTimer()
	cmd, ok := c.source(c.acked)
	if !ok {
		c.done = true
		return
	}
	s := &c.sessions[c.router.Shard(cmd.Key)]
	s.seq++
	cmd.ClientID, cmd.Seq = c.id, s.seq
	c.cur, c.cmd = s, cmd
	c.ops++
	c.started = c.ep.Now()
	c.awaiting, c.acked = true, false
	c.send(s.targets[s.cursor%len(s.targets)])
	if c.spread {
		s.cursor++
	}
	c.armRetry()
}

// OnMessage handles the three answers a server gives: an acknowledgement
// (recorded, then the next command after the think time), a redirect
// (followed, and remembered for later commands), and Busy backpressure
// (the same command again after the leader's hint — the rejected sequence
// number was not consumed, so the retry is admitted as new).
func (c *simClient) OnMessage(from ids.ID, m wire.Msg) {
	tag, m := shard.Unwrap(m)
	if !c.awaiting || tag != c.cur.tag {
		return
	}
	switch v := m.(type) {
	case wire.Busy:
		if v.Seq != c.cur.seq {
			return
		}
		c.rejected++
		// The silence timer, when there is one, stays armed as the fallback
		// should the leader change during the backoff.
		op := c.ops
		c.ep.After(v.RetryAfter, func() {
			if c.awaiting && c.ops == op {
				c.send(v.Leader)
			}
		})
	case wire.Reply:
		if v.Seq != c.cur.seq {
			return // stale reply from a retried request
		}
		switch {
		case v.OK:
			c.awaiting, c.acked = false, true
			c.record(tag, c.cmd, v, c.started, c.ep.Now())
			c.stopTimer()
			if c.think > 0 {
				c.ep.After(c.think, c.next)
			} else {
				c.next()
			}
		case !v.Leader.IsZero():
			for i, t := range c.cur.targets {
				if t == v.Leader {
					c.cur.cursor = i
					break
				}
			}
			c.send(v.Leader)
		case c.retry <= 0:
			// Rejected with no leader to go to and no silence timer to wait
			// for: move on rather than stall forever.
			c.next()
		}
	}
}

// leaderFirst lists a group's members with its planned leader first and the
// rest in membership order: the target list of a leader-based client.
func leaderFirst(members []ids.ID, leader ids.ID) []ids.ID {
	out := append(make([]ids.ID, 0, len(members)), leader)
	for _, id := range members {
		if id != leader {
			out = append(out, id)
		}
	}
	return out
}

// scriptSource replays a fixed script, advancing only on acknowledgement.
func scriptSource(script []kvstore.Command) func(bool) (kvstore.Command, bool) {
	pos := 0
	return func(acked bool) (kvstore.Command, bool) {
		if acked {
			pos++
		}
		if pos >= len(script) {
			return kvstore.Command{}, false
		}
		return script[pos], true
	}
}

// historyOp renders an acknowledged command as a linearizability-checker
// operation.
func historyOp(client uint64, cmd kvstore.Command, rep wire.Reply, started, now time.Duration) linearizability.Op {
	op := linearizability.Op{Key: cmd.Key, Start: started, End: now, Client: client}
	if cmd.Op == kvstore.Get {
		op.Kind = linearizability.Read
		if rep.Exists {
			op.Output = string(rep.Value)
		}
	} else {
		op.Kind = linearizability.Write
		op.Input = string(cmd.Value)
	}
	return op
}
