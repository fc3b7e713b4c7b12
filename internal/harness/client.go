package harness

import (
	"time"

	"pigpaxos/internal/client"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/linearizability"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/wire"
)

// closedLoop is the simulated closed-loop client: exactly one request in
// flight, the next issued upon each acknowledgement (the paper's client
// model, §5.2). It is a pacing policy over one client.Session per group —
// the session pigload runs on real sockets — so redirects, Busy backoff and
// silence are the session's; a role supplies only what to send next
// (source) and what to do with an acknowledgement (record).
type closedLoop struct {
	simClient              // each session with a window of one
	router    shard.Router // command key → session; the zero value routes all to sessions[0]
	// spread moves a session to its next target after every operation: Run's
	// EPaxos clients pick "a random node for each operation" (§5.4), scenario
	// EPaxos clients keep a home replica.
	spread bool
	think  time.Duration // pause between an acknowledgement and the next issue

	// source yields the next command; acked reports whether the previous
	// one was acknowledged (a script advances only then). ok=false ends the
	// client. record consumes an acknowledged operation.
	source func(acked bool) (cmd kvstore.Command, ok bool)
	record func(tag int, cmd kvstore.Command, rep wire.Reply, started, now time.Duration)

	acked   bool
	started time.Duration // when the newest operation was issued
	busy    int           // Busy rejections met by the operations that ended
	done    bool
}

// closedLoop registers a closed-loop client (see deployment.client) whose
// sessions sweep every retry (0: never). The caller fills in the role.
func (d *deployment) closedLoop(id uint64, zone, n int, retry time.Duration) *closedLoop {
	cl := &closedLoop{router: d.router}
	d.client(&cl.simClient, id, zone, n)
	ended := cl.ended
	for k := range cl.sessions {
		s := &cl.sessions[k]
		s.Window, s.Retry, s.Done = 1, retry, ended
		if retry <= 0 {
			// No sweep will retry a refusal that names no leader to go to:
			// move on rather than stall forever.
			s.Refused = ended
		}
	}
	return cl
}

// next issues the source's next command on the session its key routes to.
func (c *closedLoop) next() {
	cmd, ok := c.source(c.acked)
	if !ok {
		c.done = true
		return
	}
	s := &c.sessions[c.router.Shard(cmd.Key)]
	c.started = s.Ctx.Now()
	s.Issue(cmd, c.started)
}

// ended is every session's Done, and its Refused when it does not sweep: an
// acknowledgement is recorded and the next command follows after the think
// time; a refusal is followed by the next command at once.
func (c *closedLoop) ended(op client.Op, rep wire.Reply) {
	k := c.router.Shard(op.Cmd.Key)
	s := &c.sessions[k]
	c.busy += op.Busy
	c.acked = rep.OK
	if c.spread {
		s.Target = s.Next()
	}
	if !rep.OK {
		c.next()
		return
	}
	c.record(k, op.Cmd, rep, op.At, s.Ctx.Now())
	if c.think > 0 {
		s.Ctx.After(c.think, c.next)
	} else {
		c.next()
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
func historyOp(cmd kvstore.Command, rep wire.Reply, started, now time.Duration) linearizability.Op {
	op := linearizability.Op{Key: cmd.Key, Start: started, End: now, Client: cmd.ClientID}
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
