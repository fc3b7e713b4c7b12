package cluster

import (
	"fmt"
	"time"

	"pigpaxos/internal/client"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node"
	"pigpaxos/internal/pqr"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wire"
)

// defaultTimeout is how long an operation may take when the caller names no
// timeout.
const defaultTimeout = 5 * time.Second

// SyncClient issues one command at a time against a live cluster: per shard
// of its layout, a client.Session — redirect following, Busy backoff,
// rotation away from a silent member — and a pqr.Reader, on a dial-only node
// of its own, behind blocking calls that route by key. It is the public
// pigpaxos.Client, the readiness probe, the integration tests' client path
// and cmd/pigclient; loadgen runs the same session pipelined. Use it from one
// goroutine.
type SyncClient struct {
	node     *transport.TCPNode
	plan     shard.Map
	sessions []client.Session // per shard; the node's event loop owns them
	readers  []*pqr.Reader    // per shard; the loop owns them too
	out      chan outcome
	timeout  time.Duration
	target   ids.ID
	// Redirects counts redirect hops followed (tests assert the path).
	Redirects int
	// Busy counts leader admission rejections waited out (tests assert
	// the backpressure path).
	Busy int
}

// outcome is how a command ended.
type outcome struct {
	rep wire.Reply
	err error
}

// NewSyncClient builds a client of one consensus group over every member of
// addrs that first contacts target. clientID must be unique per concurrent
// client (it keys the at-most-once session).
func NewSyncClient(addrs map[ids.ID]string, target ids.ID, clientID uint64, timeout time.Duration) *SyncClient {
	members := make([]ids.ID, 0, len(addrs))
	for id := range addrs {
		members = append(members, id)
	}
	ids.Sort(members)
	plan := shard.Map{
		Router: shard.NewRouter(1),
		Shards: []shard.Descriptor{{Members: members, Leader: target}},
	}
	return dial(addrs, plan, clientID, timeout, 0)
}

// dial builds a client of plan's shards. Shard k's session tries its
// planned leader first, then the rest of its group in order, and starts on
// the one start places in that order.
func dial(addrs map[ids.ID]string, plan shard.Map, clientID uint64, timeout time.Duration, start int) *SyncClient {
	c := &SyncClient{
		plan:     plan,
		sessions: make([]client.Session, plan.NumShards()),
		readers:  make([]*pqr.Reader, plan.NumShards()),
		out:      make(chan outcome, 1),
	}
	c.SetTimeout(timeout)
	c.node = transport.DialTCP(ids.NewID(997, int(clientID%0xffff)+1), addrs, c)
	for k, d := range plan.Shards {
		targets := []ids.ID{d.Leader}
		for _, id := range d.Members {
			if id != d.Leader {
				targets = append(targets, id)
			}
		}
		var ctx node.Context = c.node
		if plan.NumShards() > 1 {
			ctx = shard.Wrap(c.node, k)
		}
		s := &c.sessions[k]
		*s = client.Session{
			Ctx:      ctx,
			ClientID: clientID,
			Targets:  targets,
			Target:   targets[start%len(targets)],
			Window:   1,
			Done:     func(op client.Op, rep wire.Reply) { c.end(s, op, outcome{rep: rep}) },
			// The group is leaderless right now, or led from an address this
			// client was not given: the caller gets the reply as it is.
			Refused: func(op client.Op, rep wire.Reply) { c.end(s, op, outcome{rep: rep}) },
			Abandoned: func(op client.Op) {
				c.end(s, op, outcome{err: fmt.Errorf("cluster: no reply within %v (last tried %v)", s.Timeout, s.Target)})
			},
		}
		c.readers[k] = pqr.New(ctx, d.Members)
	}
	c.target = c.sessions[0].Target
	return c
}

// OnMessage implements node.Handler: a reply goes to the session or the
// quorum reader of the shard that carried it.
func (c *SyncClient) OnMessage(from ids.ID, m wire.Msg) {
	k, m := shard.Unwrap(m)
	if k >= len(c.sessions) {
		return
	}
	if v, ok := m.(wire.QReadReply); ok {
		c.readers[k].OnReply(v)
		return
	}
	c.sessions[k].OnMessage(from, m)
}

// end runs on the event loop: it publishes what the command left behind,
// then wakes Do.
func (c *SyncClient) end(s *client.Session, op client.Op, o outcome) {
	c.target = s.Target
	c.Redirects = 0
	for i := range c.sessions {
		c.Redirects += int(c.sessions[i].Redirects)
	}
	c.Busy += op.Busy
	c.out <- o
}

// SetTimeout sets how long an operation may take (d ≤ 0: the 5 s default).
// A member that stays silent for an eighth of it, or for its share when the
// group has more than eight members, is left for the next, so every member
// gets a turn within the timeout.
func (c *SyncClient) SetTimeout(d time.Duration) {
	if d <= 0 {
		d = defaultTimeout
	}
	c.timeout = d
}

// Target returns the node the client last found serving its shard.
func (c *SyncClient) Target() ids.ID { return c.target }

// Close drops every connection.
func (c *SyncClient) Close() { c.node.Close() }

// Put writes value under key and reports the committed slot.
func (c *SyncClient) Put(key uint64, value []byte) (wire.Reply, error) {
	return c.Do(kvstore.Command{Op: kvstore.Put, Key: key, Value: value})
}

// Get reads key.
func (c *SyncClient) Get(key uint64) (wire.Reply, error) {
	return c.Do(kvstore.Command{Op: kvstore.Get, Key: key})
}

// Delete removes key.
func (c *SyncClient) Delete(key uint64) (wire.Reply, error) {
	return c.Do(kvstore.Command{Op: kvstore.Delete, Key: key})
}

// Do runs one command to completion on the shard that owns its key. A reply
// with OK=false is returned to the caller when it names no leader the client
// can reach; no reply at all within the timeout is an error.
func (c *SyncClient) Do(cmd kvstore.Command) (wire.Reply, error) {
	s, timeout := &c.sessions[c.plan.Router.Shard(cmd.Key)], c.timeout
	c.node.After(0, func() {
		s.Timeout, s.Retry = timeout, timeout/time.Duration(max(8, len(s.Targets)))
		s.Issue(cmd, c.node.Now())
	})
	o := <-c.out
	return o.rep, o.err
}

// QuorumRead performs a Paxos Quorum Read (§4.3) on the shard that owns key:
// it probes a majority of the shard's replicas for their version and returns
// the stable newest one, without the leader or the log. Each call waits on a
// channel of its own, so the late result of a read that timed out is never
// taken for the next one's.
func (c *SyncClient) QuorumRead(key uint64) (pqr.Result, error) {
	r := c.readers[c.plan.Router.Shard(key)]
	res := make(chan pqr.Result, 1)
	c.node.After(0, func() { r.Read(key, func(v pqr.Result) { res <- v }) })
	select {
	case v := <-res:
		if v.Failed {
			return v, fmt.Errorf("cluster: quorum read did not stabilize")
		}
		return v, nil
	case <-time.After(c.timeout):
		return pqr.Result{}, fmt.Errorf("cluster: quorum read timed out")
	}
}
