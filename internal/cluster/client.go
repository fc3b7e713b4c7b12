package cluster

import (
	"fmt"
	"time"

	"pigpaxos/internal/client"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wire"
)

// SyncClient issues one command at a time against a live cluster: a
// client.Session — redirect following, Busy backoff, rotation away from a
// silent member — on a dial-only node of its own, behind a blocking Do. It
// is the readiness probe, the integration tests' client path and
// cmd/pigclient; loadgen runs the same session pipelined. Use it from one
// goroutine.
type SyncClient struct {
	node   *transport.TCPNode
	s      client.Session // the node's event loop owns it
	out    chan outcome
	target ids.ID
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

// NewSyncClient builds a client that first contacts target. clientID must
// be unique per concurrent client (it keys the at-most-once session). Of
// timeout, an eighth is how long a member may stay silent before the client
// tries the next.
func NewSyncClient(addrs map[ids.ID]string, target ids.ID, clientID uint64, timeout time.Duration) *SyncClient {
	members := make([]ids.ID, 0, len(addrs))
	for id := range addrs {
		members = append(members, id)
	}
	ids.Sort(members)
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	c := &SyncClient{out: make(chan outcome, 1), target: target}
	c.node = transport.DialTCP(ids.NewID(997, int(clientID%0xffff)+1), addrs, &c.s)
	c.s = client.Session{
		Ctx:      c.node,
		ClientID: clientID,
		Targets:  members,
		Target:   target,
		Window:   1,
		Timeout:  timeout,
		Retry:    timeout / 8,
		Done:     func(op client.Op, rep wire.Reply) { c.end(op, outcome{rep: rep}) },
		// The cluster is leaderless right now, or led from an address this
		// client was not given: the caller gets the reply as it is.
		Refused: func(op client.Op, rep wire.Reply) { c.end(op, outcome{rep: rep}) },
		Abandoned: func(op client.Op) {
			c.end(op, outcome{err: fmt.Errorf("cluster: no reply within %v (last tried %v)", timeout, c.s.Target)})
		},
	}
	return c
}

// end runs on the event loop: it publishes what the command left behind,
// then wakes Do.
func (c *SyncClient) end(op client.Op, o outcome) {
	c.target = c.s.Target
	c.Redirects = int(c.s.Redirects)
	c.Busy += op.Busy
	c.out <- o
}

// Target returns the node the client currently believes leads.
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

// Do runs one command to completion. A reply with OK=false is returned to
// the caller when it names no leader the client can reach; no reply at all
// within the timeout is an error.
func (c *SyncClient) Do(cmd kvstore.Command) (wire.Reply, error) {
	c.node.After(0, func() { c.s.Issue(cmd, c.node.Now()) })
	o := <-c.out
	return o.rep, o.err
}
