// Package transport provides live (non-simulated) substrates for the
// protocol replicas: an in-process bus for single-binary clusters and tests,
// and a TCP transport with length-prefixed binary frames for real
// multi-process deployments. Both implement node.Context, so replicas — and
// clients, which are nodes too (internal/client) — run on them unchanged, and
// both run the same event loop (mailbox). A TCP node may be dial-only
// (DialTCP): it opens no port and hears its peers over the connections it
// made, which is what a client is. Neither substrate reports a failed
// connection to the node: an unreachable peer is a silent one.
//
// Ownership of message contents. On the bus a message is handed over by
// reference: sender and receiver share whatever it points to and neither may
// modify it afterwards. On TCP a delivered message owns everything it
// references — its values alias the connection's read chunks and its slices
// come from the connection's decode arena, neither of which is ever
// rewritten — so a handler may retain a command batch or a value
// indefinitely without copying; the memory is collected when the last
// message decoded from a chunk is dropped. ReadFrame, for tools and tests
// that speak frames over a raw connection, returns fresh copies instead.
package transport

import (
	"fmt"
	"sync"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wire"
)

// LocalBus connects in-process nodes mailbox to mailbox. Each node owns a
// goroutine that serializes message handling and timer callbacks, honoring
// the node.Context single-threading contract.
type LocalBus struct {
	mu    sync.RWMutex
	nodes map[ids.ID]*LocalNode
	start time.Time
	wg    sync.WaitGroup
}

// NewLocalBus creates an empty bus.
func NewLocalBus() *LocalBus {
	return &LocalBus{nodes: make(map[ids.ID]*LocalNode), start: time.Now()}
}

// LocalNode is one attachment to a LocalBus. It implements node.Context.
type LocalNode struct {
	mailbox
	bus *LocalBus
}

// Node registers handler h as id and starts its event loop. A Send to a
// node whose mailbox holds more than mailboxBound envelopes blocks
// (backpressure).
func (b *LocalBus) Node(id ids.ID, h node.Handler) (*LocalNode, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.nodes[id]; dup {
		return nil, fmt.Errorf("transport: duplicate node %v", id)
	}
	n := &LocalNode{bus: b}
	n.init(id, h, b.start)
	b.nodes[id] = n
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		n.run()
	}()
	return n, nil
}

// Stop kills one node: its loop exits and it is removed from the routing
// table, so messages to it drop — an in-process crash.
func (b *LocalBus) Stop(id ids.ID) {
	b.mu.Lock()
	n := b.nodes[id]
	delete(b.nodes, id)
	b.mu.Unlock()
	if n != nil {
		n.close()
	}
}

// Close stops every node loop and waits for them to drain.
func (b *LocalBus) Close() {
	b.mu.Lock()
	nodes := make([]*LocalNode, 0, len(b.nodes))
	for _, n := range b.nodes {
		nodes = append(nodes, n)
	}
	b.mu.Unlock()
	for _, n := range nodes {
		n.close()
	}
	b.wg.Wait()
}

// Send implements node.Context: deliver m to the target's mailbox.
func (n *LocalNode) Send(to ids.ID, m wire.Msg) {
	n.bus.mu.RLock()
	dst := n.bus.nodes[to]
	n.bus.mu.RUnlock()
	if dst == nil {
		return // unknown destination: drop, like a dead host
	}
	dst.push(dst != n, envelope{from: n.id, msg: m})
}

// Broadcast implements node.Context. In-process delivery passes m by
// reference, so there is nothing to encode once: it is exactly a Send per
// recipient.
func (n *LocalNode) Broadcast(to []ids.ID, m wire.Msg) {
	for _, id := range to {
		n.Send(id, m)
	}
}

var _ node.Context = (*LocalNode)(nil)
