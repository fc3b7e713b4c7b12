package cluster

import (
	"errors"
	"fmt"
	"maps"
	"sync/atomic"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/protocol"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wal"
)

// Member is one process's worth of replicas: a listening TCPNode whose
// handler is a shard.Dispatcher over the member's replica of each shard it
// hosts, every replica answering Paxos-Quorum-Read probes (§4.3).
type Member struct {
	// Node is the member's transport.
	Node *transport.TCPNode

	replicas []protocol.Member // by shard; zero where the member hosts none
	storage  wal.Storage       // nil for a volatile member
	closed   atomic.Bool
}

// NewMember listens on addr as member id and hosts (protocol.Host), from
// tmpl, its replica of every shard of plan it hosts, each compacting every
// 4096 slots to bound its memory. The member keeps a copy of addrs;
// Node.RegisterAddr adds to it. With walDir set the member journals directly
// in that directory, as pigserver -wal-dir always has, so it needs a
// single-shard plan and a protocol that journals.
//
// The replicas are built and registered on the node's event loop, and
// NewMember returns once they are: a message that arrives earlier is
// dropped, as by a process that is not up yet. Start starts them.
func NewMember(id ids.ID, addr string, addrs map[ids.ID]string, plan shard.Map, tmpl protocol.Spec, walDir string) (*Member, error) {
	switch {
	case walDir != "" && tmpl.Kind == protocol.EPaxos:
		return nil, fmt.Errorf("cluster: EPaxos has no journal to keep in %s", walDir)
	case walDir != "" && plan.NumShards() > 1:
		return nil, fmt.Errorf("cluster: %s would hold the journals of %d shards", walDir, plan.NumShards())
	}
	d := shard.NewDispatcher(plan.NumShards())
	tn, err := transport.ListenTCP(id, addr, maps.Clone(addrs), d)
	if err != nil {
		return nil, err
	}
	m := &Member{Node: tn, replicas: make([]protocol.Member, plan.NumShards())}
	if c := tmpl.Core(); c != nil {
		c.CompactEvery = 4096
		if walDir != "" {
			st, err := wal.OpenFile(walDir)
			if err != nil {
				tn.Close()
				return nil, fmt.Errorf("cluster: open wal: %w", err)
			}
			m.storage, c.Storage = st, st
		}
	}
	built := make(chan struct{})
	tn.After(0, func() {
		for _, k := range plan.ShardsOn(id) {
			m.replicas[k] = protocol.Host(tn, d, plan.Shards[k], plan.Sub(config.Cluster{}, k), plan.NumShards() > 1, tmpl)
		}
		close(built)
	})
	<-built
	return m, nil
}

// Replica returns the member's replica of shard k, zero when it hosts none.
func (m *Member) Replica(k int) protocol.Member { return m.replicas[k] }

// Start starts every replica on the event loop and returns once they have.
func (m *Member) Start() {
	started := make(chan struct{})
	m.Node.After(0, func() {
		for _, r := range m.replicas {
			if r.Start != nil {
				r.Start()
			}
		}
		close(started)
	})
	<-started
}

// Shutdown stops the member gracefully, as pigserver does on SIGTERM. It
// flushes the journal on the event loop, where the replicas append, so the
// final sync lands after every accepted record and lets the votes parked
// behind it go; drains the queued outbound frames so peers see the member's
// last messages; then closes. The flush and the drain wait at most timeout
// each.
func (m *Member) Shutdown(timeout time.Duration) error {
	flushed := make(chan error, 1)
	m.Node.After(0, func() {
		var err error
		for _, r := range m.replicas {
			if r.Core != nil {
				err = errors.Join(err, r.Core.FlushJournal())
			}
		}
		flushed <- err
	})
	var err error
	select {
	case err = <-flushed:
	case <-time.After(timeout):
		err = errors.New("cluster: journal flush timed out")
	}
	if !m.Node.Drain(timeout) {
		err = errors.Join(err, errors.New("cluster: transport drain timed out"))
	}
	return errors.Join(err, m.Close())
}

// Close stops the member at once: frames still queued are dropped, as when
// a process is killed. Then it closes the journal, which syncs what it
// holds. Later calls do nothing.
func (m *Member) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	m.Node.Close()
	if m.storage == nil {
		return nil
	}
	return m.storage.Close() // the event loop has exited: this races nothing
}
