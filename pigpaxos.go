// Package pigpaxos is a strongly consistent replicated key-value store
// built on the PigPaxos consensus protocol (Charapko, Ailijiang, Demirbas:
// "PigPaxos: Devouring the Communication Bottlenecks in Distributed
// Consensus"), with classical Multi-Paxos and EPaxos as selectable
// baselines.
//
// PigPaxos removes the Paxos leader's communication bottleneck by routing
// fan-out/fan-in through randomly rotating relay nodes, one per statically
// configured relay group: the leader exchanges 2r+2 messages per command
// (r = relay groups) instead of 2(N−1)+2, which lets consensus scale
// vertically to tens of nodes within one conflict domain.
//
// A single replicated log is still a sequencing ceiling, so the package
// also scales horizontally: Options.Shards partitions the uint64 key space
// across S independent consensus groups (each a subset of the membership
// with its own leader and relay plane) behind a deterministic hash router.
// Clients route Put/Get/Delete/QuorumRead by key, with an independent
// at-most-once session per shard; aggregate throughput scales near-linearly
// with S.
//
// The package offers three ways to run:
//
//   - NewCluster: an in-process cluster whose replicas talk over loopback
//     TCP, for embedding and experimentation (see examples/quickstart).
//   - internal TCP transport via cmd/pigserver for real deployments.
//   - Bench: deterministic discrete-event simulations reproducing every
//     figure and table of the paper (see cmd/pigbench and bench_test.go).
package pigpaxos

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"pigpaxos/internal/client"
	"pigpaxos/internal/cluster"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pqr"
	"pigpaxos/internal/protocol"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wire"
)

// Protocol selects the replication protocol of a cluster.
type Protocol int

// Supported protocols.
const (
	// ProtocolPigPaxos is the paper's contribution (default).
	ProtocolPigPaxos Protocol = iota
	// ProtocolPaxos is classical Multi-Paxos with a stable leader.
	ProtocolPaxos
	// ProtocolEPaxos is leaderless Egalitarian Paxos.
	ProtocolEPaxos
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtocolPigPaxos:
		return "pigpaxos"
	case ProtocolPaxos:
		return "paxos"
	case ProtocolEPaxos:
		return "epaxos"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// kind maps the public numbering (whose zero value is PigPaxos) onto the
// internal one.
func (p Protocol) kind() protocol.Kind {
	switch p {
	case ProtocolPaxos:
		return protocol.Paxos
	case ProtocolEPaxos:
		return protocol.EPaxos
	default:
		return protocol.PigPaxos
	}
}

// ParseProtocol converts a protocol name ("pigpaxos", "paxos", "epaxos").
func ParseProtocol(s string) (Protocol, error) {
	k, err := protocol.Parse(s)
	if err != nil {
		return 0, fmt.Errorf("pigpaxos: %w", err)
	}
	for _, p := range []Protocol{ProtocolPaxos, ProtocolEPaxos} {
		if p.kind() == k {
			return p, nil
		}
	}
	return ProtocolPigPaxos, nil
}

// ReadMode selects the read path for Paxos/PigPaxos clusters (§4.3 of the
// paper discusses the trade-offs; EPaxos always orders reads itself).
type ReadMode int

const (
	// ReadLog serializes reads through the replicated log: a consensus
	// round per read, always linearizable (the paper's default).
	ReadLog = ReadMode(paxos.ReadLog)
	// ReadLease serves reads locally at the leader under a heartbeat
	// lease: linearizable and much cheaper.
	ReadLease = ReadMode(paxos.ReadLease)
	// ReadAny answers from whichever replica is asked. Fast but stale
	// reads are possible — provided for comparison and testing.
	ReadAny = ReadMode(paxos.ReadAny)
)

// Options configures an in-process cluster.
type Options struct {
	// N is the cluster size (default 3).
	N int
	// Protocol selects the replication protocol (default PigPaxos).
	Protocol Protocol
	// Shards partitions the key space across this many independent
	// consensus groups (default 1 = a single group spanning the whole
	// membership). Each shard is replicated by a deterministic subset of
	// max(3, N/Shards) nodes with its own leader; clients route by key.
	// Requires a leader-based protocol (PigPaxos or Paxos).
	Shards int
	// RelayGroups is PigPaxos' r (default 2; ignored by the baselines).
	// The paper's evaluation (§5.3) finds small values best. In sharded
	// clusters the fan-out is clamped per shard to its group size.
	RelayGroups int
	// RelayTimeout bounds relay-side aggregation waits (default 50ms).
	RelayTimeout time.Duration
	// ElectionTimeout enables automatic leader failover when positive.
	ElectionTimeout time.Duration
	// ReadMode selects the read path (Paxos/PigPaxos only).
	ReadMode ReadMode
}

func (o *Options) applyDefaults() {
	if o.N == 0 {
		o.N = 3
	}
	if o.RelayGroups == 0 {
		o.RelayGroups = 2
	}
}

// Cluster is an in-process replicated KV cluster: one loopback TCP node per
// member (cluster.InProc), the same socket path cmd/pigserver ships.
type Cluster struct {
	opts Options
	in   *cluster.InProc

	clientMu sync.Mutex
	nextCl   int
	clients  []*transport.TCPNode // closed by Close
}

// NewCluster starts an N-node cluster in the current process. Call Close
// when done.
func NewCluster(opts Options) (*Cluster, error) {
	opts.applyDefaults()
	if opts.Shards > 1 && opts.Protocol == ProtocolEPaxos {
		return nil, fmt.Errorf("pigpaxos: sharding requires a leader-based protocol (PigPaxos or Paxos)")
	}
	if opts.Protocol == ProtocolPigPaxos && opts.Shards <= 1 && opts.RelayGroups >= opts.N {
		return nil, fmt.Errorf("pigpaxos: %d relay groups need a cluster larger than %d", opts.RelayGroups, opts.N)
	}
	in, err := cluster.StartInProc(cluster.InProcSpec{
		N:               opts.N,
		Protocol:        opts.Protocol.kind().String(),
		Groups:          opts.RelayGroups,
		RelayTimeout:    opts.RelayTimeout,
		ElectionTimeout: opts.ElectionTimeout,
		Shards:          opts.Shards,
		ReadMode:        paxos.ReadMode(opts.ReadMode),
	})
	if err != nil {
		return nil, fmt.Errorf("pigpaxos: %w", err)
	}
	return &Cluster{opts: opts, in: in}, nil
}

// Close shuts the cluster and its clients down.
func (c *Cluster) Close() {
	c.clientMu.Lock()
	clients := c.clients
	c.clients = nil
	c.clientMu.Unlock()
	for _, n := range clients {
		n.Close()
	}
	c.in.Close()
}

// N returns the cluster size.
func (c *Cluster) N() int { return c.opts.N }

// Shards returns the shard count (1 for an unsharded cluster).
func (c *Cluster) Shards() int { return c.in.Plan.NumShards() }

// ShardLeader returns the 1-based node index of shard k's current leader,
// or 0 when no live member currently believes it leads (mid-election).
// Each member is asked on its own event loop; when views disagree
// transiently, the highest ballot wins. EPaxos is leaderless; every node
// accepts commands, and the first live member stands in.
func (c *Cluster) ShardLeader(k int) int {
	return slices.Index(c.in.Members, c.in.Leader(k)) + 1
}

// Leader returns the 1-based node index of the current leader (shard 0's
// leader in a sharded cluster), or 0 when no live replica currently leads.
func (c *Cluster) Leader() int { return c.ShardLeader(0) }

// Client opens a synchronous client session against the cluster.
func (c *Cluster) Client() (*Client, error) {
	plan := c.in.Plan
	cl := &Client{
		cluster:  c,
		sessions: make([]client.Session, plan.NumShards()),
		out:      make(chan outcome, 1),
		timeout:  5 * time.Second,
	}
	c.clientMu.Lock()
	c.nextCl++
	idx := c.nextCl
	cl.node = transport.DialTCP(ids.NewID(999, idx), c.in.Addrs, cl)
	c.clients = append(c.clients, cl.node)
	c.clientMu.Unlock()
	// One session per shard, aimed at the planned leader first, then the
	// rest of the shard's group: a leader-based client starts at the leader
	// and moves on silence (crash failover) or a redirect. In the unsharded
	// cluster shard 0 spans the whole membership; EPaxos clients round-robin
	// across it.
	for k, desc := range plan.Shards {
		targets := []ids.ID{desc.Leader}
		for _, m := range desc.Members {
			if m != desc.Leader {
				targets = append(targets, m)
			}
		}
		s := &cl.sessions[k]
		*s = client.Session{
			Ctx:      cl.shardCtx(k),
			ClientID: uint64(idx),
			Targets:  targets,
			Target:   targets[0],
			Window:   1,
			Done: func(_ client.Op, rep wire.Reply) {
				if c.opts.Protocol == ProtocolEPaxos {
					s.Target = s.Next() // leaderless: spread the load
				}
				cl.out <- outcome{rep: rep}
			},
			Refused: func(_ client.Op, rep wire.Reply) {
				cl.out <- outcome{rep: rep, err: fmt.Errorf("pigpaxos: request rejected")}
			},
			Abandoned: func(client.Op) {
				cl.out <- outcome{err: fmt.Errorf("pigpaxos: operation timed out after %v", s.Timeout)}
			},
		}
		if c.opts.Protocol == ProtocolEPaxos {
			s.Target = targets[idx%len(targets)]
		}
	}
	cl.qreaders = make([]*pqr.Reader, plan.NumShards())
	for k, desc := range plan.Shards {
		cl.qreaders[k] = pqr.New(cl.shardCtx(k), pqr.Config{Members: desc.Members}, nil)
	}
	return cl, nil
}

// shardCtx is the client's node as shard k's replicas expect to hear from
// it: tagging what it sends when the cluster is sharded.
func (cl *Client) shardCtx(k int) node.Context {
	if cl.cluster.Shards() > 1 {
		return shard.Wrap(cl.node, k)
	}
	return cl.node
}

// StopNode crashes the 1-based node i: it stops processing and all traffic
// to it is dropped. With ElectionTimeout configured the survivors elect a
// new leader and clients fail over transparently.
func (c *Cluster) StopNode(i int) error {
	members := c.in.Members
	if i < 1 || i > len(members) {
		return fmt.Errorf("pigpaxos: node %d out of range 1..%d", i, len(members))
	}
	c.in.Stop(members[i-1])
	return nil
}

// outcome is how an operation ended.
type outcome struct {
	rep wire.Reply
	err error
}

// Client is a synchronous KV client. It is safe for use from one goroutine;
// open one client per goroutine. Operations route by key to the shard
// owning it, with an independent at-most-once session per shard.
type Client struct {
	cluster  *Cluster
	node     *transport.TCPNode
	sessions []client.Session // per shard; the node's event loop owns them
	out      chan outcome     // the operation in flight ends in exactly one
	timeout  time.Duration

	qreaders []*pqr.Reader // per-shard quorum readers
}

// OnMessage implements node.Handler (internal use).
func (cl *Client) OnMessage(from ids.ID, m wire.Msg) {
	k, m := shard.Unwrap(m)
	if k >= len(cl.sessions) {
		return
	}
	if v, ok := m.(wire.QReadReply); ok {
		cl.qreaders[k].OnReply(v)
		return
	}
	cl.sessions[k].OnMessage(from, m)
}

// SetTimeout adjusts the per-operation timeout (default 5s).
func (cl *Client) SetTimeout(d time.Duration) { cl.timeout = d }

// do runs cmd on the session of the shard that owns its key and waits for
// how it ends. The timeout is split over the shard's servers: one that
// stays silent for its share is left for the next, so a crashed leader does
// not strand the client, and whoever answers stays the shard's target, so
// later operations go straight to the new leader.
func (cl *Client) do(cmd kvstore.Command) (wire.Reply, error) {
	s := &cl.sessions[cl.cluster.in.Plan.Router.Shard(cmd.Key)]
	timeout := cl.timeout
	cl.node.After(0, func() {
		s.Timeout, s.Retry = timeout, timeout/time.Duration(len(s.Targets))
		s.Issue(cmd, cl.node.Now())
	})
	o := <-cl.out
	return o.rep, o.err
}

// Put stores value under key. The caller may reuse value once Put returns.
func (cl *Client) Put(key uint64, value []byte) error {
	_, err := cl.do(kvstore.Command{Op: kvstore.Put, Key: key, Value: value})
	return err
}

// Get reads the value of key; found reports whether the key exists.
func (cl *Client) Get(key uint64) (value []byte, found bool, err error) {
	rep, err := cl.do(kvstore.Command{Op: kvstore.Get, Key: key})
	if err != nil {
		return nil, false, err
	}
	return rep.Value, rep.Exists, nil
}

// Delete removes key; found reports whether it existed.
func (cl *Client) Delete(key uint64) (found bool, err error) {
	rep, err := cl.do(kvstore.Command{Op: kvstore.Delete, Key: key})
	if err != nil {
		return false, err
	}
	return rep.Exists, nil
}

// QuorumRead performs a Paxos Quorum Read (§4.3): it probes a majority of
// the owning shard's replicas for their version of key and returns the
// stable newest value, without involving the leader or the log. The read is
// linearizable with respect to completed writes.
func (cl *Client) QuorumRead(key uint64) (value []byte, found bool, err error) {
	k := cl.cluster.in.Plan.Router.Shard(key)
	// The reader must run on the client's event loop. The channel is this
	// call's own: the result of a read that timed out lands in it unread.
	res := make(chan pqr.Result, 1)
	cl.node.After(0, func() {
		cl.qreaders[k].Read(key, func(r pqr.Result) { res <- r })
	})
	select {
	case r := <-res:
		if r.Failed {
			return nil, false, fmt.Errorf("pigpaxos: quorum read did not stabilize")
		}
		return r.Value, r.Exists, nil
	case <-time.After(cl.timeout):
		return nil, false, fmt.Errorf("pigpaxos: quorum read timed out")
	}
}

// StoreChecksums returns each node's state-machine checksum, in node order.
// In a sharded cluster a node's figure combines (XORs) the stores of every
// shard it replicates; unsharded clusters report the single store directly.
// Equal checksums across one shard's members mean converged replicas.
func (c *Cluster) StoreChecksums() []uint64 {
	out := make([]uint64, 0, len(c.in.Members))
	for _, id := range c.in.Members {
		var sum uint64
		for k := range c.in.Plan.Shards {
			if st := c.in.Store(k, id); st != nil {
				sum ^= st.Checksum()
			}
		}
		out = append(out, sum)
	}
	return out
}

// StoreApplied returns each node's applied-command count, in node order
// (summed across the shards a node replicates).
func (c *Cluster) StoreApplied() []uint64 {
	out := make([]uint64, 0, len(c.in.Members))
	for _, id := range c.in.Members {
		var sum uint64
		for k := range c.in.Plan.Shards {
			if st := c.in.Store(k, id); st != nil {
				sum += st.Applied()
			}
		}
		out = append(out, sum)
	}
	return out
}

// ShardStoreChecksums returns shard k's members' state-machine checksums in
// the shard's membership order — the per-shard convergence view.
func (c *Cluster) ShardStoreChecksums(k int) []uint64 {
	if k < 0 || k >= c.Shards() {
		return nil
	}
	members := c.in.Plan.Shards[k].Members
	out := make([]uint64, 0, len(members))
	for _, id := range members {
		out = append(out, c.in.Store(k, id).Checksum())
	}
	return out
}
