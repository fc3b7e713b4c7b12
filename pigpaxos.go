// Package pigpaxos is a strongly consistent replicated key-value store
// built on the PigPaxos consensus protocol (Charapko, Ailijiang, Demirbas:
// "PigPaxos: Devouring the Communication Bottlenecks in Distributed
// Consensus"), with classical Multi-Paxos and EPaxos as selectable
// baselines.
//
// PigPaxos removes the Paxos leader's communication bottleneck by routing
// fan-out/fan-in through relay nodes, one per statically configured relay
// group, drawn at random on each turn of the leader's event loop so that
// relay duty rotates: the leader exchanges 2r+2 messages per command
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
// The package offers two ways to run:
//
//   - NewCluster: an in-process cluster whose replicas talk over loopback
//     TCP, for embedding and experimentation (see examples/quickstart).
//   - internal TCP transport via cmd/pigserver for real deployments.
//
// The deterministic discrete-event simulations reproducing every figure and
// table of the paper live behind cmd/pigbench and bench_test.go.
package pigpaxos

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"pigpaxos/internal/cluster"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/paxos"
	ipig "pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/protocol"
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
	in     *cluster.InProc
	nextCl atomic.Uint64
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
	core := paxos.Config{ElectionTimeout: opts.ElectionTimeout, ReadMode: paxos.ReadMode(opts.ReadMode)}
	in, err := cluster.StartInProc(opts.N, opts.Shards, protocol.Spec{
		Kind:  opts.Protocol.kind(),
		Paxos: core,
		Pig:   ipig.Config{Paxos: core, NumGroups: opts.RelayGroups, RelayTimeout: opts.RelayTimeout},
	})
	if err != nil {
		return nil, fmt.Errorf("pigpaxos: %w", err)
	}
	return &Cluster{in: in}, nil
}

// Close shuts the cluster and its clients down.
func (c *Cluster) Close() { c.in.Close() }

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.in.Members) }

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

// Client opens a synchronous client session against the cluster. It fails
// once the cluster is closed.
func (c *Cluster) Client() (*Client, error) {
	sc, err := c.in.Client(c.nextCl.Add(1), 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("pigpaxos: %w", err)
	}
	return &Client{sc}, nil
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

// Client is a synchronous KV client. It is safe for use from one goroutine;
// open one client per goroutine. Operations route by key to the shard
// owning it, with an independent at-most-once session per shard. A member
// that stays silent for an eighth of the timeout is left for the next, so a
// crashed leader does not strand the client, and whoever answers stays the
// shard's target.
type Client struct{ sc *cluster.SyncClient }

// SetTimeout adjusts the per-operation timeout (default 5s; d ≤ 0 restores
// the default).
func (cl *Client) SetTimeout(d time.Duration) { cl.sc.SetTimeout(d) }

// do runs cmd on the shard that owns its key and waits for how it ends.
func (cl *Client) do(cmd kvstore.Command) (wire.Reply, error) {
	rep, err := cl.sc.Do(cmd)
	switch {
	case err != nil:
		return rep, fmt.Errorf("pigpaxos: %w", err)
	case !rep.OK:
		return rep, fmt.Errorf("pigpaxos: request rejected")
	}
	return rep, nil
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
	r, err := cl.sc.QuorumRead(key)
	if err != nil {
		return nil, false, fmt.Errorf("pigpaxos: %w", err)
	}
	return r.Value, r.Exists, nil
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
