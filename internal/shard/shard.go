// Package shard partitions the uint64 key space across S independent
// consensus groups. A single replicated log is a hard serialization
// ceiling no relay fan-out can lift (the leader still sequences every
// command); sharding is the orthogonal axis: S groups, each with its own
// leader and relay plane, multiplexed over one set of physical nodes so
// aggregate throughput scales with S instead of with single-leader CPU.
//
// The package supplies the three pieces every layer above shares:
//
//   - Router: a deterministic, allocation-free hash from key to shard, so
//     clients, the harness, and chaos schedules all agree on placement
//     without coordination.
//   - Map/Plan: per-shard group descriptors — which nodes replicate shard
//     k and which of them leads — computed from the cluster config so every
//     process derives the identical layout.
//   - Wrap/Dispatcher: the wire-level multiplexing. Each physical node
//     keeps ONE endpoint and ONE event loop; per-shard replicas see a
//     node.Context whose sends are tagged with their shard, and the
//     dispatcher on the receiving side unwraps the tag and hands the inner
//     message to the right replica. The envelope rides the pooled codec at
//     zero allocations per op.
package shard

import (
	"fmt"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wire"
)

// ---------------------------------------------------------------- router --

// Router deterministically maps uint64 keys to shard indices. The zero
// value routes everything to shard 0; use NewRouter for S > 1.
type Router struct {
	n uint64
}

// NewRouter builds a router over n shards (clamped to at least 1).
func NewRouter(n int) Router {
	if n < 1 {
		n = 1
	}
	return Router{n: uint64(n)}
}

// Shards returns the number of shards the router distributes over.
func (r Router) Shards() int {
	if r.n == 0 {
		return 1
	}
	return int(r.n)
}

// Mix64 is the splitmix64 finalizer: a cheap bijective mixer whose output
// bits all depend on all input bits. The key router runs every key through
// it before the shard modulus, and the chaos explorer derives per-schedule
// RNG seeds with it (distinct inputs can never collide the way shifted-sum
// seed derivations do).
func Mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Shard maps a key to its shard index in [0, Shards()). Keys are finalized
// through splitmix64 before the modulus so sequential key spaces (the
// common workload-generator pattern) spread evenly rather than striping.
// The hot path performs no allocation; see the AllocsPerRun test.
func (r Router) Shard(key uint64) int {
	if r.n <= 1 {
		return 0
	}
	return int(Mix64(key) % r.n)
}

// ------------------------------------------------------------ placement --

// Descriptor names one shard's consensus group: the member subset that
// replicates it and which member leads.
type Descriptor struct {
	// Index is the shard number, equal to the position in Map.Shards.
	Index int
	// Members lists the replicas of this shard in stable order. Always a
	// subset of the cluster membership, length ≥ 3 (or the full cluster
	// when it is smaller than 3).
	Members []ids.ID
	// Leader is the initial leader, one of Members.
	Leader ids.ID
}

// Contains reports whether id replicates this shard.
func (d Descriptor) Contains(id ids.ID) bool {
	for _, m := range d.Members {
		if m == id {
			return true
		}
	}
	return false
}

// Map is a complete sharding layout: the router plus one descriptor per
// shard. It is pure data — every process that derives it from the same
// cluster config gets a bit-identical layout.
type Map struct {
	Router Router
	Shards []Descriptor
}

// NumShards returns the shard count.
func (m Map) NumShards() int { return len(m.Shards) }

// Of returns the descriptor owning key.
func (m Map) Of(key uint64) Descriptor { return m.Shards[m.Router.Shard(key)] }

// ShardsOn returns the shard indices node id replicates, ascending.
func (m Map) ShardsOn(id ids.ID) []int {
	var out []int
	for _, d := range m.Shards {
		if d.Contains(id) {
			out = append(out, d.Index)
		}
	}
	return out
}

// Sub restricts cc to shard k's membership, keeping the topology: the
// cluster config shard k's replicas run under.
func (m Map) Sub(cc config.Cluster, k int) config.Cluster {
	return config.Cluster{
		Nodes:   append([]ids.ID(nil), m.Shards[k].Members...),
		Zones:   cc.Zones,
		Latency: cc.Latency,
		Addrs:   cc.Addrs,
	}
}

// Validate checks layout invariants: every shard non-empty, members drawn
// from the cluster, leader a member.
func (m Map) Validate(cc config.Cluster) error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard: empty map")
	}
	for _, d := range m.Shards {
		if len(d.Members) == 0 {
			return fmt.Errorf("shard %d: no members", d.Index)
		}
		seen := make(map[ids.ID]bool, len(d.Members))
		for _, mem := range d.Members {
			if !cc.Contains(mem) {
				return fmt.Errorf("shard %d: member %v not in cluster", d.Index, mem)
			}
			if seen[mem] {
				return fmt.Errorf("shard %d: duplicate member %v", d.Index, mem)
			}
			seen[mem] = true
		}
		if !d.Contains(d.Leader) {
			return fmt.Errorf("shard %d: leader %v is not a member", d.Index, d.Leader)
		}
	}
	return nil
}

// Plan computes the sharding layout for cc with s shards. Each shard has
// max(3, N/s) members, capped at N — disjoint groups when the cluster is
// large enough (each leader then pays no follower duty for other shards,
// the condition for near-linear scaling), graceful overlap when it is not.
//
// Shard k's members are the contiguous block of cc.Nodes starting at
// (k*size) mod N, so blocks tile the membership; its leader is chosen
// greedily to spread leader duty: the member currently leading the fewest
// shards, ties broken by membership order. The whole computation is a pure
// function of (cc.Nodes, s).
func Plan(cc config.Cluster, s int) Map {
	n := len(cc.Nodes)
	if s < 1 {
		s = 1
	}
	size := min(max(n/s, 3), n)
	m := Map{Router: NewRouter(s), Shards: make([]Descriptor, s)}
	duty := make(map[ids.ID]int, n)
	for k := 0; k < s; k++ {
		members := make([]ids.ID, size)
		for i := 0; i < size; i++ {
			members[i] = cc.Nodes[(k*size+i)%n]
		}
		leader := members[0]
		for _, mem := range members {
			if duty[mem] < duty[leader] {
				leader = mem
			}
		}
		duty[leader]++
		m.Shards[k] = Descriptor{Index: k, Members: members, Leader: leader}
	}
	return m
}

// LeaderPlacementFlip returns a copy of d with the leadership moved to the
// preferred member in zone z (fewest-duty style tiebreak is irrelevant for
// a single shard: the first member in z wins). It is the migration
// primitive: chaos schedules and operators express "move shard k's leader
// to region z" as a flip, and the consensus layer realizes it by
// campaigning from the returned leader. Returns ok=false when no member of
// d lives in z, leaving the descriptor unchanged.
func LeaderPlacementFlip(cc config.Cluster, d Descriptor, z int) (Descriptor, bool) {
	for _, mem := range d.Members {
		if cc.ZoneOf(mem) == z {
			d.Leader = mem
			return d, true
		}
	}
	return d, false
}

// --------------------------------------------------------- multiplexing --

// Wrap returns a node.Context whose Send and Broadcast tag every outgoing
// message with shard k, so S per-shard replicas can share one endpoint.
// All other Context methods pass through: the replicas share the node's
// virtual CPU and clock, which is the point — sharding must pay for
// multiplexing honestly in the simulator's cost model. A ctx that implements
// node.Turns yields a context that does too, so the shard's replicas see the
// node's event-loop turns.
func Wrap(ctx node.Context, k int) node.Context {
	w := &wrapped{Context: ctx, shard: uint16(k)}
	if t, ok := ctx.(node.Turns); ok {
		return &wrappedTurns{wrapped: w, Turns: t}
	}
	return w
}

type wrapped struct {
	node.Context
	shard uint16
}

type wrappedTurns struct {
	*wrapped
	node.Turns
}

func (w *wrapped) Send(to ids.ID, m wire.Msg) {
	w.Context.Send(to, wire.Sharded{Shard: w.shard, Inner: m})
}

func (w *wrapped) Broadcast(to []ids.ID, m wire.Msg) {
	w.Context.Broadcast(to, wire.Sharded{Shard: w.shard, Inner: m})
}

// Dispatcher demultiplexes one node's inbound traffic to its per-shard
// replicas. Register a handler per hosted shard, install the Dispatcher as
// the node's single wire handler, and Sharded envelopes route by tag.
// Untagged messages go to shard 0 so an unsharded peer (or legacy client)
// still reaches a single-shard node.
type Dispatcher struct {
	handlers []node.Handler
}

// NewDispatcher builds a dispatcher for s shards; slots start empty.
func NewDispatcher(s int) *Dispatcher {
	if s < 1 {
		s = 1
	}
	return &Dispatcher{handlers: make([]node.Handler, s)}
}

// Register installs h as the handler for shard k. Nodes that do not host a
// shard simply never register it; traffic for it is dropped like traffic
// for an unknown node.
func (d *Dispatcher) Register(k int, h node.Handler) {
	d.handlers[k] = h
}

// OnMessage implements node.Handler. Unwrapping the envelope allocates
// nothing.
func (d *Dispatcher) OnMessage(from ids.ID, m wire.Msg) {
	k, inner := Unwrap(m)
	if k >= len(d.handlers) || d.handlers[k] == nil {
		return
	}
	d.handlers[k].OnMessage(from, inner)
}

// Unwrap splits a possibly shard-tagged message into the shard that carried
// it and the inner message; an untagged message is its own inner message on
// shard 0. The receiving side of Wrap, for dispatchers and clients alike.
func Unwrap(m wire.Msg) (int, wire.Msg) {
	if sm, ok := m.(wire.Sharded); ok {
		return int(sm.Shard), sm.Inner
	}
	return 0, m
}
