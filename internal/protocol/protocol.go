// Package protocol is the one place a node hosts a replica of any of the
// three protocols. The paper's implementation note (§5.1) is that PigPaxos is
// Paxos with the communication plane swapped, so a node builds a group's
// replica the same way whatever carries its messages: Host, called by the
// simulated harness (at boot and on every chaos restart) and by
// cluster.NewMember (pigserver's members and the in-process cluster's
// alike), tags the group's traffic, fills in the replica's membership and
// identity, builds it, puts the §4.3 quorum-read responder in front of it and
// registers it on the node's dispatcher. Callers differ only in the template
// Spec they hand it: batching, timeouts, journal, compaction.
package protocol

import (
	"fmt"
	"strings"

	"pigpaxos/internal/config"
	"pigpaxos/internal/epaxos"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/pqr"
	"pigpaxos/internal/rlog"
	"pigpaxos/internal/shard"
)

// Kind selects the consensus protocol.
type Kind int

// The three protocols under evaluation.
const (
	Paxos Kind = iota
	PigPaxos
	EPaxos
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Paxos:
		return "Paxos"
	case PigPaxos:
		return "PigPaxos"
	case EPaxos:
		return "EPaxos"
	default:
		return fmt.Sprintf("Protocol(%d)", int(k))
	}
}

// Parse inverts String, ignoring case, and accepts the command-line
// aliases "pig" and "multipaxos".
func Parse(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "paxos", "multipaxos":
		return Paxos, nil
	case "pigpaxos", "pig":
		return PigPaxos, nil
	case "epaxos":
		return EPaxos, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q (paxos | pigpaxos | epaxos)", s)
	}
}

// Spec is what to build: the protocol and its configuration. Only the
// Config matching Kind is read.
type Spec struct {
	Kind   Kind
	Paxos  paxos.Config
	Pig    pigpaxos.Config
	EPaxos epaxos.Config
}

// Core returns the decision-core config build reads for s.Kind: the Paxos
// config itself, the one PigPaxos wraps, nil for EPaxos.
func (s *Spec) Core() *paxos.Config {
	switch s.Kind {
	case Paxos:
		return &s.Paxos
	case PigPaxos:
		return &s.Pig.Paxos
	default:
		return nil
	}
}

// Member is one built replica behind the surface every deployment needs.
type Member struct {
	// Handler consumes the replica's inbound messages.
	Handler node.Handler
	// Start launches the replica; call it on the node's event loop.
	Start func()
	// Core is the Paxos decision core (leadership, log, stats): the
	// replica itself for Paxos, the wrapped core for PigPaxos, nil for
	// EPaxos.
	Core *paxos.Replica
	// Store is the replicated state machine.
	Store *kvstore.Store
	// Pig and EPaxos are the concrete replica when Kind selects them, for
	// the protocol-specific queries (relay layout, unexecuted instances).
	Pig    *pigpaxos.Replica
	EPaxos *epaxos.Replica
}

// Host builds ctx's node's replica of the consensus group desc describes,
// whose members run under cluster config sub, and registers it on d as
// group desc.Index. With tagged set the replica's traffic rides wire.Sharded
// envelopes carrying the group. Host fills in the membership, the node's ID
// and the initial leader; every other field of s, a journal included, is
// the caller's. A pqr.Responder in front of every replica answers
// Paxos-Quorum-Read version probes (§4.3).
func Host(ctx node.Context, d *shard.Dispatcher, desc shard.Descriptor, sub config.Cluster, tagged bool, s Spec) Member {
	if tagged {
		ctx = shard.Wrap(ctx, desc.Index)
	}
	if c := s.Core(); c != nil {
		c.Cluster, c.ID, c.InitialLeader = sub, ctx.ID(), desc.Leader
	} else {
		s.EPaxos.Cluster, s.EPaxos.ID = sub, ctx.ID()
	}
	m := build(ctx, s)
	var log *rlog.Log
	if m.Core != nil {
		log = m.Core.Log()
	}
	d.Register(desc.Index, pqr.NewResponder(ctx, m.Store, log, m.Handler))
	return m
}

// build constructs one replica on ctx.
func build(ctx node.Context, s Spec) Member {
	switch s.Kind {
	case Paxos:
		r := paxos.New(ctx, s.Paxos, nil)
		return Member{Handler: r, Start: r.Start, Core: r, Store: r.Store()}
	case PigPaxos:
		// r relay groups need at least r followers: small groups (a shard's
		// three members, a three-node cluster) get one group per follower.
		if max := len(s.Pig.Paxos.Cluster.Nodes) - 1; s.Pig.NumGroups > max {
			s.Pig.NumGroups = max
		}
		r := pigpaxos.New(ctx, s.Pig)
		return Member{Handler: r, Start: r.Start, Core: r.Core(), Store: r.Core().Store(), Pig: r}
	case EPaxos:
		r := epaxos.New(ctx, s.EPaxos)
		return Member{Handler: r, Start: r.Start, Store: r.Store(), EPaxos: r}
	default:
		panic(fmt.Sprintf("protocol: cannot build %v", s.Kind))
	}
}
