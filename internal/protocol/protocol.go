// Package protocol is the one place a replica of any of the three protocols
// is constructed. The paper's implementation note (§5.1) is that PigPaxos is
// Paxos with the communication plane swapped; every deployment in this
// repository fills in the per-protocol Config where it genuinely differs and
// hands it to Build, which returns the uniform surface (handler, start,
// decision core, state machine) the callers used to re-derive with a type
// switch each. Two callers build: the simulated harness, and
// cluster.NewMember, which assembles every live member — pigserver's and the
// in-process cluster's alike.
package protocol

import (
	"fmt"
	"strings"

	"pigpaxos/internal/epaxos"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
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

// Build constructs one replica on ctx.
func Build(ctx node.Context, s Spec) Member {
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
