// Package nodetest provides a null node.Context for driving a replica's step
// functions directly: no network, no scheduler, no clock but the one the
// test turns. What a handler costs on it is the handler's own work.
package nodetest

import (
	"math/rand"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wire"
)

// Null is a node.Context that discards what is sent, never fires a timer,
// and reads the time from Clock.
type Null struct {
	Self  ids.ID
	Clock time.Duration
	rng   *rand.Rand
}

// New returns a Null context for node self with a fixed-seed Rand.
func New(self ids.ID) *Null { return &Null{Self: self, rng: rand.New(rand.NewSource(1))} }

// parked is the Timer of a callback that never runs.
type parked struct{}

func (parked) Stop() bool { return true }

// ID implements node.Context.
func (n *Null) ID() ids.ID { return n.Self }

// Send implements node.Context.
func (n *Null) Send(ids.ID, wire.Msg) {}

// Broadcast implements node.Context.
func (n *Null) Broadcast([]ids.ID, wire.Msg) {}

// After implements node.Context; the callback never runs.
func (n *Null) After(time.Duration, func()) node.Timer { return parked{} }

// Now implements node.Context.
func (n *Null) Now() time.Duration { return n.Clock }

// Rand implements node.Context.
func (n *Null) Rand() *rand.Rand { return n.rng }

// Work implements node.Context.
func (n *Null) Work(time.Duration) {}

var _ node.Context = (*Null)(nil)
