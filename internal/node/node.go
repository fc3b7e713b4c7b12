// Package node defines the execution context a protocol replica runs in.
// Replicas are single-threaded event-driven state machines: the substrate
// (simulated network or live transport) delivers messages and timer
// callbacks one at a time, and the replica acts on the world only through
// its Context. The same replica code therefore runs unchanged on the
// discrete-event simulator and on real TCP.
package node

import (
	"math/rand"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/wire"
)

// Timer is a cancellable pending callback.
type Timer interface {
	// Stop cancels the timer; it reports whether the call prevented the
	// callback from running.
	Stop() bool
}

// Context is the interface between a replica and its substrate. All methods
// must be called from within message/timer callbacks; the substrate
// guarantees those never run concurrently for one replica. The one exception
// is After(0, fn) on the live substrate (transport.TCPNode): its mailbox
// takes it from any goroutine, which is how work done elsewhere — a journal
// flush on the storage's own goroutine, an operator's command — gets back
// onto the event loop.
type Context interface {
	// ID returns this replica's node ID.
	ID() ids.ID
	// Send transmits m to another node (or client) asynchronously.
	Send(to ids.ID, m wire.Msg)
	// Broadcast transmits the same m to every node in to. Semantically
	// identical to calling Send per recipient, and the simulator charges
	// the full per-recipient CPU cost either way (the paper's leader
	// bottleneck); live transports exploit it to serialize m once and
	// ship the encoded bytes N times.
	Broadcast(to []ids.ID, m wire.Msg)
	// After schedules fn to run after d. The callback is serialized with
	// message delivery.
	After(d time.Duration, fn func()) Timer
	// Now returns the substrate's clock reading (virtual time on the
	// simulator, wall time since start on live transports).
	Now() time.Duration
	// Rand returns the substrate's random source (deterministic and
	// shared on the simulator).
	Rand() *rand.Rand
	// Work accounts d of CPU time for protocol bookkeeping. The simulator
	// charges it against the node's virtual core; live substrates spend
	// real time working and treat this as a no-op.
	Work(d time.Duration)
}

// Turns is implemented by a substrate that hands its event loop work in
// batches (transport.TCPNode): Turn numbers the batch being handled, so every
// message and timer of one batch sees the same value and a later batch a
// larger one. What a replica sends within one turn leaves together — the
// live transport writes each peer's frames of a turn with one call — so a
// choice that need not vary per message, like the relays of a PigPaxos
// fan-out, can be made once per turn. Valid only on the event loop. A
// substrate that delivers each event on its own (the simulator) does not
// implement it, and every event is its own turn.
type Turns interface {
	Turn() uint64
}

// Handler consumes messages delivered to a replica.
type Handler interface {
	OnMessage(from ids.ID, m wire.Msg)
}
