package transport

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wire"
)

// mailboxBound is how many undelivered envelopes a mailbox holds before a
// waiting push blocks.
const mailboxBound = 4096

// envelope is one unit of work for the event loop: a delivered message, or
// a timer whose callback is due.
type envelope struct {
	from  ids.ID
	msg   wire.Msg
	timer *timer
}

// mailbox is the event loop a TCPNode embeds: the node.Context methods
// that do not touch a network, and a queue the loop swaps out whole — a
// burst of pushes costs the loop one lock and one wake-up, not a channel
// operation per message. Each swap starts a turn (node.Turns).
type mailbox struct {
	id      ids.ID
	handler node.Handler
	start   time.Time
	rng     *rand.Rand

	mu     sync.Mutex
	ready  sync.Cond // the loop waits here for work
	space  sync.Cond // waiting pushes wait here for the loop to catch up
	queue  []envelope
	timers map[*timer]struct{} // armed, so close can stop them
	closed atomic.Bool         // written under mu

	turn uint64 // the batch the loop is handling; the loop's alone
}

func (mb *mailbox) init(id ids.ID, h node.Handler) {
	mb.id, mb.handler, mb.start = id, h, time.Now()
	mb.rng = rand.New(rand.NewSource(int64(id) ^ time.Now().UnixNano()))
	mb.ready.L, mb.space.L = &mb.mu, &mb.mu
	mb.timers = make(map[*timer]struct{})
}

// run is the event loop. It returns once the mailbox is closed.
func (mb *mailbox) run() {
	var batch []envelope
	for {
		mb.mu.Lock()
		for len(mb.queue) == 0 && !mb.closed.Load() {
			mb.ready.Wait()
		}
		if mb.closed.Load() {
			mb.mu.Unlock()
			return
		}
		batch, mb.queue = mb.queue, batch[:0]
		mb.turn++
		mb.mu.Unlock()
		mb.space.Broadcast()
		for i := range batch {
			if mb.closed.Load() {
				return
			}
			e := &batch[i]
			if e.timer != nil {
				e.timer.run()
			} else if mb.handler != nil {
				mb.handler.OnMessage(e.from, e.msg)
			}
			*e = envelope{} // the slice is reused; let go of the message
		}
	}
}

// push queues envs for the loop and reports false once the mailbox is
// closed. With wait set it first blocks while more than mailboxBound
// envelopes are pending: connection readers pass it, so a flooding peer is
// throttled by TCP. The loop's own pushes (self-sends, timers) never wait —
// the loop cannot drain a backlog it is blocked behind.
func (mb *mailbox) push(wait bool, envs ...envelope) bool {
	mb.mu.Lock()
	for wait && len(mb.queue) > mailboxBound && !mb.closed.Load() {
		mb.space.Wait()
	}
	if mb.closed.Load() {
		mb.mu.Unlock()
		return false
	}
	wake := len(mb.queue) == 0
	mb.queue = append(mb.queue, envs...)
	mb.mu.Unlock()
	if wake {
		mb.ready.Signal()
	}
	return true
}

// close stops the loop and every armed timer. Until a timer is stopped the
// runtime holds its callback and, through it, the replica and its log.
func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed.Store(true)
	for t := range mb.timers {
		t.rt.Stop()
	}
	mb.timers, mb.queue = nil, nil
	mb.mu.Unlock()
	mb.ready.Broadcast()
	mb.space.Broadcast()
}

// timer is one After callback. done flips once, by whichever of Stop and
// the loop gets there first.
type timer struct {
	mb   *mailbox
	fn   func()
	rt   *time.Timer // nil when the callback was due at once
	done atomic.Bool
}

// After implements node.Context: fn runs on the event loop, serialized with
// message handling. A callback due at once is queued directly, behind
// whatever the mailbox already holds.
func (mb *mailbox) After(d time.Duration, fn func()) node.Timer {
	t := &timer{mb: mb, fn: fn}
	if d <= 0 {
		mb.push(false, envelope{timer: t})
		return t
	}
	mb.mu.Lock()
	if !mb.closed.Load() {
		mb.timers[t] = struct{}{}
		t.rt = time.AfterFunc(d, t.fire)
	}
	mb.mu.Unlock()
	return t
}

// fire runs on the runtime's timer goroutine and hands the callback to the
// loop.
func (t *timer) fire() {
	t.forget()
	t.mb.push(false, envelope{timer: t})
}

func (t *timer) forget() {
	t.mb.mu.Lock()
	delete(t.mb.timers, t)
	t.mb.mu.Unlock()
}

func (t *timer) run() {
	if t.done.CompareAndSwap(false, true) {
		t.fn()
	}
}

// Stop implements node.Timer. It also wins against a callback that has
// fired but not yet had its turn on the loop.
func (t *timer) Stop() bool {
	if !t.done.CompareAndSwap(false, true) {
		return false
	}
	if t.rt != nil && t.rt.Stop() {
		t.forget()
	}
	return true
}

// ID implements node.Context.
func (mb *mailbox) ID() ids.ID { return mb.id }

// Now implements node.Context: wall time since the node started.
func (mb *mailbox) Now() time.Duration { return time.Since(mb.start) }

// Rand implements node.Context.
func (mb *mailbox) Rand() *rand.Rand { return mb.rng }

// Work implements node.Context: live substrates spend real time, so this is
// a no-op.
func (mb *mailbox) Work(time.Duration) {}

// Turn implements node.Turns: one turn per batch swapped out of the queue.
func (mb *mailbox) Turn() uint64 { return mb.turn }
