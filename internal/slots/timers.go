package slots

import (
	"time"

	"pigpaxos/internal/node"
)

// Timers gives every slot its own cancellable timeout while keeping a single
// node.Context timer armed: the one for the earliest live deadline. It is the
// drop-in for a map[slot]node.Timer whose entries are armed when a slot is
// proposed (or relayed) and stopped when it commits (or flushes) — on a
// healthy run nearly every entry is stopped long before it is due, so arming
// and stopping a substrate timer per slot is pure overhead.
//
// Deadlines enter in arming order, and a replica arms with one fixed timeout
// on a monotone clock, so the pending deadlines form a FIFO; an arming that
// does land before the tail (mixed timeouts) is insertion-sorted. Cancel only
// clears the slot's cell; the queue entry is skipped when it surfaces. A live
// entry fires at exactly the instant its own substrate timer would have.
//
// One difference from a timer per slot shows on the simulator, which drops a
// timer that comes due while its node is crashed. A per-slot timer lost that
// way loses one slot's timeout; the shared timer lost that way would lose
// every later one, so the next Arm notices it is overdue and fires what the
// outage held back, late. (A node that arms nothing after it recovers fires
// nothing. A Paxos leader that comes back deposed re-arms its election timer
// when it steps down, but a recovered follower's election chain, and a
// leader's heartbeat chain, still die with the dropped timer.)
//
// Each armed slot carries a value of type T, handed back to the fire
// callback — what the per-timer closure used to capture.
type Timers[T any] struct {
	ctx  node.Context
	fire func(slot uint64, v T)

	cells Window[timerCell[T]]
	armed int    // cells currently armed
	seq   uint64 // armings so far; names one arming of one slot

	queue []deadline // pending deadlines from head on, ascending by at
	head  int

	timer    node.Timer    // the one substrate timer, nil when none pending
	timerFor time.Duration // deadline it was armed for
	firing   bool          // inside expire, which reschedules once at its end
}

type timerCell[T any] struct {
	seq uint64 // the arming that is live; 0 when disarmed
	v   T
}

type deadline struct {
	slot uint64
	seq  uint64
	at   time.Duration
}

// NewTimers returns an empty set whose expiries call fire on ctx's event
// loop. fire runs with the slot already disarmed, so it may re-arm it.
func NewTimers[T any](ctx node.Context, fire func(slot uint64, v T)) *Timers[T] {
	return &Timers[T]{ctx: ctx, fire: fire}
}

// Armed returns how many slots have a pending timeout.
func (t *Timers[T]) Armed() int { return t.armed }

// Arm (re)starts slot's timeout: fire(slot, v) runs after d unless the slot
// is cancelled or re-armed first.
func (t *Timers[T]) Arm(slot uint64, d time.Duration, v T) {
	at := t.ctx.Now() + d
	c := t.cells.Cover(slot)
	if c.seq == 0 {
		t.armed++
	}
	t.seq++
	*c = timerCell[T]{seq: t.seq, v: v}

	// Shed cancelled entries as new ones arrive, so the queue tracks the
	// live timeouts even on a substrate whose timers never fire, and reclaim
	// the popped prefix once it is most of the slice.
	t.skipStale()
	if t.head >= 64 && 2*t.head >= len(t.queue) {
		t.queue = t.queue[:copy(t.queue, t.queue[t.head:])]
		t.head = 0
	}
	i := len(t.queue)
	t.queue = append(t.queue, deadline{})
	for ; i > t.head && t.queue[i-1].at > at; i-- {
		t.queue[i] = t.queue[i-1]
	}
	t.queue[i] = deadline{slot, t.seq, at}

	if t.firing {
		return // expire reschedules from the head when it is done
	}
	// A pending timer due no later than this deadline will reschedule from
	// the head when it fires — unless it is already overdue, which on the
	// simulator means the substrate dropped it (it came due while the node
	// was crashed). Then nothing is coming: start over from the head, which
	// fires what the outage held back.
	if now := at - d; t.timer != nil && t.timerFor <= at && t.timerFor >= now {
		return
	}
	t.schedule()
}

// Cancel stops slot's timeout, if any.
func (t *Timers[T]) Cancel(slot uint64) {
	c := t.cells.At(slot)
	if c == nil || c.seq == 0 {
		return
	}
	t.disarm(slot, c)
}

// Clear cancels every timeout.
func (t *Timers[T]) Clear() {
	t.cells.Advance(t.cells.End())
	t.armed = 0
	t.queue, t.head = t.queue[:0], 0
	if t.timer != nil {
		t.timer.Stop()
		t.timer = nil
	}
}

func (t *Timers[T]) disarm(slot uint64, c *timerCell[T]) {
	*c = timerCell[T]{}
	t.armed--
	// Let the window's floor follow the lowest armed slot.
	for t.cells.Len() > 0 && t.cells.At(t.cells.Base()).seq == 0 {
		t.cells.Advance(t.cells.Base() + 1)
	}
}

// skipStale pops queue entries whose slot was cancelled or re-armed since.
func (t *Timers[T]) skipStale() {
	for t.head < len(t.queue) {
		d := t.queue[t.head]
		if c := t.cells.At(d.slot); c != nil && c.seq == d.seq {
			return
		}
		t.head++
	}
	t.queue, t.head = t.queue[:0], 0
}

// schedule points the substrate timer at the head deadline.
func (t *Timers[T]) schedule() {
	if t.timer != nil {
		t.timer.Stop()
		t.timer = nil
	}
	t.skipStale()
	if t.head == len(t.queue) {
		return
	}
	t.timerFor = t.queue[t.head].at
	t.timer = t.ctx.After(max(0, t.timerFor-t.ctx.Now()), t.expire)
}

// expire runs when the substrate timer fires: every live deadline that is
// due fires in order, then the timer moves to the next live one.
func (t *Timers[T]) expire() {
	t.timer, t.firing = nil, true
	for {
		t.skipStale()
		if t.head == len(t.queue) || t.queue[t.head].at > t.ctx.Now() {
			break
		}
		slot := t.queue[t.head].slot
		t.head++
		c := t.cells.At(slot)
		v := c.v
		t.disarm(slot, c)
		t.fire(slot, v)
	}
	t.firing = false
	t.schedule()
}
