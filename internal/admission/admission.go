// Package admission is the Paxos leader's ingress policy, a plain value on
// its event loop that sends nothing, arms no timer and is handed the clock:
// the FIFO of commands admitted but not yet proposed, the hold for those that
// arrive while the node campaigns, and the rules that shed, back off and
// expire them.
//
// EPaxos does not use it. Every EPaxos replica leads its own commands, so
// there is no one ingress to bound, and its collapse past saturation is the
// paper's Figure 8 result, which shedding would hide.
package admission

import (
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
)

// Cmd is one client command at the leader, with its sender and arrival time.
type Cmd struct {
	From ids.ID
	Cmd  kvstore.Command
	At   time.Duration
}

// Queue is the leader's ingress. The zero value is unbounded, never sheds
// and never expires a command.
type Queue struct {
	maxPending    int           // bound on the FIFO, and on the hold
	ttl, overload time.Duration // queued-command lifetime; commit-latency shed threshold

	// Taking from the FIFO's front moves head instead of reslicing the array
	// away from under append, which would then regrow it forever; the live
	// commands slide back to the front when the array is full and mostly dead.
	buf  []Cmd
	head int
	held []Cmd

	ewma      time.Duration // propose→commit latency
	highWater uint64
}

// New returns an empty queue with the leader's limits (paxos.Config's
// MaxPending, QueueTTL and OverloadLatency); zero disables each.
func New(maxPending int, ttl, overload time.Duration) Queue {
	return Queue{maxPending: maxPending, ttl: ttl, overload: overload}
}

// Len is the number of commands in the FIFO.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Items is the FIFO's content, oldest first; it is good until the next Push.
func (q *Queue) Items() []Cmd { return q.buf[q.head:] }

// Push appends c to the FIFO.
func (q *Queue) Push(c Cmd) {
	if len(q.buf) == cap(q.buf) && q.head >= q.Len() {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, c)
	q.noteDepth()
}

// Drop removes the n oldest commands from the FIFO.
func (q *Queue) Drop(n int) {
	clear(q.buf[q.head : q.head+n]) // let go of the commands' values
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// Hold keeps c until the campaign ends, and reports false — shed c — when
// the hold is at the bound: a slow election cannot hoard memory.
func (q *Queue) Hold(c Cmd) bool {
	if q.maxPending > 0 && len(q.held) >= q.maxPending {
		return false
	}
	q.held = append(q.held, c)
	q.noteDepth()
	return true
}

// Release empties the hold and returns what it kept, in arrival order.
func (q *Queue) Release() []Cmd {
	held := q.held
	q.held = nil
	return held
}

// Shed reports whether the next command must be rejected with Busy: the FIFO
// is at its bound, or the commit latency is above the overload threshold.
func (q *Queue) Shed() bool {
	return q.maxPending > 0 && q.Len() >= q.maxPending || q.overload > 0 && q.ewma > q.overload
}

// Committed feeds one slot's propose→commit latency to the EWMA: the first
// sample seeds it, each later one moves it an eighth of the way.
func (q *Queue) Committed(latency time.Duration) {
	if q.ewma == 0 {
		q.ewma = latency
	} else {
		q.ewma += (latency - q.ewma) / 8
	}
}

// RetryAfter is the back-off a shed client is told: one smoothed commit
// latency, the time for the queue to make real progress, but at least 1ms
// and at most 100ms, so a latency spike cannot park the client fleet.
func (q *Queue) RetryAfter() time.Duration {
	return min(max(q.ewma, time.Millisecond), 100*time.Millisecond)
}

// Expired counts the queued commands that waited longer than the TTL by now:
// their clients have timed out, so proposing them would replicate dead work.
// The FIFO is in admission order, so they are the prefix Drop removes.
func (q *Queue) Expired(now time.Duration) int {
	n := 0
	for _, c := range q.Items() {
		if q.ttl <= 0 || c.At >= now-q.ttl {
			break
		}
		n++
	}
	return n
}

// HighWater is the deepest the FIFO and the hold have been together.
func (q *Queue) HighWater() uint64 { return q.highWater }

func (q *Queue) noteDepth() {
	q.highWater = max(q.highWater, uint64(q.Len()+len(q.held)))
}
