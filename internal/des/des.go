// Package des is a deterministic discrete-event simulator: a virtual clock,
// a priority queue of timed events, and a seeded RNG. It is the substrate
// that replaces the paper's AWS testbed — protocols run unchanged on top of
// a simulated network (internal/netsim) whose delays advance virtual time
// instead of wall time, so experiments that take minutes of cluster time
// finish in milliseconds and are exactly reproducible.
//
// Events live in a slab with free-list reuse: scheduling allocates nothing
// once the slab has grown to the experiment's working set. The binary heap
// holds each event's (time, sequence) key next to its int32 slab index, so
// ordering the heap never leaves the heap's own array. Canceled timers are
// compacted out of the heap once they outnumber live events, so retransmit
// and heartbeat churn cannot grow the queue without bound.
//
// A Stream keeps a FIFO of runner events out of the heap. Only its head
// sits in the heap; the rest wait in the stream's ring, each under the
// (time, sequence) key it got when it was scheduled. An event joins a
// stream's ring only when it is no earlier than the stream's newest event,
// so every stream is sorted; an earlier one goes straight into the heap on
// its own. When a head is popped, the stream's next event takes its place
// in the heap. Because (time, sequence) is a total order and each stream is
// sorted, the heap's minimum is still the earliest pending event, and
// events run in exactly the order a single heap would run them: a stream
// changes what ordering costs, never the order. A busy endpoint that has
// thousands of deliveries queued behind its CPU (netsim) costs the heap one
// entry.
//
// Events due at the same instant run in sequence order. That tie-break is
// the one place a run could take another path without moving any event's
// time, and with streams it is the choice of which equal-time head in the
// heap runs next; events within one stream keep their order, as a FIFO
// link keeps its messages'. A chooser that explores delivery orders would
// choose there, with sequence order as its default.
package des

import (
	"math/rand"
	"time"
)

// Runner is a pre-allocated schedulable unit: an alternative to closure
// callbacks for hot paths that reuse one object across many events (e.g.
// netsim's pooled message deliveries).
type Runner interface {
	Run()
}

// event is one scheduled callback, stored in the simulator's slab. Exactly
// one of fn and runner is set. gen guards Timer handles against slot reuse.
// stream is set while the event is its stream's head in the heap.
type event struct {
	fn       func()
	runner   Runner
	stream   *Stream
	gen      uint32
	canceled bool
}

// entry is one heap element: when the event at slab index idx runs.
type entry struct {
	at  time.Duration
	seq uint64 // tie-break so same-time events run in schedule order
	idx int32
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Stream is a FIFO lane of runner events whose times never decrease, such
// as the deliveries queued behind one endpoint's CPU. Its zero value is an
// empty stream. A stream belongs to one Sim and must not be copied once
// used.
type Stream struct {
	ring  []entry // backlog behind the head, oldest at ring[first]
	first int
	n     int
	tail  time.Duration // time of the stream's newest event
	live  bool          // the stream's head sits in the heap
}

// push appends x to the backlog, doubling the ring when it is full.
func (st *Stream) push(x entry) {
	if st.n == len(st.ring) {
		ring := make([]entry, max(8, 2*len(st.ring)))
		k := copy(ring, st.ring[st.first:])
		copy(ring[k:], st.ring[:st.first])
		st.ring, st.first = ring, 0
	}
	st.ring[(st.first+st.n)&(len(st.ring)-1)] = x
	st.n++
}

// pop removes and returns the oldest backlog entry.
func (st *Stream) pop() entry {
	x := st.ring[st.first]
	st.first = (st.first + 1) & (len(st.ring) - 1)
	st.n--
	return x
}

// Timer is a handle to a scheduled event that can be stopped.
type Timer struct {
	s   *Sim
	idx int32
	gen uint32
}

// Stop cancels the timer if it has not fired. It reports whether the call
// prevented the event from firing.
func (t *Timer) Stop() bool {
	if t == nil || t.s == nil {
		return false
	}
	s := t.s
	e := &s.slab[t.idx]
	if e.gen != t.gen || e.canceled {
		return false // already fired (slot recycled) or already stopped
	}
	e.canceled = true
	s.canceled++
	s.maybeCompact()
	return true
}

// Sim is a single-threaded discrete-event simulator. All scheduled callbacks
// run on the caller's goroutine inside Run*; the simulator itself is not
// safe for concurrent use.
type Sim struct {
	now      time.Duration
	slab     []event
	free     []int32 // free slab slots (stack)
	queue    []entry // binary heap ordered by (at, seq)
	seq      uint64
	rng      *rand.Rand
	events   uint64
	canceled int // canceled events still sitting in the queue
	backlog  int // events waiting in stream rings behind their heads
}

// New creates a simulator with a deterministic RNG seeded by seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (zero at construction).
func (s *Sim) Now() time.Duration { return s.now }

// Rand exposes the simulator's deterministic RNG. All protocol randomness
// (relay selection, jitter) must come from here for reproducibility.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// alloc takes a slab slot from the free list, growing the slab when empty.
func (s *Sim) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.slab = append(s.slab, event{})
	return int32(len(s.slab) - 1)
}

// release returns a slot to the free list, bumping its generation so stale
// Timer handles cannot cancel the slot's next tenant.
func (s *Sim) release(idx int32) {
	e := &s.slab[idx]
	e.fn, e.runner, e.stream = nil, nil, nil
	e.canceled = false
	e.gen++
	s.free = append(s.free, idx)
}

// scheduleEvent queues fn or r after delay. With a stream, the event joins
// the stream's backlog when it is no earlier than the stream's newest event,
// becomes the stream's head when the stream is empty, and otherwise enters
// the heap on its own.
func (s *Sim) scheduleEvent(delay time.Duration, fn func(), r Runner, st *Stream) (int32, uint32) {
	if delay < 0 {
		delay = 0 // run at the current instant, after queued same-time events
	}
	idx := s.alloc()
	e := &s.slab[idx]
	e.fn, e.runner = fn, r
	gen := e.gen
	x := entry{at: s.now + delay, seq: s.seq, idx: idx}
	s.seq++
	if st != nil {
		if !st.live {
			st.live, st.tail = true, x.at
			e.stream = st
		} else if x.at >= st.tail {
			st.tail = x.at
			st.push(x)
			s.backlog++
			return idx, gen
		}
	}
	s.queue = append(s.queue, x)
	s.up(len(s.queue) - 1)
	return idx, gen
}

// Schedule runs fn after delay of virtual time and returns a cancellable
// handle. A negative delay is treated as zero (run at the current instant,
// after already-queued same-time events).
func (s *Sim) Schedule(delay time.Duration, fn func()) *Timer {
	idx, gen := s.scheduleEvent(delay, fn, nil, nil)
	return &Timer{s: s, idx: idx, gen: gen}
}

// ScheduleRunner schedules r.Run after delay of virtual time without
// allocating: no closure, no Timer handle. Hot paths that reschedule a
// pooled object (netsim message delivery) use this instead of Schedule.
// A non-nil st queues the event on that stream, which keeps it out of the
// heap while an earlier event of the stream is pending; the event runs at
// the same point in the order either way.
func (s *Sim) ScheduleRunner(delay time.Duration, r Runner, st *Stream) {
	s.scheduleEvent(delay, nil, r, st)
}

// ---- binary heap, ordered by (at, seq) ----

// up sifts the entry at j towards the root.
func (s *Sim) up(j int) {
	q := s.queue
	x := q[j]
	for j > 0 {
		i := (j - 1) / 2
		if !x.before(q[i]) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = x
}

// down sifts the entry at i towards the leaves.
func (s *Sim) down(i int) {
	q := s.queue
	n := len(q)
	x := q[i]
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r].before(q[j]) {
			j = r
		}
		if !q[j].before(x) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = x
}

func (s *Sim) popMin() entry {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	s.queue = q[:n]
	if n > 0 {
		s.down(0)
	}
	return top
}

// popHead removes the heap's root, the live event e. When e heads a stream
// with a backlog, the stream's next event takes the root's place.
func (s *Sim) popHead(e *event) entry {
	st := e.stream
	if st == nil || st.n == 0 {
		if st != nil {
			st.live = false
		}
		return s.popMin()
	}
	top := s.queue[0]
	next := st.pop()
	s.backlog--
	s.slab[next.idx].stream = st
	s.queue[0] = next
	s.down(0)
	return top
}

// compactMinCanceled bounds how small a queue bothers compacting; below
// this, canceled events drain cheaply through normal pops.
const compactMinCanceled = 64

// maybeCompact rebuilds the heap without canceled events once they reach
// half the queue, so mass timer cancellation (retransmit guards on commit,
// heartbeat resets) returns memory instead of accumulating tombstones.
// Heapify order does not affect pop order: (at, seq) is a total order.
func (s *Sim) maybeCompact() {
	if s.canceled < compactMinCanceled || 2*s.canceled < len(s.queue) {
		return
	}
	live := s.queue[:0]
	for _, q := range s.queue {
		if s.slab[q.idx].canceled {
			s.canceled--
			s.release(q.idx)
		} else {
			live = append(live, q)
		}
	}
	s.queue = live
	for i := len(s.queue)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

// step executes the earliest pending event. It returns false when the queue
// is empty.
func (s *Sim) step() bool {
	for len(s.queue) > 0 {
		e := &s.slab[s.queue[0].idx]
		if e.canceled {
			top := s.popMin()
			s.canceled--
			s.release(top.idx)
			continue
		}
		top := s.popHead(e)
		s.now = top.at
		s.events++
		fn, r := e.fn, e.runner
		// Release before running: the callback may schedule new events,
		// which can then reuse this slot immediately.
		s.release(top.idx)
		if r != nil {
			r.Run()
		} else {
			fn()
		}
		return true
	}
	return false
}

// Run processes events until virtual time exceeds until or the queue drains.
// Events scheduled exactly at until still run.
func (s *Sim) Run(until time.Duration) {
	for len(s.queue) > 0 {
		// Peek: stop before executing an event beyond the horizon.
		root := s.queue[0]
		if s.slab[root.idx].canceled {
			s.popMin()
			s.canceled--
			s.release(root.idx)
			continue
		}
		if root.at > until {
			s.now = until
			return
		}
		s.step()
	}
	if s.now < until {
		s.now = until
	}
}

// RunUntilIdle processes events until none remain.
func (s *Sim) RunUntilIdle() {
	for s.step() {
	}
}

// Pending returns the number of queued events, stream backlogs included,
// counting canceled ones not yet compacted away.
func (s *Sim) Pending() int { return len(s.queue) + s.backlog }

// Executed returns the total number of events executed so far.
func (s *Sim) Executed() uint64 { return s.events }
