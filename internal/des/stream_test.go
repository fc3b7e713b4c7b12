package des

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refSim is the event queue with nothing but one list ordered by (at, seq):
// no slab, no heap, no streams, no compaction. It is the reference Sim is
// checked against — same scheduling rules (a negative delay runs now, a
// canceled event is discarded when it reaches the front, Run stops before
// the first live event past its horizon), nothing shared with Sim.
type refSim struct {
	now    time.Duration
	seq    uint64
	events []*refEvent
	ran    uint64
}

type refEvent struct {
	at       time.Duration
	seq      uint64
	fn       func()
	canceled bool
	done     bool
}

func (s *refSim) schedule(delay time.Duration, fn func()) *refEvent {
	if delay < 0 {
		delay = 0
	}
	ev := &refEvent{at: s.now + delay, seq: s.seq, fn: fn}
	s.seq++
	s.events = append(s.events, ev)
	return ev
}

// front returns the earliest queued event, canceled or not.
func (s *refSim) front() *refEvent {
	i := 0
	for j, ev := range s.events {
		if ev.at < s.events[i].at || ev.at == s.events[i].at && ev.seq < s.events[i].seq {
			i = j
		}
	}
	return s.events[i]
}

func (s *refSim) remove(ev *refEvent) {
	s.events = slices.DeleteFunc(s.events, func(x *refEvent) bool { return x == ev })
}

// run executes events up to until; RunUntilIdle's clock stays at the last
// event, Run's moves on to the horizon.
func (s *refSim) run(until time.Duration, idle bool) {
	for len(s.events) > 0 {
		ev := s.front()
		if ev.canceled {
			s.remove(ev)
			continue
		}
		if ev.at > until {
			break
		}
		s.remove(ev)
		s.now = ev.at
		s.ran++
		ev.done = true
		ev.fn()
	}
	if !idle && s.now < until {
		s.now = until
	}
}

func (s *refSim) live() int {
	n := 0
	for _, ev := range s.events {
		if !ev.canceled {
			n++
		}
	}
	return n
}

// runFunc adapts a function to Runner.
type runFunc func()

func (f runFunc) Run() { f() }

// mixSim is what a mix drives: Sim with its streams, or refSim.
type mixSim interface {
	schedule(delay time.Duration, fn func()) (stop func() bool)
	scheduleRunner(delay time.Duration, fn func(), stream int)
	run(until time.Duration)
	drain()
	now() time.Duration
	state() mixState
}

// mixState is a side's counters after one operation. Sim's Pending counts
// tombstones until compaction or the front of the queue removes them, so
// it must lie between the reference's live and queued counts.
type mixState struct {
	now          time.Duration
	executed     uint64
	live, queued int
}

type realSide struct {
	s       *Sim
	streams [3]Stream
}

func (r *realSide) schedule(d time.Duration, fn func()) func() bool {
	return r.s.Schedule(d, fn).Stop
}

func (r *realSide) scheduleRunner(d time.Duration, fn func(), stream int) {
	var st *Stream
	if stream < len(r.streams) {
		st = &r.streams[stream]
	}
	r.s.ScheduleRunner(d, runFunc(fn), st)
}

func (r *realSide) run(until time.Duration) { r.s.Run(until) }
func (r *realSide) drain()                  { r.s.RunUntilIdle() }
func (r *realSide) now() time.Duration      { return r.s.Now() }
func (r *realSide) state() mixState {
	return mixState{now: r.s.Now(), executed: r.s.Executed(), queued: r.s.Pending()}
}

type refSide struct{ s refSim }

func (r *refSide) schedule(d time.Duration, fn func()) func() bool {
	ev := r.s.schedule(d, fn)
	return func() bool {
		if ev.done || ev.canceled {
			return false
		}
		ev.canceled = true
		return true
	}
}

func (r *refSide) scheduleRunner(d time.Duration, fn func(), _ int) { r.s.schedule(d, fn) }
func (r *refSide) run(until time.Duration)                          { r.s.run(until, false) }
func (r *refSide) drain()                                           { r.s.run(1<<63-1, true) }
func (r *refSide) now() time.Duration                               { return r.s.now }
func (r *refSide) state() mixState {
	return mixState{now: r.s.now, executed: r.s.ran, live: r.s.live(), queued: len(r.s.events)}
}

// runMix decodes data three bytes per operation and applies it to sim. It
// returns the log of which event ran when and what each Stop reported, and
// the side's counters after every operation. Delays are a few
// microseconds, so equal times are common; runner events pick one of
// three streams or none, and their delays fall both before and after their
// stream's newest event. An event may schedule a child when it runs — a
// runner on its own stream, as a delivery schedules its handling.
func runMix(data []byte, sim mixSim) (log []string, states []mixState) {
	var stops []func() bool
	id := 0
	// event makes a callback; stream < 0 marks a closure event, whose
	// child is a closure too.
	var event func(child, stream int) func()
	event = func(child, stream int) func() {
		me := id
		id++
		return func() {
			log = append(log, fmt.Sprintf("%d@%v", me, sim.now()))
			if child < 0 {
				return
			}
			d := time.Duration(child-1) * time.Microsecond
			if stream < 0 {
				stops = append(stops, sim.schedule(d, event(-1, -1)))
			} else {
				sim.scheduleRunner(d, event(-1, stream), stream)
			}
		}
	}
	childOf := func(c byte) int {
		if c&0x80 == 0 {
			return -1
		}
		return int(c>>3) & 0x0f
	}
	for len(data) >= 3 {
		op, a, c := data[0], data[1], data[2]
		data = data[3:]
		switch op % 6 {
		case 0:
			d := time.Duration(int(a%16)-1) * time.Microsecond
			if a >= 240 {
				d = time.Hour + time.Duration(a) // parked: a retransmit guard
			}
			stops = append(stops, sim.schedule(d, event(childOf(c), -1)))
		case 1, 2:
			d := time.Duration(int(a%16)-1) * time.Microsecond
			stream := int(c % 4) // 3: no stream
			sim.scheduleRunner(d, event(childOf(c), stream), stream)
		case 3:
			if len(stops) > 0 {
				log = append(log, fmt.Sprintf("stop %v", stops[int(a)%len(stops)]()))
			}
		case 4:
			if a%8 == 0 {
				sim.drain()
			} else {
				sim.run(sim.now() + time.Duration(a%32)*time.Microsecond)
			}
		case 5:
			n := 0
			for _, stop := range stops {
				if stop() {
					n++
				}
			}
			log = append(log, fmt.Sprintf("stopped %d", n))
		}
		states = append(states, sim.state())
	}
	sim.drain()
	states = append(states, sim.state())
	return log, states
}

// checkMix runs data on Sim and on the reference and requires the same
// callbacks in the same order at the same times, the same Stop results,
// and matching counters after every operation.
func checkMix(t *testing.T, data []byte) {
	t.Helper()
	want, wantStates := runMix(data, &refSide{})
	got, gotStates := runMix(data, &realSide{s: New(1)})
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("diverged at log line %d: %s, reference %s", i, got[i], want[i])
			}
		}
		t.Fatalf("%d log lines, reference %d", len(got), len(want))
	}
	for i, g := range gotStates {
		w := wantStates[i]
		if g.now != w.now || g.executed != w.executed || g.queued < w.live || g.queued > w.queued {
			t.Fatalf("after operation %d: now %v, executed %d, pending %d; reference now %v, executed %d, %d live of %d queued",
				i, g.now, g.executed, g.queued, w.now, w.executed, w.live, w.queued)
		}
	}
}

// FuzzStreamsMatchHeap: streams must not change execution order. Random
// mixes of Schedule, Timer.Stop, Run(until), RunUntilIdle and stream
// scheduling — in order, out of order and at equal times — run the same
// callbacks at the same times as a single ordered list.
func FuzzStreamsMatchHeap(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 3*300)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{1, 5, 0, 1, 3, 0, 1, 5, 0, 4, 1, 0})          // out of order on one stream
	f.Add([]byte{1, 2, 0, 2, 2, 0, 0, 2, 0, 1, 2, 1, 4, 0, 0}) // equal times across streams and a closure
	f.Add([]byte{1, 0, 0x80, 1, 4, 0x88, 2, 1, 0xf9, 4, 9, 0}) // runners scheduling children on their stream
	f.Add([]byte{0, 3, 0, 1, 3, 0, 3, 0, 0, 4, 3, 0, 3, 0, 0}) // stop before and after firing
	f.Add(massCancelMix())
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMix(t, data)
	})
}

// massCancelMix is a stream backlog behind a heap of parked timers that are
// then all stopped, so compaction runs with streamed events pending.
func massCancelMix() []byte {
	var data []byte
	for i := 0; i < 200; i++ {
		data = append(data, 1, byte(i%16), 0, 0, 240+byte(i%16), 0)
	}
	data = append(data, 5, 0, 0, 4, 9, 0)
	return data
}

// TestStreamBacklogSurvivesCompaction: Pending counts a stream's backlog,
// and a compaction triggered by mass cancellation keeps every streamed
// event, which then runs in order.
func TestStreamBacklogSurvivesCompaction(t *testing.T) {
	s := New(1)
	var st Stream
	const streamed, parked = 2000, 1000
	var ran []int
	for i := 0; i < streamed; i++ {
		i := i
		s.ScheduleRunner(time.Duration(i)*time.Microsecond, runFunc(func() { ran = append(ran, i) }), &st)
	}
	timers := make([]*Timer, parked)
	for i := range timers {
		timers[i] = s.Schedule(time.Hour+time.Duration(i), func() { t.Error("stopped timer fired") })
	}
	if got := s.Pending(); got != streamed+parked {
		t.Fatalf("pending = %d, want %d (stream backlog counted)", got, streamed+parked)
	}
	if len(s.queue) != 1+parked {
		t.Fatalf("heap holds %d entries, want the stream's head and %d timers", len(s.queue), parked)
	}
	for _, tm := range timers {
		tm.Stop()
	}
	if got := s.Pending(); got < streamed || got >= streamed+compactMinCanceled {
		t.Fatalf("pending = %d after stopping every timer, want %d streamed plus fewer than %d tombstones",
			got, streamed, compactMinCanceled)
	}
	s.RunUntilIdle()
	if len(ran) != streamed {
		t.Fatalf("%d streamed events ran, want %d", len(ran), streamed)
	}
	for i, v := range ran {
		if v != i {
			t.Fatalf("streamed event %d ran at position %d", v, i)
		}
	}
	if s.Pending() != 0 {
		t.Errorf("pending after drain = %d", s.Pending())
	}
}

// TestStreamOutOfOrderGoesToHeap: an event earlier than its stream's
// newest runs in time order, ahead of the stream's backlog, and the stream
// keeps one heap entry however long its backlog.
func TestStreamOutOfOrderGoesToHeap(t *testing.T) {
	s := New(1)
	var st Stream
	var ran []string
	at := func(name string, d time.Duration) {
		s.ScheduleRunner(d, runFunc(func() { ran = append(ran, name) }), &st)
	}
	at("a", 10)
	at("b", 20)
	at("c", 20)
	at("early", 5) // before the tail: its own heap entry
	at("d", 30)
	if len(s.queue) != 2 || s.Pending() != 5 {
		t.Fatalf("heap %d, pending %d; want the head plus the early event, 5 pending", len(s.queue), s.Pending())
	}
	s.RunUntilIdle()
	if want := []string{"early", "a", "b", "c", "d"}; !slices.Equal(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
}
