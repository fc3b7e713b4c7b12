package slots

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wire"
)

// fakeCtx is a virtual clock with cancellable timers; only the timer half of
// node.Context is live.
type fakeCtx struct {
	now     time.Duration
	pending []*fakeTimer
	armed   int  // After calls made
	crashed bool // timers coming due are dropped, as on a crashed sim node
}

type fakeTimer struct {
	at      time.Duration
	seq     int
	fn      func()
	stopped bool
}

func (t *fakeTimer) Stop() bool { was := t.stopped; t.stopped = true; return !was }

func (c *fakeCtx) After(d time.Duration, fn func()) node.Timer {
	c.armed++
	t := &fakeTimer{at: c.now + d, seq: c.armed, fn: fn}
	c.pending = append(c.pending, t)
	return t
}
func (c *fakeCtx) Now() time.Duration           { return c.now }
func (c *fakeCtx) ID() ids.ID                   { return 0 }
func (c *fakeCtx) Send(ids.ID, wire.Msg)        {}
func (c *fakeCtx) Broadcast([]ids.ID, wire.Msg) {}
func (c *fakeCtx) Rand() *rand.Rand             { return nil }
func (c *fakeCtx) Work(time.Duration)           {}

// live returns the pending timers not stopped.
func (c *fakeCtx) live() int {
	n := 0
	for _, t := range c.pending {
		if !t.stopped {
			n++
		}
	}
	return n
}

// advance runs every timer due by to, in (time, arming) order.
func (c *fakeCtx) advance(to time.Duration) {
	for {
		sort.SliceStable(c.pending, func(i, j int) bool {
			if c.pending[i].at != c.pending[j].at {
				return c.pending[i].at < c.pending[j].at
			}
			return c.pending[i].seq < c.pending[j].seq
		})
		if len(c.pending) == 0 || c.pending[0].at > to {
			break
		}
		t := c.pending[0]
		c.pending = c.pending[1:]
		if !t.stopped {
			c.now = t.at
			t.stopped = true
			if !c.crashed {
				t.fn()
			}
		}
	}
	c.now = to
}

func TestTimersFireCancelRearm(t *testing.T) {
	ctx := &fakeCtx{}
	var fired []string
	tm := NewTimers(ctx, func(slot uint64, v string) {
		fired = append(fired, fmt.Sprintf("%d:%s@%v", slot, v, ctx.now))
	})
	tm.Arm(1, 10*time.Millisecond, "a")
	tm.Arm(2, 10*time.Millisecond, "b")
	tm.Arm(3, 10*time.Millisecond, "c")
	tm.Cancel(2)
	ctx.advance(5 * time.Millisecond)
	tm.Arm(1, 10*time.Millisecond, "a2") // re-arm replaces: fires at 15, not 10
	if tm.Armed() != 2 {
		t.Fatalf("armed = %d, want 2", tm.Armed())
	}
	ctx.advance(20 * time.Millisecond)
	want := []string{"3:c@10ms", "1:a2@15ms"}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if tm.Armed() != 0 || ctx.live() != 0 {
		t.Fatalf("idle set keeps %d armed, %d substrate timers", tm.Armed(), ctx.live())
	}
}

func TestTimersFireMayRearm(t *testing.T) {
	ctx := &fakeCtx{}
	var at []time.Duration
	var tm *Timers[int]
	tm = NewTimers(ctx, func(slot uint64, attempt int) {
		at = append(at, ctx.now)
		if attempt < 2 {
			tm.Arm(slot, 10*time.Millisecond, attempt+1)
		}
	})
	tm.Arm(7, 10*time.Millisecond, 0)
	ctx.advance(time.Second)
	if fmt.Sprint(at) != "[10ms 20ms 30ms]" {
		t.Fatalf("retry chain fired at %v", at)
	}
}

func TestTimersClear(t *testing.T) {
	ctx := &fakeCtx{}
	n := 0
	tm := NewTimers(ctx, func(uint64, struct{}) { n++ })
	for s := uint64(1); s <= 100; s++ {
		tm.Arm(s, time.Millisecond, struct{}{})
	}
	tm.Clear()
	if tm.Armed() != 0 || ctx.live() != 0 {
		t.Fatal("Clear left timers behind")
	}
	ctx.advance(time.Second)
	if n != 0 {
		t.Fatalf("%d cleared timers fired", n)
	}
	tm.Arm(5, time.Millisecond, struct{}{}) // usable afterwards
	ctx.advance(2 * time.Second)
	if n != 1 {
		t.Fatal("timer armed after Clear did not fire")
	}
}

// TestTimersSurviveDroppedFiring: the simulator drops a timer that comes due
// while its node is crashed. With one shared substrate timer that must not
// silence every later deadline: the next arming notices the overdue timer,
// fires what the outage held back and carries on.
func TestTimersSurviveDroppedFiring(t *testing.T) {
	ctx := &fakeCtx{}
	var fired []string
	tm := NewTimers(ctx, func(slot uint64, _ struct{}) {
		fired = append(fired, fmt.Sprintf("%d@%v", slot, ctx.now))
	})
	tm.Arm(1, 10*time.Millisecond, struct{}{})
	tm.Arm(2, 10*time.Millisecond, struct{}{})
	tm.Cancel(2)
	ctx.crashed = true
	ctx.advance(50 * time.Millisecond) // slot 1's firing is lost
	ctx.crashed = false
	tm.Arm(3, 10*time.Millisecond, struct{}{})
	ctx.advance(100 * time.Millisecond)
	if fmt.Sprint(fired) != "[1@50ms 3@60ms]" {
		t.Fatalf("fired %v, want slot 1 late at 50ms and slot 3 on time at 60ms", fired)
	}
}

// TestTimersHealthyRunArmsOncePerTimeout is the saving: slots that commit
// long before their timeout cost one substrate timer per timeout period
// between them, not one each, and leave nothing behind.
func TestTimersHealthyRunArmsOncePerTimeout(t *testing.T) {
	ctx := &fakeCtx{}
	tm := NewTimers(ctx, func(slot uint64, _ struct{}) { t.Errorf("slot %d expired", slot) })
	const timeout, perSlot, slots = 100 * time.Millisecond, 20 * time.Microsecond, 200000
	for s := uint64(1); s <= slots; s++ {
		tm.Arm(s, timeout, struct{}{})
		if s > 4 {
			tm.Cancel(s - 4) // four in flight
		}
		ctx.advance(ctx.now + perSlot)
	}
	periods := int(slots * perSlot / timeout)
	if ctx.armed > periods+2 {
		t.Errorf("%d substrate timers armed over %d timeout periods", ctx.armed, periods)
	}
	if tm.cells.Len() > 8 || len(tm.queue)-tm.head > 8 {
		t.Errorf("state grew with the run: window %d, queue %d", tm.cells.Len(), len(tm.queue)-tm.head)
	}
}

// TestTimersMatchPerSlotTimers is the equivalence the type exists for: under
// a random arm/cancel/clear load, every expiry lands on the slot, payload and
// virtual instant that one substrate timer per slot produces — with a single
// substrate timer pending throughout. Mixed timeouts exercise the sorted
// insert.
func TestTimersMatchPerSlotTimers(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		ctx, ref := &fakeCtx{}, &fakeCtx{}
		var got, want []string
		tm := NewTimers(ctx, func(slot uint64, v int) {
			got = append(got, fmt.Sprintf("%d:%d@%v", slot, v, ctx.now))
		})
		refTimers := map[uint64]*fakeTimer{}
		base := uint64(1000)
		for step := 0; step < 30000; step++ {
			if step%3 == 0 {
				base++ // slots drift upward, as a log's do
			}
			slot := base + uint64(rng.Intn(64))
			switch op := rng.Intn(10); {
			case op < 5:
				d := 10 * time.Millisecond
				if mixed && rng.Intn(3) == 0 {
					d = 4 * time.Millisecond
				}
				v := step
				tm.Arm(slot, d, v)
				if old := refTimers[slot]; old != nil {
					old.Stop()
				}
				refTimers[slot] = ref.After(d, func() {
					delete(refTimers, slot)
					want = append(want, fmt.Sprintf("%d:%d@%v", slot, v, ref.now))
				}).(*fakeTimer)
			case op < 8:
				tm.Cancel(slot)
				if old := refTimers[slot]; old != nil {
					old.Stop()
					delete(refTimers, slot)
				}
			case op == 8 && rng.Intn(50) == 0:
				tm.Clear()
				for s, old := range refTimers {
					old.Stop()
					delete(refTimers, s)
				}
			default:
				to := ctx.now + time.Duration(rng.Intn(3000))*time.Microsecond
				ctx.advance(to)
				ref.advance(to)
			}
			if ctx.live() > 1 {
				t.Fatalf("mixed=%v step %d: %d substrate timers pending", mixed, step, ctx.live())
			}
			if tm.Armed() != len(refTimers) {
				t.Fatalf("mixed=%v step %d: armed %d, want %d", mixed, step, tm.Armed(), len(refTimers))
			}
		}
		ctx.advance(ctx.now + time.Second)
		ref.advance(ref.now + time.Second)
		if len(want) < 1000 {
			t.Fatalf("load too light to mean anything: %d expiries", len(want))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("mixed=%v: expiry %d differs: got %v want %v", mixed, i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
				}
			}
			t.Fatalf("mixed=%v: %d extra expiries", mixed, len(got)-len(want))
		}
		if w := tm.cells.Len(); w > 128 {
			t.Errorf("mixed=%v: cell window spans %d slots after everything fired", mixed, w)
		}
		if len(tm.queue) > 4096 {
			t.Errorf("mixed=%v: queue holds %d entries after everything fired", mixed, len(tm.queue))
		}
	}
}
