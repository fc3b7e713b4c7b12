package des

import (
	"testing"
	"time"
)

// TestPendingShrinksAfterMassCancellation: canceled timers must not sit in
// the heap indefinitely — once they outnumber live events the queue
// compacts, so Pending() (and the memory behind it) shrinks without any
// event needing to fire. Regression test for Timer.Stop leaving tombstones
// forever.
func TestPendingShrinksAfterMassCancellation(t *testing.T) {
	s := New(1)
	const n = 10000
	timers := make([]*Timer, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, s.Schedule(time.Duration(i)*time.Millisecond+time.Hour, func() {}))
	}
	// A handful of live events that must survive compaction.
	live := 0
	for i := 0; i < 10; i++ {
		s.Schedule(time.Duration(i)*time.Microsecond, func() { live++ })
	}
	if s.Pending() != n+10 {
		t.Fatalf("pending = %d, want %d", s.Pending(), n+10)
	}
	for _, tm := range timers {
		if !tm.Stop() {
			t.Fatal("Stop on a pending timer must succeed")
		}
	}
	if s.Pending() >= n {
		t.Errorf("pending = %d after mass cancellation, heap did not compact", s.Pending())
	}
	if s.Pending() < 10 {
		t.Errorf("pending = %d, compaction dropped live events", s.Pending())
	}
	s.RunUntilIdle()
	if live != 10 {
		t.Errorf("%d live events fired, want 10", live)
	}
	if got := s.Executed(); got != 10 {
		t.Errorf("executed = %d, want 10 (canceled events must not execute)", got)
	}
}

// TestStopAfterFire: a timer whose event already ran reports false and,
// crucially, must not cancel the event that reused its slab slot.
func TestStopAfterFire(t *testing.T) {
	s := New(1)
	tm := s.Schedule(time.Millisecond, func() {})
	s.RunUntilIdle()
	if tm.Stop() {
		t.Error("Stop after fire must report false")
	}
	// The fired event's slot is now free; schedule a new event into it.
	fired := false
	s.Schedule(time.Millisecond, func() { fired = true })
	if tm.Stop() {
		t.Error("stale handle must not cancel the slot's new tenant")
	}
	s.RunUntilIdle()
	if !fired {
		t.Error("new tenant of a recycled slot must fire")
	}
}

// TestCompactionPreservesOrder: a compaction-triggering mass cancellation
// must not perturb the firing order of the surviving events. The control
// run schedules only the live events (so no compaction can occur); the
// compacted run interleaves enough victims that canceling them rebuilds
// the heap. Live events keep their relative seq order in both runs, so
// same-time ties must resolve identically.
func TestCompactionPreservesOrder(t *testing.T) {
	const live = 500
	run := func(withVictims bool) []int {
		s := New(7)
		var got []int
		var victims []*Timer
		for i := 0; i < live; i++ {
			i := i
			d := time.Duration((i*37)%100) * time.Millisecond // many same-time ties
			s.Schedule(d, func() { got = append(got, i) })
			if withVictims {
				// Two victims per live event: canceling them satisfies
				// 2*canceled >= len(queue), forcing a compaction.
				for k := 0; k < 2; k++ {
					victims = append(victims, s.Schedule(d+time.Hour, func() { t.Error("canceled event fired") }))
				}
			}
		}
		if withVictims {
			for _, v := range victims {
				v.Stop()
			}
			// Compaction fires when tombstones reach half the queue
			// (at 750 of 1500 here), then the remaining cancellations
			// stay below the ratio — so pending lands well under the
			// 1500 scheduled but above the 500 live.
			if p := s.Pending(); p >= live+len(victims)/2 {
				t.Fatalf("pending = %d after mass cancel, want < %d (compaction did not run)", p, live+len(victims)/2)
			}
		}
		s.RunUntilIdle()
		return got
	}
	a, b := run(true), run(false)
	if len(a) != live || len(b) != live {
		t.Fatalf("event counts: %d vs %d, want %d", len(a), len(b), live)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

type countRunner struct {
	s     *Sim
	n     int
	hops  int
	delay time.Duration
}

func (r *countRunner) Run() {
	r.n++
	if r.n < r.hops {
		r.s.ScheduleRunner(r.delay, r, nil)
	}
}

// TestScheduleRunner: runner events interleave with closure events in
// strict (at, seq) order and can reschedule themselves.
func TestScheduleRunner(t *testing.T) {
	s := New(1)
	r := &countRunner{s: s, hops: 5, delay: time.Millisecond}
	s.ScheduleRunner(time.Millisecond, r, nil)
	closures := 0
	s.Schedule(2*time.Millisecond+time.Microsecond, func() { closures++ })
	s.RunUntilIdle()
	if r.n != 5 {
		t.Errorf("runner ran %d times, want 5", r.n)
	}
	if closures != 1 {
		t.Errorf("closure ran %d times, want 1", closures)
	}
	if s.Now() != 5*time.Millisecond {
		t.Errorf("now = %v, want 5ms", s.Now())
	}
}

// TestScheduleSteadyStateAllocs: once the slab has grown, the
// schedule→fire cycle must not allocate for runner events (closure events
// still pay their Timer handle and closure capture).
func TestScheduleSteadyStateAllocs(t *testing.T) {
	s := New(1)
	r := &countRunner{s: s, hops: 1 << 30, delay: 0}
	s.ScheduleRunner(0, r, nil)
	s.step()
	allocs := testing.AllocsPerRun(1000, func() {
		s.step() // each step re-schedules the runner into the freed slot
	})
	if allocs != 0 {
		t.Errorf("steady-state runner schedule/fire allocates %.2f allocs/op, want 0", allocs)
	}
}

func BenchmarkScheduleRunnerStep(b *testing.B) {
	s := New(1)
	r := &countRunner{s: s, hops: b.N + 2, delay: time.Microsecond}
	s.ScheduleRunner(time.Microsecond, r, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.step()
	}
}

// BenchmarkMassCancel measures the Stop+compaction path under retransmit
// churn: arm many far-future timers, cancel them all.
func BenchmarkMassCancel(b *testing.B) {
	s := New(1)
	timers := make([]*Timer, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range timers {
			timers[j] = s.Schedule(time.Hour+time.Duration(j), func() {})
		}
		for _, tm := range timers {
			tm.Stop()
		}
	}
	s.RunUntilIdle()
}
