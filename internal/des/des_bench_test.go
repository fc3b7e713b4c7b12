package des

import (
	"testing"
	"time"
)

// The event queue is the substrate every simulated experiment runs on; the
// batching sweeps schedule millions of events per run. These benchmarks
// guard its hot path so wall-clock cost of the sweeps stays bounded.

func BenchmarkScheduleStep(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Microsecond, func() {})
		s.step()
	}
}

// BenchmarkScheduleDepth1k measures scheduling and firing a near event
// over a heap of 1,000 timers parked an hour out, as retransmit guards and
// election timers sit in the heap. Deliveries queued behind a busy CPU are
// a different shape — they ride streams, not the heap — and netsim's
// BenchmarkSaturatedEndpoint measures them.
func BenchmarkScheduleDepth1k(b *testing.B) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond+time.Hour, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Microsecond, func() {})
		s.step()
	}
}

func BenchmarkTimerStop(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := s.Schedule(time.Hour, func() {})
		t.Stop()
		if i%1024 == 0 {
			s.RunUntilIdle() // drain cancelled events so the heap stays bounded
		}
	}
}

func BenchmarkRunUntilIdleFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		// One root event fanning out to 64 children, twice removed — the
		// shape of a leader fan-out with per-follower deliveries.
		s.Schedule(0, func() {
			for j := 0; j < 64; j++ {
				j := j
				s.Schedule(time.Duration(j)*time.Microsecond, func() {
					s.Schedule(time.Microsecond, func() {})
				})
			}
		})
		s.RunUntilIdle()
	}
}
