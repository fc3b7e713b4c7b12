package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

// golden is 1..20 shuffled; its order statistics are its values.
var golden = []float64{7, 13, 2, 19, 5, 11, 17, 3, 20, 1, 9, 15, 6, 12, 18, 4, 10, 16, 8, 14}

func TestPercentileNearestRank(t *testing.T) {
	s := sortedCopy(golden)
	for _, c := range []struct{ p, want float64 }{
		{50, 10}, {99, 20}, {95, 19}, {90, 18}, {5, 1}, {5.1, 2}, {100, 20}, {0.1, 1}, {25, 5}, {75, 15},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..20, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// 99.9 % of 10000 is rank 9990 exactly, not 9991 by float error.
	big := make([]float64, 10000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99.9); got != 9990 {
		t.Errorf("percentile(1..10000, 99.9) = %v, want 9990", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if golden[0] != 7 {
		t.Error("sortedCopy sorted its argument in place")
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median(golden); got != 10.5 {
		t.Errorf("median(1..20) = %v, want 10.5", got)
	}
	if got := median(golden[:5]); got != 7 { // 2 5 7 13 19
		t.Errorf("median of five = %v, want 7", got)
	}
	// statistics.quantiles(range(1, 21), n=4) == [5.25, 10.5, 15.75]
	if q1, q3 := quartiles(golden); q1 != 5.25 || q3 != 15.75 {
		t.Errorf("quartiles(1..20) = %v, %v, want 5.25, 15.75", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4) == [3.5, 24.0, 160.0]
	if q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256}); q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles(powers of two) = %v, %v, want 3.5, 160", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles(10, 20) = %v, %v, want 7.5, 22.5", q1, q3)
	}
}

func TestSegments(t *testing.T) {
	// A 4 s phase in four segments. Segment i holds 100*(i+1) requests due
	// evenly inside it; request j of a segment waits j+1 microseconds.
	const sec = int64(1e9)
	var samples []sample
	for seg := int64(0); seg < 4; seg++ {
		n := 100 * (seg + 1)
		for j := int64(0); j < n; j++ {
			due := seg*sec + j*(sec/2/n) // first half of the segment, so acks stay inside it
			samples = append(samples, sample{due: due, ack: due + (j+1)*1000})
		}
	}
	samples = append(samples, sample{due: 4 * sec, ack: 4*sec + 5}) // outside the phase: ignored

	rates := segmentRates(samples, 4*sec, 4)
	for i, want := range []float64{100, 200, 300, 400} {
		if rates[i] != want {
			t.Errorf("segment %d rate = %v, want %v", i, rates[i], want)
		}
	}
	if got := median(rates); got != 250 {
		t.Errorf("median segment rate = %v, want 250", got)
	}

	segs := segmentLatencies(samples, 4*sec, 4)
	for i, s := range segs {
		n := 100 * (i + 1)
		if s.n != n || s.p50 != float64(n/2) || s.p99 != float64(n*99/100) || s.maxWait != float64(n) || s.beyond99 != n/100 {
			t.Errorf("segment %d = %+v, want n=%d p50=%d p99=%d max=%d beyond=%d", i, s, n, n/2, n*99/100, n, n/100)
		}
	}
	if got := medianOf(segs, func(s segment) float64 { return s.p99 }); got != (198+297)/2.0 {
		t.Errorf("median of segment p99s = %v, want 247.5", got)
	}
	if got := medianOf(segs, func(s segment) float64 { return s.maxWait }); math.Abs(got-250) > 1e-9 {
		t.Errorf("median of segment longest waits = %v, want 250", got)
	}
}

// TestFastestWallRepeats checks the repetition rule of a set-up measurement:
// at least minReps, at most maxReps, and no further once the budget is spent
// or fn fails. It asserts no timing.
func TestFastestWallRepeats(t *testing.T) {
	calls := 0
	count := func() error { calls++; return nil }
	if fastest, slowest, n, err := fastestWall(3, 7, 0, count); err != nil || n != 3 || calls != 3 || fastest > slowest {
		t.Errorf("spent budget: %d reps, %d calls, fastest %v slowest %v, err %v; want 3 reps", n, calls, fastest, slowest, err)
	}
	calls = 0
	if _, _, n, err := fastestWall(3, 7, time.Hour, count); err != nil || n != 7 || calls != 7 {
		t.Errorf("open budget: %d reps, %d calls, err %v; want 7 reps", n, calls, err)
	}
	calls = 0
	failing := func() error {
		if calls++; calls == 2 {
			return errors.New("boom")
		}
		return nil
	}
	if _, _, n, err := fastestWall(3, 7, time.Hour, failing); err == nil || n != 1 || calls != 2 {
		t.Errorf("failing fn: %d reps, %d calls, err %v; want the error after 1 rep", n, calls, err)
	}
}
