package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Min() != time.Millisecond {
		t.Errorf("min = %v", h.Min())
	}
	if h.Max() != 100*time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
	mean := h.Mean()
	if mean < 50*time.Millisecond || mean > 51*time.Millisecond {
		t.Errorf("mean = %v, want ~50.5ms", mean)
	}
}

func TestHistogramPercentilesExact(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if p := h.Percentile(50); p != 500*time.Microsecond {
		t.Errorf("p50 = %v, want 500µs", p)
	}
	if p := h.Percentile(99); p != 990*time.Microsecond {
		t.Errorf("p99 = %v, want 990µs", p)
	}
	if p := h.Percentile(100); p != 1000*time.Microsecond {
		t.Errorf("p100 = %v, want 1000µs", p)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 {
		t.Error("empty histogram should return zeros")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second)
	if h.Min() != 0 {
		t.Error("negative samples clamp to zero")
	}
}

// Percentiles stay exact past 65,536 samples: a histogram that stopped
// keeping samples there answered with power-of-two bucket bounds (p50 of
// 1..100,000 µs came back as 65.536 ms).
func TestHistogramExactPastManySamples(t *testing.T) {
	h := NewHistogram()
	for i := 100000; i >= 1; i-- {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50 * time.Millisecond}, {99, 99 * time.Millisecond}, {99.9, 99900 * time.Microsecond}, {100, 100 * time.Millisecond}} {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if h.Count() != 100000 {
		t.Errorf("count = %d, want 100000", h.Count())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
}

func TestSummaryString(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 || !strings.Contains(s.String(), "n=1") {
		t.Errorf("summary: %v", s)
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	// 10 events in second 0, 20 in second 2, none in second 1.
	for i := 0; i < 10; i++ {
		ts.Record(500 * time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		ts.Record(2500 * time.Millisecond)
	}
	pts := ts.Series()
	if len(pts) != 3 {
		t.Fatalf("series has %d points, want 3", len(pts))
	}
	if pts[0].Rate != 10 || pts[1].Rate != 0 || pts[2].Rate != 20 {
		t.Errorf("rates = %v %v %v, want 10 0 20", pts[0].Rate, pts[1].Rate, pts[2].Rate)
	}
	if pts[2].Start != 2*time.Second {
		t.Errorf("window start = %v, want 2s", pts[2].Start)
	}
}

func TestTimeSeriesSubSecondWidth(t *testing.T) {
	ts := NewTimeSeries(100 * time.Millisecond)
	ts.Record(50 * time.Millisecond)
	ts.Record(60 * time.Millisecond)
	pts := ts.Series()
	if len(pts) != 1 || pts[0].Rate != 20 {
		t.Errorf("rate = %v, want 20/s (2 events in 0.1s)", pts)
	}
}

func TestTimeSeriesPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero width should panic")
		}
	}()
	NewTimeSeries(0)
}

func TestTable(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{{"xx", "1"}, {"y", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines = %d, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a ") || !strings.Contains(lines[0], "long-header") {
		t.Errorf("header row: %q", lines[0])
	}
	// Columns align: the second column starts at the same offset everywhere.
	off := strings.Index(lines[0], "long-header")
	if strings.Index(lines[1], "1") != off || strings.Index(lines[2], "22") != off {
		t.Errorf("misaligned table:\n%s", out)
	}
}

func TestGapTrackerEmptyAndSingle(t *testing.T) {
	var g GapTracker
	if s, gap := g.MaxGap(); s != 0 || gap != 0 {
		t.Errorf("empty tracker gap = (%v,%v)", s, gap)
	}
	if _, ok := g.FirstAfter(0); ok {
		t.Error("empty tracker has an event")
	}
	g.Record(5 * time.Millisecond)
	if s, gap := g.MaxGap(); s != 0 || gap != 0 {
		t.Errorf("single event gap = (%v,%v), want zero (needs service on both sides)", s, gap)
	}
	if g.Count() != 1 {
		t.Errorf("count = %d", g.Count())
	}
}

func TestGapTrackerMaxGapAndRecovery(t *testing.T) {
	var g GapTracker
	for _, at := range []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond,
		// fault window: no service 3ms..50ms
		50 * time.Millisecond, 51 * time.Millisecond,
	} {
		g.Record(at)
	}
	start, gap := g.MaxGap()
	if start != 3*time.Millisecond || gap != 47*time.Millisecond {
		t.Errorf("gap = (%v,%v), want (3ms,47ms)", start, gap)
	}
	at, ok := g.FirstAfter(10 * time.Millisecond)
	if !ok || at != 50*time.Millisecond {
		t.Errorf("FirstAfter(10ms) = (%v,%v), want 50ms", at, ok)
	}
	at, ok = g.FirstAfter(51 * time.Millisecond)
	if !ok || at != 51*time.Millisecond {
		t.Errorf("FirstAfter(51ms) = (%v,%v), want exactly 51ms", at, ok)
	}
	if _, ok := g.FirstAfter(52 * time.Millisecond); ok {
		t.Error("FirstAfter past the last event should report none")
	}
}

func TestGapTrackerGapsOver(t *testing.T) {
	g := &GapTracker{}
	for _, at := range []time.Duration{
		0, 10 * time.Millisecond, 20 * time.Millisecond,
		500 * time.Millisecond, // 480ms stall
		510 * time.Millisecond,
		900 * time.Millisecond, // 390ms stall
	} {
		g.Record(at)
	}
	if n := g.GapsOver(250 * time.Millisecond); n != 2 {
		t.Errorf("GapsOver(250ms) = %d, want 2", n)
	}
	if n := g.GapsOver(time.Second); n != 0 {
		t.Errorf("GapsOver(1s) = %d, want 0", n)
	}
	if n := (&GapTracker{}).GapsOver(time.Millisecond); n != 0 {
		t.Errorf("empty tracker GapsOver = %d", n)
	}
}

// Golden quantiles for the load tester's reporting path: a known input set
// must produce exact p50/p99/p99.9 while raw samples are retained.
func TestHistogramGoldenQuantiles(t *testing.T) {
	h := NewHistogram()
	// 10000 samples 1..10000µs in a scrambled insertion order (order must
	// not matter).
	for i := 0; i < 10000; i++ {
		v := (i*7919)%10000 + 1 // 7919 coprime with 10000: a permutation
		h.Observe(time.Duration(v) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 10000 {
		t.Fatalf("count = %d", s.Count)
	}
	for _, c := range []struct {
		name string
		got  time.Duration
		want time.Duration
	}{
		{"p50", s.P50, 5000 * time.Microsecond},
		{"p99", s.P99, 9900 * time.Microsecond},
		{"p99.9", s.P999, 9990 * time.Microsecond},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if !strings.Contains(s.String(), "p99.9=9.99ms") {
		t.Errorf("summary string missing p99.9: %q", s.String())
	}
}
