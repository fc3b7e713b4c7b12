// Package metrics provides the measurement primitives the benchmark harness
// uses: latency histograms with exact percentiles, fixed-width throughput
// time series (the paper's Figure 13 samples throughput over one-second
// intervals), availability-gap trackers and aligned tables.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Histogram records duration samples and answers percentile queries. It
// keeps every sample, so percentiles are exact nearest-rank at any count.
// Histogram is safe for concurrent use.
type Histogram struct {
	mu  sync.Mutex
	raw []time.Duration
	sum time.Duration
	min time.Duration
	max time.Duration
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.raw = append(h.raw, d)
	h.sum += d
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return uint64(len(h.raw))
}

// Mean returns the arithmetic mean of all samples (0 if empty).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.raw) == 0 {
		return 0
	}
	return h.sum / time.Duration(len(h.raw))
}

// Min returns the smallest sample (0 if empty).
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.raw) == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Percentile returns the p-th percentile (0 < p ≤ 100): the nearest-rank
// sample.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.raw) == 0 {
		return 0
	}
	// Sorting in place costs nothing later: the order of the kept samples
	// means nothing, and a sorted prefix sorts fast on the next query.
	slices.Sort(h.raw)
	// The epsilon absorbs float error in p/100 (99.9/100*10000 computes to
	// 9990.0000000000018; the nearest rank is 9990, not 9991).
	idx := int(math.Ceil(p/100*float64(len(h.raw))-1e-9)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.raw) {
		idx = len(h.raw) - 1
	}
	return h.raw[idx]
}

// Snapshot summarizes the histogram for reporting.
func (h *Histogram) Snapshot() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Percentile(50),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
	}
}

// Summary is a point-in-time digest of a histogram.
type Summary struct {
	Count    uint64
	Mean     time.Duration
	Min, Max time.Duration
	P50, P99 time.Duration
	// P999 is the 99.9th percentile, the tail the open-loop TCP load
	// tester reports alongside p50/p99.
	P999 time.Duration
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.9=%v min=%v max=%v",
		s.Count, s.Mean, s.P50, s.P99, s.P999, s.Min, s.Max)
}

// TimeSeries buckets event counts into fixed-width windows of virtual or
// wall time, producing throughput-over-time curves (paper Figure 13).
type TimeSeries struct {
	mu     sync.Mutex
	width  time.Duration
	counts map[int64]uint64
}

// NewTimeSeries creates a series with the given bucket width.
func NewTimeSeries(width time.Duration) *TimeSeries {
	if width <= 0 {
		panic("metrics: non-positive time series width")
	}
	return &TimeSeries{width: width, counts: make(map[int64]uint64)}
}

// Record counts one event at time t (measured from the experiment origin).
func (ts *TimeSeries) Record(t time.Duration) {
	ts.mu.Lock()
	ts.counts[int64(t/ts.width)]++
	ts.mu.Unlock()
}

// Point is one (window start, events/sec) sample.
type Point struct {
	Start time.Duration
	Rate  float64
}

// Series returns rate samples for every window from 0 through the last
// non-empty window, including empty windows (rate 0).
func (ts *TimeSeries) Series() []Point {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var maxB int64 = -1
	for b := range ts.counts {
		if b > maxB {
			maxB = b
		}
	}
	out := make([]Point, 0, maxB+1)
	sec := ts.width.Seconds()
	for b := int64(0); b <= maxB; b++ {
		out = append(out, Point{
			Start: time.Duration(b) * ts.width,
			Rate:  float64(ts.counts[b]) / sec,
		})
	}
	return out
}

// GapTracker records the timestamps of successful events (request
// completions) and answers availability questions about the run: the longest
// interval with no completions at all (the availability gap a fault opens)
// and the first completion after a given instant (recovery latency). The
// chaos scenario harness keeps one per run; scenario op counts are bounded,
// so timestamps are retained exactly.
type GapTracker struct {
	mu    sync.Mutex
	times []time.Duration // ascending (events are recorded in virtual-time order)
}

// Record notes one successful event at time t. Timestamps must be
// non-decreasing (virtual time only moves forward).
func (g *GapTracker) Record(t time.Duration) {
	g.mu.Lock()
	g.times = append(g.times, t)
	g.mu.Unlock()
}

// Count returns the number of recorded events.
func (g *GapTracker) Count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.times)
}

// MaxGap returns the longest interval between consecutive recorded events
// and the instant that interval began. With fewer than two events both are
// zero: a gap needs service on both sides to be an *availability* gap rather
// than a ramp-up or shutdown artifact.
func (g *GapTracker) MaxGap() (start, gap time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := 1; i < len(g.times); i++ {
		if d := g.times[i] - g.times[i-1]; d > gap {
			gap = d
			start = g.times[i-1]
		}
	}
	return start, gap
}

// GapsOver counts the intervals between consecutive recorded events that
// meet or exceed threshold — how many distinct service interruptions a run
// suffered, as opposed to MaxGap's single worst one. Zero threshold counts
// every interval and is almost never what a caller wants.
func (g *GapTracker) GapsOver(threshold time.Duration) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for i := 1; i < len(g.times); i++ {
		if g.times[i]-g.times[i-1] >= threshold {
			n++
		}
	}
	return n
}

// FirstAfter returns the earliest recorded event at or after t. ok is false
// when no event follows t.
func (g *GapTracker) FirstAfter(t time.Duration) (at time.Duration, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i := sort.Search(len(g.times), func(i int) bool { return g.times[i] >= t })
	if i == len(g.times) {
		return 0, false
	}
	return g.times[i], true
}

// Table renders rows of labeled values with aligned columns; the benchmark
// harness uses it to print paper-style tables.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
