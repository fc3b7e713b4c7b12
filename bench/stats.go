package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. The benchmark keeps raw samples and ranks them itself because
// metrics.Histogram is exact only up to 65,536 samples; past that it snaps
// to power-of-two microsecond bucket bounds.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon absorbs float error in p/100*n (99.9/100*10000 is
	// 9990.000000000002; the rank is 9990, not 9991).
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns v sorted ascending, leaving v untouched.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample, or the mean of the two middle samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so -repeat prints
// the spread the acceptance rule is stated in.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// sample is one completed operation: when it was due (or sent), when its
// ack arrived, both in nanoseconds since the phase started.
type sample struct {
	due, ack int64
}

// segment is one equal slice of a phase, by the instant requests were due.
type segment struct {
	n        int     // samples in the segment
	p50, p99 float64 // microseconds
	maxWait  float64 // longest due→ack wait, microseconds
	beyond99 int     // samples strictly above the segment's p99 rank
}

// segmentRates splits [0,phaseNs) into k equal segments by ack time and
// returns each segment's ack rate per second.
func segmentRates(samples []sample, phaseNs int64, k int) []float64 {
	counts := make([]int, k)
	seg := phaseNs / int64(k)
	for _, s := range samples {
		if s.ack < 0 || s.ack >= seg*int64(k) {
			continue
		}
		counts[s.ack/seg]++
	}
	out := make([]float64, k)
	for i, c := range counts {
		out[i] = float64(c) / (float64(seg) / 1e9)
	}
	return out
}

// segmentLatencies splits [0,phaseNs) into k equal segments by due time and
// summarises due→ack latency inside each.
func segmentLatencies(samples []sample, phaseNs int64, k int) []segment {
	seg := phaseNs / int64(k)
	lat := make([][]float64, k)
	for _, s := range samples {
		if s.due < 0 || s.due >= seg*int64(k) {
			continue
		}
		i := s.due / seg
		lat[i] = append(lat[i], float64(s.ack-s.due)/1e3)
	}
	out := make([]segment, k)
	for i, l := range lat {
		sort.Float64s(l)
		out[i].n = len(l)
		if len(l) == 0 {
			continue
		}
		out[i].p50 = percentile(l, 50)
		out[i].p99 = percentile(l, 99)
		out[i].maxWait = l[len(l)-1]
		out[i].beyond99 = len(l) - int(math.Ceil(0.99*float64(len(l))-1e-9))
	}
	return out
}

// medianOf applies median to one field of every segment.
func medianOf(segs []segment, f func(segment) float64) float64 {
	v := make([]float64, len(segs))
	for i, s := range segs {
		v[i] = f(s)
	}
	return median(v)
}
