package harness

import (
	"reflect"
	"testing"
	"time"

	"pigpaxos/internal/workload"
)

// overloadOpts mirrors cmd/pigbench's overload scenario shape at the quick
// suite's window: batch 16 under the default 4-deep pipeline derives
// MaxPending = 4×4×16 = 256 on the leader. The window must be long enough
// to amortize the pre-backpressure transient — at the 5× rung the first
// ~100ms of arrivals all race in before Busy paces the fleet.
func overloadOpts(p Protocol) OverloadOptions {
	return OverloadOptions{
		Options: Options{
			Protocol:  p,
			N:         25,
			NumGroups: 3,
			Clients:   64,
			Warmup:    200 * time.Millisecond,
			Measure:   time.Second,
			Seed:      42,
			Workload:  workload.Config{Keys: 1000},
			BatchSize: 16,
		},
		OpTimeout: time.Second,
		QueueTTL:  time.Second,
	}
}

// TestOverloadGoodputHoldsPastSaturation pushes the open-loop ladder to
// ~5× the saturation knee and checks the §5.4 property this PR exists
// for: with admission control on, the leader's ingress queue stays within
// the derived MaxPending and goodput at the top rung holds within 20% of
// the sweep's peak instead of collapsing under queueing delay.
func TestOverloadGoodputHoldsPastSaturation(t *testing.T) {
	const bound = 4 * 4 * 16 // derived MaxPending
	// PigPaxos saturates near 25k ops/s in this configuration; the ladder
	// ends at roughly 5× that.
	rates := []float64{5000, 25000, 125000}
	results := OverloadSweep(overloadOpts(PigPaxos), rates)
	peak := 0.0
	for _, r := range results {
		t.Logf("%v", r)
		if r.Goodput > peak {
			peak = r.Goodput
		}
		if r.MaxQueueDepth > bound {
			t.Errorf("rate %.0f: ingress high-water %d exceeded derived MaxPending %d", r.Rate, r.MaxQueueDepth, bound)
		}
	}
	last := results[len(results)-1]
	if last.Goodput < 0.8*peak {
		t.Errorf("past-saturation goodput %.0f/s fell below 80%% of peak %.0f/s", last.Goodput, peak)
	}
	// Past the knee the bound must actually bind: rejections flow and the
	// queue pins at its cap rather than growing without bound.
	if last.LeaderBusy == 0 || last.Busy == 0 {
		t.Error("5× saturation produced no Busy backpressure")
	}
	if last.MaxQueueDepth != bound {
		t.Errorf("5× saturation queue high-water %d, want pinned at %d", last.MaxQueueDepth, bound)
	}
}

// TestOverloadSweepDeterministic reruns the full ladder and requires
// bit-identical results — counters, latency digests, queue high-waters —
// the property that makes overload regressions diffable.
func TestOverloadSweepDeterministic(t *testing.T) {
	rates := []float64{5000, 125000}
	a := OverloadSweep(overloadOpts(PigPaxos), rates)
	b := OverloadSweep(overloadOpts(PigPaxos), rates)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("rerun diverged:\n  %v\n  %v", a, b)
	}
}

// TestOverloadPastKneeLosesNothing: past the knee the leader sheds with
// Busy, and every shed command's retry must still be served — a command
// shed while a newer one of its client went through used to be dropped on
// retry, and its client timed out.
func TestOverloadPastKneeLosesNothing(t *testing.T) {
	for _, p := range []Protocol{Paxos, PigPaxos} {
		r := RunOverload(OverloadOptions{Options: Options{
			Protocol: p, N: 5, NumGroups: 2, Clients: 16, BatchSize: 8, MaxInFlight: 4,
			Seed: 42, Warmup: 200 * time.Millisecond, Measure: 500 * time.Millisecond,
		}, Rate: 120000})
		t.Logf("%v %v", p, r)
		if r.LeaderBusy == 0 {
			t.Errorf("%v: nothing was shed; the rung is not past the knee", p)
		}
		if r.Timeouts != 0 {
			t.Errorf("%v: %d operations timed out", p, r.Timeouts)
		}
	}
}
