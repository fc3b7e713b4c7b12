package main

import (
	"testing"
	"time"
)

// simMetrics are the virtual-time metrics: everything but setup_s, which is
// wall time and not part of the phases these tests run.
var simMetrics = []string{"ops_s", "p50_us", "p99_us", "unavail_ms"}

func (r *result) get(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

func sameSim(t *testing.T, what string, run func(seed int64) *result) {
	t.Helper()
	a, b, c := run(11), run(11), run(12)
	for _, r := range []*result{a, b, c} {
		if !r.ok() {
			t.Fatalf("%s: %d failed ops, violations %v", what, r.failed, r.violations)
		}
	}
	differs := false
	for _, m := range simMetrics {
		if a.get(m) == 0 {
			t.Errorf("%s: %s is zero", what, m)
		}
		if a.get(m) != b.get(m) {
			t.Errorf("%s: %s differs between two runs at one seed: %v vs %v", what, m, a.get(m), b.get(m))
		}
		if a.get(m) != c.get(m) {
			differs = true
		}
	}
	if !differs {
		t.Errorf("%s: another seed changed no metric; the seed does not reach the inputs", what)
	}
}

func TestSimMetricsRepeatExactlyPerSeed(t *testing.T) {
	steady := spec{name: "sim5-test", n: 5, pig: true, groups: 2, valueSize: 8, rate: 2000}
	sameSim(t, "steady", func(seed int64) *result {
		out := &result{}
		simSteadyPhases(steady, seed, time.Second, out)
		return out
	})
	failover, err := findWorkload("sim5-failover")
	if err != nil {
		t.Fatal(err)
	}
	sameSim(t, "failover", func(seed int64) *result {
		out := &result{}
		simFailoverChildren(failover, seed, 4*time.Second, 2, out)
		return out
	})
}

func TestChildSeedsAreDistinctAndNonZero(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(-2); seed <= 2; seed++ {
		for i := 0; i < 64; i++ {
			c := childSeed(seed, i)
			if c == 0 || seen[c] {
				t.Fatalf("childSeed(%d, %d) = %d: zero or repeated", seed, i, c)
			}
			seen[c] = true
		}
	}
}

// TestFixedRatesLeaveHeadroom holds every workload's fixed rate to a third
// of what its configuration sustains on the simulator, so the open loop
// cannot build a backlog. The simulator's capacity is exact, so this cannot
// flake.
func TestFixedRatesLeaveHeadroom(t *testing.T) {
	for _, w := range workloads {
		if w.failover {
			continue
		}
		sat := simSaturation(w, 3, 500*time.Millisecond)
		if w.rate <= 0 || w.rate > sat.Throughput/3 {
			t.Errorf("%s: fixed rate %.0f/s, simulator sustains %.0f ops/s", w.name, w.rate, sat.Throughput)
		}
	}
}
