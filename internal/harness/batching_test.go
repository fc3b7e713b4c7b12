package harness

import (
	"testing"
	"time"

	"pigpaxos/internal/paxos"
)

func batchOpts(p Protocol, batch int) Options {
	return Options{
		Protocol:  p,
		N:         25,
		NumGroups: 3,
		Clients:   200,
		Warmup:    200 * time.Millisecond,
		Measure:   time.Second,
		BatchSize: batch,
	}
}

// The tentpole acceptance: batching multiplies saturation throughput ≥ 3×
// for both leader-based protocols at identical cluster/workload settings,
// while messages-per-command drops proportionally.
func TestBatchingMultipliesSaturationThroughput(t *testing.T) {
	for _, proto := range []Protocol{Paxos, PigPaxos} {
		base := Run(batchOpts(proto, 1))
		batched := Run(batchOpts(proto, 16))
		t.Logf("%s: unbatched %.0f req/s (%.1f msgs/cmd) → batched %.0f req/s (%.1f msgs/cmd, mean batch %.1f)",
			proto, base.Throughput, base.MsgsPerCmd,
			batched.Throughput, batched.MsgsPerCmd, batched.MeanBatchSize)
		if batched.Throughput < 3*base.Throughput {
			t.Errorf("%s: batched throughput %.0f < 3× unbatched %.0f",
				proto, batched.Throughput, base.Throughput)
		}
		if batched.MsgsPerCmd >= base.MsgsPerCmd/2 {
			t.Errorf("%s: msgs/cmd %.1f did not drop enough from %.1f",
				proto, batched.MsgsPerCmd, base.MsgsPerCmd)
		}
		if batched.MeanBatchSize < 4 {
			t.Errorf("%s: mean batch size %.1f — batches are not forming",
				proto, batched.MeanBatchSize)
		}
		if base.MeanBatchSize != 1 {
			t.Errorf("%s: unbatched mean batch size %.2f, want exactly 1",
				proto, base.MeanBatchSize)
		}
	}
}

// BatchSize=1 must reproduce the seed's paper-shaped results: 25-node Paxos
// ≈ 2k req/s, PigPaxos well above it (Figure 8's ordering).
func TestUnbatchedReproducesPaperShape(t *testing.T) {
	paxosTP := Run(batchOpts(Paxos, 1)).Throughput
	pigTP := Run(batchOpts(PigPaxos, 1)).Throughput
	if paxosTP < 1000 || paxosTP > 4000 {
		t.Errorf("unbatched 25-node Paxos %.0f req/s, want ≈ 2k", paxosTP)
	}
	if pigTP < 5000 || pigTP > 14000 {
		t.Errorf("unbatched 25-node PigPaxos %.0f req/s, want ≈ 7-9k", pigTP)
	}
	if pigTP < 3*paxosTP {
		t.Errorf("paper ordering broken: pig %.0f < 3× paxos %.0f", pigTP, paxosTP)
	}
}

// Replicas must converge to identical state under batching: every follower
// applies the same commands in the same slot/batch order.
func TestBatchingKeepsReplicasConverged(t *testing.T) {
	o := batchOpts(PigPaxos, 16)
	o.Clients = 50
	o.Measure = 500 * time.Millisecond
	r := Run(o)
	if r.Throughput < 1000 {
		t.Fatalf("batched run implausibly slow: %v", r)
	}
	// Run() itself has no direct store access here; convergence under
	// batching is asserted end-to-end in the paxos/pigpaxos package tests.
	// This guards the harness wiring: batches really formed.
	if r.MeanBatchSize < 2 {
		t.Errorf("mean batch %.2f — harness did not enable batching", r.MeanBatchSize)
	}
}

// MaxInFlight is an independent knob: without batching it must still bound
// the pipeline, throttling a saturated leader below the unbounded run.
func TestPurePipeliningWindowIsHonored(t *testing.T) {
	o := batchOpts(Paxos, 1)
	o.N = 5
	unbounded := Run(o).Throughput
	o.MaxInFlight = 1
	bounded := Run(o).Throughput
	if bounded >= unbounded*0.8 {
		t.Errorf("window 1 throughput %.0f not measurably below unbounded %.0f — knob ignored",
			bounded, unbounded)
	}
	if bounded < 500 {
		t.Errorf("window 1 throughput %.0f implausibly low", bounded)
	}
}

// paxos.Config.BatchDelay must bound how long an under-full batch waits: at trivial load
// a lone command still commits promptly.
func TestBatchDelayFlushesUnderfullBatch(t *testing.T) {
	o := batchOpts(Paxos, 64)
	o.N = 5
	o.Clients = 1
	o.MutPaxos = func(c *paxos.Config) { c.BatchDelay = 2 * time.Millisecond }
	r := Run(o)
	if r.Latency.Count == 0 {
		t.Fatal("no requests completed with BatchDelay set")
	}
	if r.Latency.Mean > 20*time.Millisecond {
		t.Errorf("lone-client latency %v — the delay timer is not flushing", r.Latency.Mean)
	}
}
