package pigpaxos

import (
	"time"

	"pigpaxos/internal/harness"
	"pigpaxos/internal/workload"
)

// BenchOptions configures one deterministic simulated benchmark run. The
// simulation models per-node CPU costs and link latencies (LAN or 3-region
// WAN), reproducing the paper's AWS testbed behaviour on a laptop.
type BenchOptions struct {
	// Protocol selects the system under test.
	Protocol Protocol
	// N is the cluster size (default 5).
	N int
	// WAN spreads nodes over three regions with one relay group each.
	WAN bool
	// Clients is the number of closed-loop clients (default 50).
	Clients int
	// RelayGroups is PigPaxos' r (default 3).
	RelayGroups int
	// Keys, ReadRatio and PayloadSize shape the workload (defaults:
	// 1000 keys, 50% reads, 8-byte values — the paper's §5.2 settings).
	Keys        int
	ReadRatio   float64
	WriteOnly   bool
	PayloadSize int
	// Warmup and Measure bound the measurement window (defaults 500ms/2s
	// of virtual time).
	Warmup, Measure time.Duration
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// BatchSize caps commands per log slot at the leader (≤1 = unbatched).
	// Batching amortizes the per-slot fan-out round over the whole batch
	// and multiplies saturation throughput for Paxos and PigPaxos alike.
	BatchSize int
	// BatchDelay holds under-full batches open at the leader (0 = group
	// commit: batches form only while the pipeline window is full).
	BatchDelay time.Duration
	// MaxInFlight bounds uncommitted slots in flight at the leader
	// (pipelining window; defaults to 4 when BatchSize > 1).
	MaxInFlight int
}

// BenchResult is a simulated benchmark measurement.
type BenchResult struct {
	// Throughput is completed requests per second of virtual time.
	Throughput float64
	// MeanLatency and P99Latency summarize request latencies.
	MeanLatency, P99Latency time.Duration
	// Messages is the total network messages sent during the run.
	Messages uint64
	// MeanBatchSize is commands per proposed slot at the leader (1 when
	// batching is off; 0 for EPaxos).
	MeanBatchSize float64
	// MsgsPerCmd is cluster-wide network messages per command executed at
	// the leader — the amortization batching buys.
	MsgsPerCmd float64
}

// Bench runs one simulated benchmark and returns its measurements.
func Bench(opts BenchOptions) BenchResult {
	o := harness.Options{
		N:           opts.N,
		WAN:         opts.WAN,
		ZoneGroups:  opts.WAN,
		Clients:     opts.Clients,
		NumGroups:   opts.RelayGroups,
		Warmup:      opts.Warmup,
		Measure:     opts.Measure,
		Seed:        opts.Seed,
		BatchSize:   opts.BatchSize,
		BatchDelay:  opts.BatchDelay,
		MaxInFlight: opts.MaxInFlight,
	}
	o.Protocol = opts.Protocol.kind()
	o.Workload = workload.Config{
		Keys:        opts.Keys,
		ReadRatio:   opts.ReadRatio,
		PayloadSize: opts.PayloadSize,
	}
	if opts.WriteOnly {
		o.Workload = o.Workload.WriteOnly()
	}
	r := harness.Run(o)
	return BenchResult{
		Throughput:    r.Throughput,
		MeanLatency:   r.Latency.Mean,
		P99Latency:    r.Latency.P99,
		Messages:      r.Messages,
		MeanBatchSize: r.MeanBatchSize,
		MsgsPerCmd:    r.MsgsPerCmd,
	}
}
