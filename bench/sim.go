package main

import (
	"fmt"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/config"
	"pigpaxos/internal/harness"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/workload"
)

// rawCap is metrics.Histogram's raw-sample cap. A harness Latency summary is
// an exact nearest-rank percentile only while Count stays at or below it.
const rawCap = 1 << 16

const (
	simWarmup      = 500 * time.Millisecond
	simClients     = 200 // closed loop, saturation phase
	simOpenClients = 50  // Poisson sources the fixed rate is split over
	simFixSegments = 16  // independent child runs of the fixed-rate phase
	// simSegmentSamples is how many requests one segment offers at the
	// default run length, whatever the workload's rate: a slow workload gets
	// a longer virtual window, not a noisier p99.
	simSegmentSamples = 6000

	simSyncCost = 400 * time.Microsecond // modelled fsync, an EBS-class flush

	failoverChildren = 32
	failoverClients  = 16
	failoverOps      = 200
	failoverAt       = 1500 * time.Millisecond
	failoverDown     = time.Second
)

// simOptions maps a spec onto harness.Options with the default cost model.
// The measure window is the seed's too, by up to a millisecond: a saturated
// leader commits the same whole number of operations in a fixed window on
// every seed, and a reader cannot tell a rate that reads the same to the last
// digit on every run from a constant.
func simOptions(w spec, seed int64, measure time.Duration) harness.Options {
	o := harness.Options{
		Protocol:    harness.Paxos,
		N:           w.n,
		Clients:     simClients,
		Warmup:      simWarmup,
		Measure:     measure + time.Duration(uint64(seed)%uint64(time.Millisecond)),
		Seed:        seed,
		NumGroups:   w.groups,
		BatchSize:   w.batch,
		MaxInFlight: w.inflight,
		Workload:    workload.Config{Keys: 1000, PayloadSize: w.valueSize},
	}
	if w.pig {
		o.Protocol = harness.PigPaxos
	}
	if w.writeOnly {
		o.Workload = o.Workload.WriteOnly()
	}
	return o
}

// withJournal gives every replica of a durable workload a wal.MemStorage
// with the modelled fsync cost, through the harness's per-replica hooks.
// (Not for RunScenario, which owns its replicas' storage itself.)
func withJournal(w spec, o *harness.Options) {
	if !w.durable {
		return
	}
	journal := func(cfg *paxos.Config) {
		st := wal.NewMem()
		st.SetSyncCost(simSyncCost)
		cfg.Storage = st
	}
	o.MutPaxos = journal
	o.MutPig = func(cfg *pigpaxos.Config) { journal(&cfg.Paxos) }
}

// simModel states the simulator's cost model and link delay, so a reader of
// the output knows what a virtual microsecond is made of.
func simModel(n int) string {
	m := netsim.DefaultOptions()
	cc := config.NewLAN(n)
	return fmt.Sprintf("netsim cost model: send %v, recv %v, %v/KiB; LAN one-way link delay %v (config.NewLAN)",
		m.SendCost, m.RecvCost, m.ByteCostPerKB, cc.OneWay(cc.Nodes[0], cc.Nodes[1]))
}

// runSimSteady measures a fault-free sim workload: set-up wall time, a
// closed-loop saturation phase and an open-loop fixed-rate phase, each an
// isolated seeded simulation.
func runSimSteady(w spec, seed int64, virt time.Duration, out *result) {
	out.note(simModel(w.n))
	simSetup(w, seed, out)
	simSteadyPhases(w, seed, virt, out)
}

// simSteadyPhases is runSimSteady without the wall-clock part.
func simSteadyPhases(w spec, seed int64, virt time.Duration, out *result) {
	sat := simSaturation(w, seed, virt)
	if sat.Latency.Count > rawCap {
		out.violate("saturation phase has %d samples, above the %d raw-sample cap", sat.Latency.Count, rawCap)
	}
	out.set("ops_s", "1/s", sat.Throughput)
	out.attempted += int(sat.Latency.Count)
	out.note(fmt.Sprintf("saturation: closed loop, %d clients, %v virtual: %.0f ops/s, leader util %.3f, %.2f msgs/op",
		simClients, virt, sat.Throughput, sat.LeaderUtil, sat.MsgsPerCmd))
	if w.rate > sat.Throughput/3 {
		out.violate("fixed rate %.0f/s is above a third of ops_s %.0f", w.rate, sat.Throughput)
	}
	simFixedRate(w, seed, virt, out)
}

// simSetup sets setup_s for a fault-free sim configuration: the wall time
// of the same options run with a 1 ms measure window (build, election and the
// virtual warm-up).
func simSetup(w spec, seed int64, out *result) {
	what := fmt.Sprintf("build + election + %v virtual warm-up", simWarmup)
	_ = measureSetup(out, what, func() error { simSaturation(w, seed, time.Millisecond); return nil }) // fn cannot fail
}

// simSaturation runs w closed loop with simClients clients for measure of
// virtual time after the warm-up.
func simSaturation(w spec, seed int64, measure time.Duration) harness.Result {
	o := simOptions(w, seed, measure)
	withJournal(w, &o)
	return harness.Run(o)
}

// simFixedRate is the open-loop fixed-rate phase in virtual time: seeded
// Poisson arrivals at w.rate, latency from the scheduled instant, exact
// nearest-rank percentiles. The harness reports one summary per run, so a
// segment is an independent child simulation and each metric is the median
// over segments. It sets p50_us, p99_us and unavail_ms.
func simFixedRate(w spec, seed int64, virt time.Duration, out *result) {
	var p50, p99, longest []float64
	var fixed harness.OverloadResult
	// simSegmentSamples requests per segment when virt is the default 4 s.
	segVirt := time.Duration(virt.Seconds() / 4 * simSegmentSamples / w.rate * float64(time.Second))
	for i := 0; i < simFixSegments; i++ {
		oo := harness.OverloadOptions{Options: simOptions(w, childSeed(seed, 1+i), segVirt), Rate: w.rate}
		oo.Clients = simOpenClients
		withJournal(w, &oo.Options)
		fix := harness.RunOverload(oo)
		if fix.Latency.Count > rawCap {
			out.violate("fixed-rate segment %d has %d samples, above the %d raw-sample cap", i, fix.Latency.Count, rawCap)
		}
		if beyond := float64(fix.Latency.Count) * 0.01; beyond < 10 {
			out.violate("fixed-rate segment %d has %.0f samples beyond its p99, want >= 10", i, beyond)
		}
		p50 = append(p50, us(fix.Latency.P50))
		p99 = append(p99, us(fix.Latency.P99))
		longest = append(longest, us(fix.Latency.Max))
		fixed.Offered += fix.Offered
		fixed.Completed += fix.Completed
		fixed.Shed += fix.Shed
		fixed.Busy += fix.Busy
		fixed.Timeouts += fix.Timeouts
	}
	out.set("p50_us", "us", median(p50))
	out.set("p99_us", "us", median(p99))
	// No fault is injected, so this is the longest any scheduled request
	// waited for its ack: a stall of T makes the request due at its start
	// wait T. (harness.RunOverload keeps no ack timestamps to take gaps of.)
	out.set("unavail_ms", "ms", median(longest)/1e3)
	out.attempted += int(fixed.Offered)
	out.failed += int(fixed.Offered - fixed.Completed)
	out.note(fmt.Sprintf("fixed rate: simulator, open loop, Poisson %.0f/s, %d segments of %v virtual: offered %d completed %d shed %d busy %d timeout %d",
		w.rate, simFixSegments, segVirt, fixed.Offered, fixed.Completed, fixed.Shed, fixed.Busy, fixed.Timeouts))
}

// failoverOptions is the sim5-failover scenario: paced scripted clients on a
// durable cluster whose journal loses its unsynced tail on a crash.
func failoverOptions(w spec, seed int64, measure time.Duration, ops int) harness.ScenarioOptions {
	o := harness.ScenarioOptions{
		Options:      simOptions(w, seed, measure),
		OpsPerClient: ops,
		Durable:      true,
	}
	o.Clients = failoverClients
	return o
}

// runSimFailover restarts the leader under load in children independent
// seeded scenarios and reports the median of each measurement. Every child
// must end linearizable, converged and complete.
func runSimFailover(w spec, seed int64, virt time.Duration, children int, out *result) {
	out.note(simModel(w.n))
	what := fmt.Sprintf("build + election + %d paced clients x %d ops, no fault", failoverClients, failoverOps)
	_ = measureSetup(out, what, func() error { // fn cannot fail
		harness.RunScenario(failoverOptions(w, seed, time.Millisecond, failoverOps), nil)
		return nil
	})
	simFailoverChildren(w, seed, virt, children, out)
}

// simFailoverChildren is runSimFailover without the wall-clock part.
func simFailoverChildren(w spec, seed int64, virt time.Duration, children int, out *result) {
	var unavail, p50, p99, ops []float64
	for i := 0; i < children; i++ {
		child := childSeed(seed, i)
		r := harness.RunScenario(failoverOptions(w, child, virt, failoverOps), failoverSchedule(child))
		if !recovered(r) {
			out.violate("child %d (seed %d): linearizable=%v converged=%v complete=%v", i, child,
				r.Linearizable, r.Converged, r.AllComplete)
		}
		if r.Reboots != 1 {
			out.violate("child %d (seed %d): %d reboots, want 1", i, child, r.Reboots)
		}
		if r.Latency.Count > rawCap {
			out.violate("child %d has %d samples, above the %d raw-sample cap", i, r.Latency.Count, rawCap)
		}
		out.attempted += failoverClients * failoverOps
		out.failed += failoverClients*failoverOps - r.Acked
		unavail = append(unavail, us(r.RecoveryLatency)/1e3)
		p50 = append(p50, us(r.Latency.P50))
		p99 = append(p99, us(r.Latency.P99))
		ops = append(ops, r.Throughput)
	}
	out.set("unavail_ms", "ms", median(unavail))
	out.set("p50_us", "us", median(p50))
	out.set("p99_us", "us", median(p99))
	out.set("ops_s", "1/s", median(ops))
	q1, q3 := quartiles(unavail)
	out.note(fmt.Sprintf("failover: %d children, %d paced clients x %d ops, leader restart at %v + 0..40ms for %v, %v modelled fsync: unavail quartiles %.1f..%.1f ms",
		children, failoverClients, failoverOps, failoverAt, failoverDown, simSyncCost, q1, q3))
}

// recovered is the verdict a fault scenario must end with: no stale read, no
// replica left behind, no client left waiting.
func recovered(r harness.ScenarioResult) bool {
	return r.Linearizable && r.Converged && r.AllComplete
}

// failoverSchedule restarts whichever node leads at failoverAt plus a seeded
// offset within two client think periods. Without the offset every child
// injects the fault at the same phase of the clients' pacing and retry
// timers, and the first ack after it lands on the same virtual nanosecond
// whatever the election did.
func failoverSchedule(child int64) chaos.Schedule {
	jitter := time.Duration(uint64(child)%40000) * time.Microsecond
	return chaos.LeaderRestart(failoverAt+jitter, failoverDown)
}

// failoverBadFrac runs the sim5-failover scenario on PigPaxos r=2 and returns
// the share of children that do not end linearizable, converged and complete.
func failoverBadFrac(w spec, seed int64, children int) float64 {
	w.pig, w.groups = true, 2
	bad := 0
	for i := 0; i < children; i++ {
		child := childSeed(seed, i)
		r := harness.RunScenario(failoverOptions(w, child, simVirtual(20), failoverOps), failoverSchedule(child))
		if !recovered(r) {
			bad++
		}
	}
	return float64(bad) / float64(children)
}

// childSeed derives the i-th child seed from seed (splitmix64), never zero:
// harness treats a zero seed as "use the default".
func childSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if s := int64(z >> 1); s != 0 {
		return s
	}
	return 1
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
