package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// runLayers is a traced run: every per-layer metric for one workload, from
// five passes that each isolate different layers (see README.md for which
// end-to-end metric each is expected to move).
func runLayers(w spec, seed int64, seconds float64, out *result) {
	layersInline(w, seed, out)
	layersDirect(w, seed, out)
	layersSim(w, seed, seconds, out)
	layersFloor(w, seed, seconds, out)
	layersTraced(w.tcpTwin(), seed, seconds, out)
}

// layersInline prices protocol and codec alone, under the workload's own
// fan-out and under the other one.
func layersInline(w spec, seed int64, out *result) {
	other := w.protocolTwin()
	own := runInline(w, seed, 4)
	twin := runInline(other, seed, 2)
	pig, pax := own, twin
	if !w.pig {
		pig, pax = twin, own
	}
	out.note(fmt.Sprintf("inline pass: %s, %d ops after warm-up; twin %s, %d ops; single goroutine, FIFO, every message through wire.Encode->Decode",
		w.protocol(), own.ops, other.protocol(), twin.ops))
	out.attempted += own.ops + twin.ops
	out.failed += own.failed + twin.failed
	out.set("pigpaxos.leader_msgs_per_op", "msgs/op", pig.leaderMsgsPerOp)
	out.set("pigpaxos.cluster_msgs_per_op", "msgs/op", pig.clusterMsgsPerOp)
	out.set("pigpaxos.relay_ns_per_op", "ns/op", pig.relayNsPerOp)
	out.set("paxos.leader_msgs_per_op", "msgs/op", pax.leaderMsgsPerOp)
	out.set("wire.bytes_per_op", "B/op", own.bytesPerOp)
	out.set("paxos.allocs_per_op", "allocs/op", own.allocsPerOp)
	out.set("paxos.batch_mean", "count", own.batchMean)
	out.set("wal.syncs_per_op", "count", own.walSyncsPerOp)
	out.set("wal.bytes_per_op", "B/op", own.walBytesPerOp)
	out.set("paxos.leader_ns_per_op", "ns/op", own.leaderNsPerOp)
	out.set("paxos.follower_ns_per_op", "ns/op", own.followerNsPerOp)
	out.set("wire.encode_ns_per_msg", "ns", own.encodeNsPerMsg)
	out.set("wire.decode_ns_per_msg", "ns", own.decodeNsPerMsg)
	out.set("wire.decode_allocs_per_msg", "count", own.decodeAllocsPerMsg)
}

// layersDirect calls one layer at a time.
func layersDirect(w spec, seed int64, out *result) {
	out.set("rlog.slot_ns", "ns", rlogSlotNs(w.valueSize))
	out.set("kvstore.apply_ns", "ns", kvstoreApplyNs(w.valueSize))
	appendNs, syncUs, err := walDirect(w.valueSize)
	if err != nil {
		out.violate("wal direct calls: %v", err)
	}
	out.note(fmt.Sprintf("wal direct calls: FileStorage under %s on %s", os.TempDir(), fsName(os.TempDir())))
	out.set("wal.append_ns_per_rec", "ns", appendNs)
	out.set("wal.sync_us_p50", "us", syncUs)
	tr, err := transportDirect()
	if err != nil {
		out.violate("%v", err)
	}
	out.set("transport.pingpong_rtt_us", "us", tr.pingpongRttUs)
	out.set("transport.stream_msgs_s", "1/s", tr.streamMsgsS)
	out.set("transport.stream_mb_s", "MB/s", tr.streamMBs)
	out.set("transport.broadcast_ns_per_peer", "ns", tr.broadcastNsPerPeer)
	out.set("des.events_per_wall_s", "1/s", desEventsPerWallS(seed))
}

// layersSim runs the workload's configuration once on the simulator for what
// the run says about netsim itself.
func layersSim(w spec, seed int64, seconds float64, out *result) {
	virt := simVirtual(seconds) / 2
	t0 := time.Now()
	r := simSaturation(w, childSeed(seed, 0), virt)
	wall := time.Since(t0).Seconds()
	out.note(fmt.Sprintf("sim twin: closed loop, %d clients, %v virtual: %.0f ops/s; %s", simClients, virt, r.Throughput, simModel(w.n)))
	out.attempted += int(r.Latency.Count)
	out.set("netsim.leader_util", "frac", r.LeaderUtil)
	out.set("netsim.msgs_per_op", "msgs/op", r.MsgsPerCmd)
	out.set("netsim.msgs_per_wall_s", "1/s", float64(r.Messages)/wall)
	failover, err := findWorkload("sim5-failover")
	if err != nil {
		out.violate("%v", err)
		return
	}
	out.set("pigpaxos.failover_bad_frac", "frac", failoverBadFrac(failover, childSeed(seed, 0), 16))
}

// layersFloor measures a single-node cluster: the same transport, event
// loop, log and state machine with no replication at all.
func layersFloor(w spec, seed int64, seconds float64, out *result) {
	f := w.tcpTwin()
	f.n, f.pig, f.durable, f.batch, f.inflight = 1, false, false, 0, 0
	run, _, pre, err := setupTCP(f, seed, nil)
	if err != nil {
		out.violate("floor: %v", err)
		return
	}
	defer run.close()
	d := time.Duration(seconds / 20 * float64(time.Second))
	sat := run.g.closedLoop(d)
	out.set("floor.n1_ops_s", "1/s", median(segmentRates(sat.samples, int64(d), 10)))
	fix := run.g.openLoop(d, w.openRate, childSeed(seed, 2))
	segs := segmentLatencies(fix.samples, int64(d), 10)
	out.set("floor.n1_p50_us", "us", medianOf(segs, func(s segment) float64 { return s.p50 }))
	run.quiesce(out, pre, sat, fix)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// procSnap is the process's resource use at one instant.
type procSnap struct {
	at      int64 // tracer clock
	cpu     float64
	mallocs uint64
	pauseNs uint64
}

func snapProc(tr *tracer) procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{at: tr.now(), cpu: cpuSeconds(), mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

// traceWindow switches the tracer on for win, ramp after the call, and
// returns a function that waits for the window to close and reports the
// process snapshots at its edges.
func traceWindow(tr *tracer, ramp, win time.Duration) func() (procSnap, procSnap) {
	var s0, s1 procSnap
	var wg sync.WaitGroup
	wg.Add(1)
	time.AfterFunc(ramp, func() {
		s0 = snapProc(tr)
		tr.on.Store(true)
		time.AfterFunc(win, func() {
			tr.on.Store(false)
			s1 = snapProc(tr)
			wg.Done()
		})
	})
	return func() (procSnap, procSnap) {
		wg.Wait()
		time.Sleep(20 * time.Millisecond) // callbacks that began inside the window close their spans
		return s0, s1
	}
}

// layersTraced runs t on loopback TCP with the benchmark's wrappers around
// handler, context and storage: an untraced and a traced saturation phase
// (event-loop use, process cost, tracing overhead), then a traced fixed-rate
// phase (the stage budget of a request, and the open-loop latencies that are
// too unsteady on a shared VM to be end-to-end metrics).
func layersTraced(t spec, seed int64, seconds float64, out *result) {
	out.note(fmt.Sprintf("traced pass: %s", t))
	tr := newTracer(t.n)
	run, setupS, pre, err := setupTCP(t, seed, tr)
	if err != nil {
		out.violate("traced pass: %v", err)
		return
	}
	defer run.close()
	out.set("tcp.setup_s", "s", setupS)

	self, err := selfOps(t, seed, genSelfCheck)
	if err != nil {
		out.violate("%v", err)
	}
	out.set("gen.self_ops_s", "1/s", self)

	// Wall-clock readings as measured, not scaled: host.speed_frac says how
	// the machine was doing at the time.
	out.set("host.speed_frac", "frac", calibrate(calibSlice)/calibRef)
	satDur := time.Duration(seconds * 0.15 * float64(time.Second))
	untraced := run.g.closedLoop(satDur)
	opsU := median(segmentRates(untraced.samples, int64(satDur), 10))
	p50, p99 := closedLoopLatency(untraced)
	out.set("tcp.ops_s", "1/s", opsU)
	out.set("tcp.p50_us", "us", p50)
	out.set("tcp.p99_us", "us", p99)
	if self < 3*opsU {
		out.violate("generator ceiling %.0f ops/s is below 3x the cluster's %.0f ops/s", self, opsU)
	}

	// Trace as much of the phase as the span buffers hold at this rate
	// (about eight spans per op at the leader), after a short ramp.
	ramp := satDur / 10
	win := time.Duration(0.6 * spanCap / (8 * opsU) * float64(time.Second))
	if max := satDur - 2*ramp; win > max {
		win = max
	}
	wait := traceWindow(tr, ramp, win)
	traced := run.g.closedLoop(satDur)
	s0, s1 := wait()
	opsT := median(segmentRates(traced.samples, int64(satDur), 10))
	out.set("trace.overhead_frac", "frac", 1-opsT/opsU)

	ops := 0
	for _, sm := range traced.samples {
		if abs := traced.origin + sm.ack; abs >= s0.at && abs < s1.at {
			ops++
		}
	}
	if ops == 0 {
		out.violate("traced saturation window of %v saw no acks", win)
		return
	}
	var all loopUse
	var leader loopUse
	for i, nt := range tr.nodes {
		if nt.dropped > 0 {
			out.violate("node %d dropped %d spans: buffer of %d too small for a %v window", i+1, nt.dropped, spanCap, win)
		}
		u := loopUsage(nt.spans, s0.at, s1.at)
		if i == 0 {
			leader = u
		}
		all.busy += u.busy
		all.send += u.send
		all.walSync += u.walSync
	}
	n := float64(ops)
	winNs := float64(s1.at - s0.at)
	cpuUs := (s1.cpu - s0.cpu) * 1e6 / n
	out.note(fmt.Sprintf("traced saturation: %v window, %d acks, %.0f ops/s traced vs %.0f untraced", win, ops, opsT, opsU))
	out.set("loop.leader_busy_frac", "frac", float64(leader.busy)/winNs)
	out.set("loop.leader_handler_us_per_op", "us/op", float64(leader.self)/n/1e3)
	out.set("loop.send_us_per_op", "us/op", float64(all.send)/n/1e3)
	out.set("wal.sync_wait_us_per_op", "us/op", float64(all.walSync)/n/1e3)
	out.set("proc.cpu_us_per_op", "us/op", cpuUs)
	// Time blocked in fsync is on the loop but not on a CPU.
	out.set("proc.offloop_cpu_us_per_op", "us/op", cpuUs-float64(all.busy-all.walSync)/n/1e3)
	out.set("proc.allocs_per_op", "allocs/op", float64(s1.mallocs-s0.mallocs)/n)
	out.set("proc.gc_pause_ms_per_s", "ms/s", float64(s1.pauseNs-s0.pauseNs)/1e6/(winNs/1e9))

	// Fixed-rate phase, fully traced, on emptied buffers.
	for _, nt := range tr.nodes {
		nt.spans = nt.spans[:0]
	}
	tr.gen.reset()
	fixDur := time.Duration(seconds * 0.2 * float64(time.Second))
	tr.on.Store(true)
	f0 := tr.now()
	fix := run.g.openLoop(fixDur, t.openRate, childSeed(seed, 1))
	f1 := tr.now()
	tr.on.Store(false)
	time.Sleep(20 * time.Millisecond)

	f := summariseFixed(fix, t.openRate, out)
	out.note(fmt.Sprintf("traced fixed rate: open loop, Poisson %.0f/s, %v in %d segments, %d samples", t.openRate, fixDur, f.segments, f.samples))
	out.set("open.p50_us", "us", f.p50)
	out.set("open.p99_us", "us", f.p99)
	out.set("open.longest_wait_ms", "ms", f.maxWait/1e3)
	out.set("gen.lateness_p99_us", "us", f.latenessP99)

	budgets, skipped := joinStages(tr.gen.reqs, tr.nodes[0].spans, f0, f1)
	if len(budgets) < len(fix.samples)/2 {
		out.violate("stage budget: joined %d of %d requests (%d missing a span)", len(budgets), len(fix.samples), skipped)
	}
	if len(budgets) > 0 {
		in, bw, rep, ar, eg, total := stageMedians(budgets)
		out.set("stage.ingress_us", "us", in)
		out.set("stage.batch_wait_us", "us", bw)
		out.set("stage.replicate_us", "us", rep)
		out.set("stage.apply_reply_us", "us", ar)
		out.set("stage.egress_us", "us", eg)
		out.set("stage.total_us", "us", total)
		sum := in + bw + rep + ar + eg
		out.note(fmt.Sprintf("stage budget: %d requests joined through Reply.Slot, %d skipped; stage medians sum to %.0f us, median request %.0f us (%.0f%%)",
			len(budgets), skipped, sum, total, 100*sum/total))
	}

	path := filepath.Join(os.TempDir(), "pigbench-trace-"+t.name+".json")
	if err := tr.writeTrace(path, t.name, f0, f1); err != nil {
		out.violate("write trace: %v", err)
	} else {
		out.note("spans of the fixed-rate phase written to " + path)
	}
	run.quiesce(out, pre, untraced, traced, fix)
}
