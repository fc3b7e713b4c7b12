// Command pigload is the open-loop TCP load tester: the sim-to-metal
// bridge that drives a real pigserver cluster with Poisson arrivals at a
// fixed aggregate rate and reports goodput plus latency percentiles
// (p50/p99/p99.9) as Go benchfmt lines, the format the simulator's
// scenario benchmarks print too (CI keeps both as bench_*.txt artifacts).
//
// Two ways to get a cluster:
//
//	pigload -cluster 1.1=h1:7001,1.2=h2:7001,1.3=h3:7001 -rate 2000
//	pigload -spawn 3 -server-bin ./pigserver -rate 2000 -- -batch 16 -inflight 4
//
// -spawn forks one pigserver per member on free localhost ports, waits
// for readiness through the client path, runs the load, and tears the
// processes down (SIGTERM, then SIGKILL after the grace period).
// Everything after -- goes to each pigserver unchanged (see pigserver -h
// for its flags); with -cluster there is no server to pass it to.
//
// -sweep runs a rate ladder over one cluster bring-up — the §5.4
// saturation experiment: push past the knee and watch goodput flatten
// while latency diverges. Each step emits its own benchfmt line, so the
// sweep output plots directly.
//
//	pigload -spawn 3 -protocol pigpaxos -sweep 1000,4000,16000,64000
//
// -kill-leader-after kills the leader process mid-measurement (spawn mode
// only); maxgap-ns in the output bounds the availability hole the
// failover opened.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"pigpaxos/internal/cluster"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/loadgen"
	"pigpaxos/internal/workload"
)

func main() {
	var (
		clusterStr = flag.String("cluster", "", "existing cluster: comma-separated id=host:port list")
		spawn      = flag.Int("spawn", 0, "fork an n-node local cluster instead of -cluster")
		serverBin  = flag.String("server-bin", "./pigserver", "pigserver binary for -spawn")
		protocol   = flag.String("protocol", "pigpaxos", "protocol for -spawn: pigpaxos | paxos | epaxos")
		groups     = flag.Int("groups", 2, "PigPaxos relay groups for -spawn")
		walDir     = flag.String("wal-dir", "", "give each spawned server a durable WAL under this directory")
		readyTO    = flag.Duration("ready-timeout", 20*time.Second, "cluster readiness budget")

		clients  = flag.Int("clients", 8, "open-loop client count (at least 1)")
		rate     = flag.Float64("rate", 1000, "aggregate offered load, ops/sec")
		sweepStr = flag.String("sweep", "", "comma-separated rate ladder overriding -rate (e.g. 1000,4000,16000)")
		warmup   = flag.Duration("warmup", time.Second, "unrecorded warmup per step")
		duration = flag.Duration("duration", 5*time.Second, "measurement window per step")
		timeout  = flag.Duration("timeout", 2*time.Second, "per-op abandonment timeout")
		seed     = flag.Int64("seed", 1, "workload/arrival RNG seed")

		keys      = flag.Int("keys", 1000, "distinct keys")
		readRatio = flag.Float64("read-ratio", 0.5, "fraction of GETs")
		payload   = flag.Int("payload", 8, "write payload bytes")
		distStr   = flag.String("dist", "uniform", "key distribution: uniform | zipfian")
		theta     = flag.Float64("theta", 0.99, "zipfian skew")

		killAfter = flag.Duration("kill-leader-after", 0, "with -spawn: SIGKILL the leader this long into the measurement window")

		clientBaseF = flag.Uint64("client-base", 0, "first client ID (0 = derive a per-invocation base so warm-cluster reruns get fresh at-most-once sessions)")

		gateFrac = flag.Float64("gate-goodput-frac", 0, "with -sweep: exit 1 unless the final rung's goodput is at least this fraction of the peak rung's (0 disables)")
	)
	flag.Parse()
	serverArgs := flag.Args() // after --: each spawned pigserver's own flags

	// Reject impossible flags and flag combinations up front, before any
	// cluster is spawned or load is offered — failing mid-sweep wastes the
	// whole run, and a spawned cluster would outlive log.Fatal.
	dist, err := workload.ParseDistribution(*distStr)
	if err != nil {
		log.Fatal(err)
	}
	rates, err := parseSweep(*sweepStr, *rate)
	if err != nil {
		log.Fatal(err)
	}
	step := loadgen.Options{
		Clients:  *clients,
		Rate:     rates[0],
		Warmup:   *warmup,
		Duration: *duration,
		Timeout:  *timeout,
		Workload: workload.Config{
			Keys:        *keys,
			ReadRatio:   *readRatio,
			PayloadSize: *payload,
			Dist:        dist,
			Theta:       *theta,
		},
	}
	if err := step.Validate(); err != nil {
		log.Fatal(err)
	}
	if *killAfter > 0 {
		if *spawn == 0 {
			log.Fatal("-kill-leader-after needs -spawn")
		}
		if len(rates) > 1 {
			log.Fatal("-kill-leader-after cannot combine with -sweep (the leader only dies once)")
		}
	}
	if len(serverArgs) > 0 && *spawn == 0 {
		log.Fatalf("pigserver flags after -- need -spawn: %q", serverArgs)
	}
	if *gateFrac < 0 || *gateFrac > 1 {
		log.Fatalf("-gate-goodput-frac %v outside [0,1]", *gateFrac)
	}

	var (
		addrs   map[ids.ID]string
		members []ids.ID
		procs   *cluster.Procs
	)
	switch {
	case *spawn > 0 && *clusterStr != "":
		log.Fatal("-spawn and -cluster are mutually exclusive")
	case *spawn > 0:
		procs, err = cluster.Launch(cluster.ProcSpec{
			N:         *spawn,
			Protocol:  *protocol,
			Groups:    *groups,
			ServerBin: *serverBin,
			WALDir:    *walDir,
			ExtraArgs: serverArgs,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer procs.StopAll(2 * time.Second)
		addrs, members = procs.Addrs, procs.Members
		log.Printf("spawned %d × %s: %s", *spawn, *protocol, cluster.FormatAddrs(addrs))
	case *clusterStr != "":
		addrs, members, err = cluster.ParseAddrs(*clusterStr)
		if err != nil {
			log.Fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: pigload (-cluster 1.1=h:p,... | -spawn 3) [-rate R | -sweep R1,R2,...] [-- pigserver flags]")
		os.Exit(2)
	}

	if err := cluster.WaitReady(addrs, members, *readyTO); err != nil {
		if procs != nil {
			procs.StopAll(2 * time.Second)
		}
		log.Fatal(err)
	}
	log.Printf("cluster ready (%d members)", len(members))

	// A fresh client-ID base per invocation: pigload used to start every
	// run at 1, so a second run against a still-warm cluster reused the
	// first run's (ClientID, Seq) pairs and was answered from the
	// at-most-once session cache instead of executing. Derive a
	// time/PID-seeded base unless the caller pins one for reproduction.
	clientBase := *clientBaseF
	if clientBase == 0 {
		clientBase = uint64(time.Now().UnixNano())<<12 | uint64(os.Getpid()&0xfff)
	}
	log.Printf("client IDs start at %d", clientBase)

	exitCode := 0
	goodputs := make([]float64, 0, len(rates))
	step.Addrs, step.Members = addrs, members
	for i, r := range rates {
		if *killAfter > 0 {
			leader := members[0]
			go func() {
				time.Sleep(*warmup + *killAfter)
				log.Printf("killing leader %v", leader)
				if err := procs.Kill(leader); err != nil {
					log.Printf("kill leader: %v", err)
				}
			}()
		}
		step.Rate, step.Seed, step.ClientIDBase = r, *seed+int64(i), clientBase
		res, err := loadgen.Run(step)
		if err != nil {
			log.Fatal(err)
		}
		// Fresh sessions per step: a reused client ID would have its new
		// ops deduplicated against the previous step's session window.
		clientBase += uint64(*clients)
		log.Printf("rate %.0f: %v", r, res)
		fmt.Println(benchLine(*protocol, len(members), *clients, r, res))
		goodputs = append(goodputs, res.Goodput)
		if res.Completed == 0 {
			exitCode = 1 // the run produced nothing; fail loudly in CI
		}
	}
	// The §5.4 flat-goodput gate: with admission control a sweep's final
	// (most oversubscribed) rung must hold near the peak rung's goodput
	// instead of collapsing under queueing.
	if *gateFrac > 0 && len(goodputs) > 1 {
		peak := 0.0
		for _, g := range goodputs {
			if g > peak {
				peak = g
			}
		}
		last := goodputs[len(goodputs)-1]
		if last < *gateFrac*peak {
			log.Printf("goodput gate FAILED: final rung %.0f/s < %.0f%% of peak %.0f/s",
				last, *gateFrac*100, peak)
			exitCode = 1
		} else {
			log.Printf("goodput gate ok: final rung %.0f/s ≥ %.0f%% of peak %.0f/s",
				last, *gateFrac*100, peak)
		}
	}
	if procs != nil {
		procs.StopAll(2 * time.Second)
		procs = nil
	}
	os.Exit(exitCode)
}

func parseSweep(s string, fallback float64) ([]float64, error) {
	if s == "" {
		if fallback <= 0 {
			return nil, fmt.Errorf("non-positive -rate %v", fallback)
		}
		return []float64{fallback}, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad sweep rate %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// benchLine renders one result as a Go benchfmt line:
// iterations = completed ops, ns/op = mean open-loop latency, extra
// metrics as (value, unit) pairs.
func benchLine(proto string, n, clients int, rate float64, res *loadgen.Result) string {
	name := fmt.Sprintf("BenchmarkTCPLoad/proto=%s/n=%d/clients=%d/rate=%.0f", proto, n, clients, rate)
	return fmt.Sprintf("%s %d %d ns/op %.1f goodput-ops/sec %.1f offered-ops/sec %d p50-ns %d p99-ns %d p999-ns %d maxgap-ns %d shed-ops %d busy-ops %d timeout-ops %d redirect-ops",
		name, res.Completed, res.Latency.Mean.Nanoseconds(),
		res.Goodput, res.OfferedRate,
		res.Latency.P50.Nanoseconds(), res.Latency.P99.Nanoseconds(), res.Latency.P999.Nanoseconds(),
		res.MaxGap.Nanoseconds(), res.Shed, res.Busy, res.Timeouts, res.Redirects)
}
