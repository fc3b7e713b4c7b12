// Command bench is the repository's benchmark: six workloads on two planes
// (the seeded simulator in virtual time, a loopback-TCP cluster in wall
// time), five end-to-end metrics, and a per-layer ledger measured from
// outside the program. See README.md in this directory.
//
//	go run . -workload tcp5-pig -seed 1 -seconds 20 -trace 0
//	go run . -workload tcp5-pig -trace 1        # per-layer metrics
//	go run . -repeat 10 -workload sim25-pig     # median and quartiles
//	go run .                                    # every workload, untraced
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one named measurement.
type metric struct {
	name, unit string
	value      float64
}

// result is one run of one workload.
type result struct {
	metrics    []metric
	attempted  int
	failed     int
	violations []string
}

func (r *result) set(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
	fmt.Printf("  %-34s %14.4f %s\n", name, v, unit)
}

func (r *result) note(s string) { fmt.Printf("  # %s\n", s) }

func (r *result) violate(format string, a ...any) {
	v := fmt.Sprintf(format, a...)
	r.violations = append(r.violations, v)
	fmt.Printf("  VIOLATION: %s\n", v)
}

// ok reports a run with no failed operation and no violated check.
func (r *result) ok() bool { return len(r.violations) == 0 && r.failed == 0 }

// jsonLine renders the result as the driver's one-line JSON object.
func (r *result) jsonLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = mv{m.value, m.unit}
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.ok(),
		"attempted": attempted,
		"failed":    r.failed,
		"metrics":   ms,
	})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// runOnce runs one workload once: end to end when trace is false, the
// per-layer passes when it is true.
func runOnce(w spec, seed int64, seconds float64, trace bool) *result {
	out := &result{}
	mode := "end to end, untraced"
	if trace {
		mode = "per-layer passes"
	}
	fmt.Printf("%s (%s): %s; seed %d, %.0f s, GOMAXPROCS %d\n", w.name, mode, w, seed, seconds, runtime.GOMAXPROCS(0))
	start := time.Now()
	switch {
	case trace:
		runLayers(w, seed, seconds, out)
	case w.tcp:
		runTCP(w, seed, seconds, out)
	case w.failover:
		runSimFailover(w, childSeed(seed, 0), simVirtual(seconds), failoverChildren, out)
	default:
		runSimSteady(w, childSeed(seed, 0), simVirtual(seconds), out)
	}
	fmt.Printf("  # %d operations attempted, %d failed, %d violations, %.1f s wall\n",
		out.attempted, out.failed, len(out.violations), time.Since(start).Seconds())
	return out
}

// simVirtual maps the run length onto a sim phase's virtual window: 20 s of
// run is 4 s virtual per phase, under the 65,536-sample cap at every rate
// the sim workloads reach.
func simVirtual(seconds float64) time.Duration {
	return time.Duration(seconds / 5 * float64(time.Second))
}

// repeat runs w n times on consecutive seeds and prints the median and
// quartiles of every metric: the spread the bounds in BENCHMARK.json are
// derived from.
func repeat(w spec, seed int64, seconds float64, trace bool, n int) bool {
	values := map[string][]float64{}
	units := map[string]string{}
	var order []string
	ok := true
	for i := 0; i < n; i++ {
		r := runOnce(w, seed+int64(i), seconds, trace)
		ok = ok && r.ok()
		for _, m := range r.metrics {
			if _, seen := values[m.name]; !seen {
				order = append(order, m.name)
			}
			values[m.name] = append(values[m.name], m.value)
			units[m.name] = m.unit
		}
	}
	fmt.Printf("\n%s: %d runs, seeds %d..%d\n", w.name, n, seed, seed+int64(n)-1)
	fmt.Printf("  %-34s %14s %14s %14s %8s  %s\n", "metric", "q1", "median", "q3", "iqr/med", "unit")
	for _, name := range order {
		v := values[name]
		q1, q3 := quartiles(v)
		med := median(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("  %-34s %14.4f %14.4f %14.4f %7.2f%%  %s\n", name, q1, med, q3, 100*spread, units[name])
	}
	return ok
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all: "+strings.Join(workloadNames(), " "))
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run (tcp: wall seconds of saturation; sim: 5 s of run = 1 s virtual per phase)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the inline, direct and traced passes")
		reps     = flag.Int("repeat", 0, "run this many times on consecutive seeds and print median and quartiles per metric")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *reps < 0 {
		flag.Usage()
		os.Exit(2)
	}
	var ws []spec
	if *workload == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ws = []spec{w}
	}
	ok := true
	for _, w := range ws {
		if *reps > 0 {
			ok = repeat(w, *seed, *seconds, *trace == 1, *reps) && ok
			continue
		}
		r := runOnce(w, *seed, *seconds, *trace == 1)
		ok = ok && r.ok()
		fmt.Println(r.jsonLine())
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
