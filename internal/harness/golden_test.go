package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/config"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_quick.txt from this tree's output")

// goldenRuns is a fixed set of small runs through all three entry points,
// unsharded and sharded.
// Every field of every result is compared byte-for-byte against the
// checked-in file, so a refactor of the harness (clients, builders,
// runners, resolvers) that changes a send, a timer, an RNG draw or an
// endpoint registration anywhere shows up as a diff — the deterministic
// simulator makes "same behaviour" checkable to the last digit.
func goldenRuns() []struct {
	name string
	run  func() any
} {
	base := func(p Protocol) Options {
		return Options{
			Protocol: p, N: 5, NumGroups: 2, Clients: 20,
			Warmup: 100 * time.Millisecond, Measure: 300 * time.Millisecond, Seed: 7,
		}
	}
	scen := func(p Protocol) ScenarioOptions {
		o := ScenarioOptions{}
		o.Protocol = p
		o.N = 9
		o.NumGroups = 3
		o.Clients = 6
		o.OpsPerClient = 12
		o.Warmup = 200 * time.Millisecond
		o.Measure = 800 * time.Millisecond
		o.Seed = 11
		return o
	}
	sharded := func(p Protocol, shards int) ScenarioOptions {
		o := ScenarioOptions{}
		o.Shards = shards
		o.Protocol = p
		o.N = 12
		o.Clients = 24
		o.OpsPerClient = 10
		o.Warmup = 100 * time.Millisecond
		o.Measure = 400 * time.Millisecond
		o.Seed = 13
		return o
	}
	// The backpressure shape: a one-slot window of two-command batches and
	// an ingress bound of two, under a dozen and more closed-loop clients.
	busyPaxos := func(c *paxos.Config) { c.MaxPending = 2 }
	busyPig := func(c *pigpaxos.Config) { c.Paxos.MaxPending = 2 }

	type entry = struct {
		name string
		run  func() any
	}
	runs := []entry{
		{"Run/Paxos", func() any { return Run(base(Paxos)) }},
		{"Run/PigPaxos", func() any { return Run(base(PigPaxos)) }},
		{"Run/EPaxos", func() any { return Run(base(EPaxos)) }},
		{"Run/PigPaxos/batch+series+crash", func() any {
			o := base(PigPaxos)
			o.BatchSize = 4
			o.SampleWidth = 100 * time.Millisecond
			victim := config.NewLAN(5).Nodes[4]
			o.Faults = chaos.Schedule{
				{At: 150 * time.Millisecond, Action: chaos.Action{Kind: chaos.Crash, Node: victim}},
				{At: 300 * time.Millisecond, Action: chaos.Action{Kind: chaos.Recover, Node: victim}},
			}
			return Run(o)
		}},
		{"Run/Paxos/busy", func() any {
			o := base(Paxos)
			o.N = 3
			o.Clients = 24
			o.BatchSize = 2
			o.MaxInFlight = 1
			o.MutPaxos = busyPaxos
			return Run(o)
		}},
		{"RunOverload/PigPaxos/past-knee", func() any {
			o := OverloadOptions{Options: base(PigPaxos), Rate: 60000, QueueTTL: time.Second}
			o.Clients = 16
			o.BatchSize = 4
			o.Workload = workload.Config{Keys: 1000}
			return RunOverload(o)
		}},
		{"RunOverload/EPaxos-runs-Paxos", func() any {
			o := OverloadOptions{Options: base(EPaxos), Rate: 4000}
			o.Clients = 8
			return RunOverload(o)
		}},
	}
	for _, p := range []Protocol{Paxos, PigPaxos, EPaxos} {
		p := p
		runs = append(runs, entry{"RunScenario/leader-crash/" + p.String(), func() any {
			o := scen(p)
			return RunScenario(o, chaos.LeaderCrash(o.Warmup+200*time.Millisecond, 300*time.Millisecond))
		}})
	}
	runs = append(runs,
		entry{"RunScenario/relay-crash/PigPaxos", func() any {
			o := scen(PigPaxos)
			return RunScenario(o, chaos.RelayCrash(1, o.Warmup+200*time.Millisecond, 300*time.Millisecond))
		}},
		entry{"RunScenario/flaky-links/Paxos", func() any {
			o := scen(Paxos)
			f := netsim.LinkFaults{Loss: 0.05, Duplicate: 0.05, Reorder: 0.1}
			return RunScenario(o, chaos.FlakyLinks(f, o.Warmup+100*time.Millisecond, 500*time.Millisecond))
		}},
		// pigbench -scenario epaxoschaos's schedule: Explicit Prepare
		// recovery, the retransmit sweep and commit teach-back under loss.
		entry{"RunScenario/crash+loss/EPaxos", func() any {
			o := scen(EPaxos)
			at := o.Warmup + 300*time.Millisecond
			return RunScenario(o, chaos.Merge(
				chaos.LeaderCrash(at, 500*time.Millisecond),
				chaos.FlakyLinks(netsim.LinkFaults{Loss: 0.05, Duplicate: 0.02}, at+100*time.Millisecond, 600*time.Millisecond),
			))
		}},
		entry{"RunScenario/durable-leader-restart/PigPaxos", func() any {
			o := scen(PigPaxos)
			o.Durable = true
			o.SnapshotEvery = 16
			return RunScenario(o, chaos.LeaderRestart(o.Warmup+200*time.Millisecond, 300*time.Millisecond))
		}},
		entry{"RunScenario/busy/PigPaxos", func() any {
			o := scen(PigPaxos)
			o.ThinkTime = -1
			o.OpsPerClient = 200
			o.BatchSize = 2
			o.MaxInFlight = 1
			o.MutPig = busyPig
			return RunScenario(o, nil)
		}},
		entry{"RunScenario/wan-region-cut/PigPaxos", func() any {
			o := WANScenario(PigPaxos, 9, 2, 8, 17)
			return RunScenario(o, chaos.RegionCut(config.ZoneOregon, o.Warmup+300*time.Millisecond, 600*time.Millisecond))
		}},
		entry{"Run/sharded/S=1/Paxos", func() any { return Run(sharded(Paxos, 1).Options) }},
		entry{"Run/sharded/S=4/PigPaxos", func() any { return Run(sharded(PigPaxos, 4).Options) }},
		entry{"Run/sharded/S=4/Paxos/zipfian", func() any {
			o := sharded(Paxos, 4).Options
			o.Workload = workload.Config{Keys: 1000, Dist: workload.Zipfian, Theta: 0.99, ReadRatio: 0.5}
			return Run(o)
		}},
		entry{"RunScenario/sharded/S=4/shard-leader-crash/PigPaxos", func() any {
			o := sharded(PigPaxos, 4)
			return RunScenario(o, chaos.ShardLeaderCrash(1, o.Warmup+100*time.Millisecond, 200*time.Millisecond))
		}},
		entry{"RunScenario/sharded/S=1/Paxos", func() any {
			o := sharded(Paxos, 1)
			return RunScenario(o, chaos.LeaderCrash(o.Warmup+100*time.Millisecond, 200*time.Millisecond))
		}},
	)
	return runs
}

// TestGoldenQuick renders every run as indented JSON of its result struct
// (not %+v: the result types and metrics.Summary have String methods %+v
// would call, and those print a digest, not every field) and compares the
// whole rendering with testdata/golden_quick.txt.
// `go test -run Golden -update` rewrites the file.
func TestGoldenQuick(t *testing.T) {
	var got bytes.Buffer
	for _, r := range goldenRuns() {
		js, err := json.MarshalIndent(r.run(), "", "  ")
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fmt.Fprintf(&got, "== %s\n%s\n", r.name, js)
	}
	path := filepath.Join("testdata", "golden_quick.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	section := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if bytes.HasPrefix(wl[i], []byte("== ")) {
			section = string(wl[i][3:])
		}
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("golden mismatch in %q at line %d:\n  got  %s\n  want %s", section, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden mismatch: got %d lines, want %d", len(gl), len(wl))
}
