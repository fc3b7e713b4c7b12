package harness

import (
	"testing"
	"time"

	"pigpaxos/internal/chaos"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
	"pigpaxos/internal/workload"
)

func short(t *testing.T) Options {
	t.Helper()
	return Options{
		Warmup:  200 * time.Millisecond,
		Measure: time.Second,
	}
}

func TestPaxosSmallClusterServes(t *testing.T) {
	o := short(t)
	o.Protocol = Paxos
	o.N = 5
	o.Clients = 20
	r := Run(o)
	if r.Throughput < 100 {
		t.Fatalf("implausibly low throughput: %v", r)
	}
	if r.Latency.Count == 0 || r.Latency.Mean <= 0 {
		t.Fatalf("no latency samples: %v", r)
	}
}

func TestPigPaxosSmallClusterServes(t *testing.T) {
	o := short(t)
	o.Protocol = PigPaxos
	o.N = 5
	o.NumGroups = 2
	o.Clients = 20
	r := Run(o)
	if r.Throughput < 100 {
		t.Fatalf("implausibly low throughput: %v", r)
	}
}

func TestEPaxosSmallClusterServes(t *testing.T) {
	o := short(t)
	o.Protocol = EPaxos
	o.N = 5
	o.Clients = 20
	r := Run(o)
	if r.Throughput < 100 {
		t.Fatalf("implausibly low throughput: %v", r)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	o := short(t)
	o.Protocol = PigPaxos
	o.N = 9
	o.NumGroups = 3
	o.Clients = 30
	a, b := Run(o), Run(o)
	if a.Throughput != b.Throughput || a.Latency.Mean != b.Latency.Mean {
		t.Errorf("same seed gave different results: %v vs %v", a, b)
	}
	o.Seed = 43
	c := Run(o)
	if c.Throughput == a.Throughput && c.Messages == a.Messages {
		t.Error("different seed should perturb the run")
	}
}

// The paper's headline (Figure 8) on single runs at one client count: at
// 25 nodes PigPaxos ≫ Paxos > EPaxos, with PigPaxos at least 3× Paxos.
func TestHeadlineShape25Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol sweep")
	}
	mk := func(p Protocol, clients int) float64 {
		o := short(t)
		o.Protocol = p
		o.N = 25
		o.Clients = clients
		o.NumGroups = 3
		return Run(o).Throughput
	}
	paxosTP := mk(Paxos, 200)
	pigTP := mk(PigPaxos, 200)
	epaxosTP := mk(EPaxos, 200)
	t.Logf("25 nodes @200 clients: paxos=%.0f pig=%.0f epaxos=%.0f", paxosTP, pigTP, epaxosTP)
	if pigTP < 3*paxosTP {
		t.Errorf("PigPaxos %.0f should be ≥ 3× Paxos %.0f", pigTP, paxosTP)
	}
	if epaxosTP >= paxosTP {
		t.Errorf("EPaxos %.0f should saturate below Paxos %.0f on the 1000-key workload", epaxosTP, paxosTP)
	}
}

func TestLatencyOrderingAtLowLoad(t *testing.T) {
	// At low load Paxos has lower latency than PigPaxos (one fewer hop);
	// the paper reports ~30% higher initial latency for PigPaxos (§5.4).
	mk := func(p Protocol) time.Duration {
		o := short(t)
		o.Protocol = p
		o.N = 25
		o.Clients = 1 // one closed-loop client = unloaded system
		o.NumGroups = 3
		return Run(o).Latency.Mean
	}
	paxosLat, pigLat := mk(Paxos), mk(PigPaxos)
	if pigLat <= paxosLat {
		t.Errorf("PigPaxos low-load latency %v should exceed Paxos %v", pigLat, paxosLat)
	}
	if float64(pigLat) > 2.5*float64(paxosLat) {
		t.Errorf("PigPaxos latency %v is implausibly high vs Paxos %v", pigLat, paxosLat)
	}
}

func TestCurveMonotoneClients(t *testing.T) {
	o := short(t)
	o.Protocol = Paxos
	o.N = 5
	pts := Curve(o, []int{5, 50})
	if len(pts) != 2 {
		t.Fatal("curve points missing")
	}
	if pts[1].Throughput <= pts[0].Throughput {
		t.Errorf("more clients should raise throughput before saturation: %+v", pts)
	}
	if pts[0].LatencyMs <= 0 {
		t.Error("latency not recorded")
	}
}

func TestFaultWindowSeries(t *testing.T) {
	o := Options{
		Protocol:    PigPaxos,
		N:           9,
		NumGroups:   3,
		Clients:     50,
		Warmup:      200 * time.Millisecond,
		Measure:     3 * time.Second,
		SampleWidth: 500 * time.Millisecond,
		Faults: chaos.Schedule{
			{At: 1200 * time.Millisecond, Action: chaos.Action{Kind: chaos.Crash, Node: ids.NewID(1, 5)}},
			{At: 2200 * time.Millisecond, Action: chaos.Action{Kind: chaos.Recover, Node: ids.NewID(1, 5)}},
		},
	}
	r := Run(o)
	if len(r.Series) < 4 {
		t.Fatalf("series too short: %d points", len(r.Series))
	}
	// Throughput must stay nonzero through the fault window.
	for _, p := range r.Series[:len(r.Series)-1] {
		if p.Rate <= 0 {
			t.Errorf("throughput collapsed to zero at %v", p.Start)
		}
	}
}

func TestWriteOnlyPayloadWorkload(t *testing.T) {
	o := short(t)
	o.Protocol = PigPaxos
	o.N = 9
	o.NumGroups = 3
	o.Clients = 30
	o.Workload = workload.Config{PayloadSize: 1280}.WriteOnly()
	r := Run(o)
	if r.Throughput < 100 {
		t.Fatalf("payload workload broke the run: %v", r)
	}
}

func TestWANRunServes(t *testing.T) {
	o := short(t)
	o.Protocol = PigPaxos
	o.N = 15
	o.WAN = true
	o.ZoneGroups = true
	o.Clients = 50
	r := Run(o)
	if r.Throughput < 50 {
		t.Fatalf("WAN run: %v", r)
	}
	// Cross-region commit: latency must reflect WAN RTTs (tens of ms).
	if r.Latency.Mean < 30*time.Millisecond {
		t.Errorf("WAN latency %v implausibly low", r.Latency.Mean)
	}
}

func TestMaxThroughputPicksBest(t *testing.T) {
	o := short(t)
	o.Protocol = Paxos
	o.N = 5
	best := MaxThroughput(o, []int{5, 100})
	single := Run(func() Options { o2 := o; o2.Clients = 5; return o2 }())
	if best < single.Throughput {
		t.Error("MaxThroughput must dominate any single sweep point")
	}
}

// A closed-loop client with no sweep, refused by a node that names no
// leader, moves on to its next command rather than wait forever; one that
// sweeps keeps the command for the sweep to retry.
func TestClosedLoopRefusedWithoutSweepMovesOn(t *testing.T) {
	for _, retry := range []time.Duration{0, 50 * time.Millisecond} {
		o := short(t)
		o.Protocol = Paxos
		o.N = 3
		o.applyDefaults()
		d := deploy(&o, nil, nil) // never started: a follower knows no leader
		cl := d.closedLoop(1, d.cc.ZoneOf(d.cc.Nodes[0]), 1000, retry)
		cl.sessions[0].Target = d.cc.Nodes[1]
		issued := 0
		cl.source = func(bool) (kvstore.Command, bool) {
			issued++
			return kvstore.Command{Op: kvstore.Get, Key: uint64(issued)}, issued <= 3
		}
		cl.record = func(int, kvstore.Command, wire.Reply, time.Duration, time.Duration) {
			t.Error("a refused command was recorded as acknowledged")
		}
		d.launch([]*closedLoop{cl}, 0)
		d.sim.Run(time.Second)
		if moved := retry == 0; cl.done != moved || (issued == 4) != moved {
			t.Errorf("retry %v: done=%v after %d source calls, want done=%v", retry, cl.done, issued, moved)
		}
	}
}
